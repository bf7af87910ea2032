"""repro — reproduction of "Efficient Byzantine Broadcast in Wireless
Ad-Hoc Networks" (Drabkin, Friedman, Segal; DSN 2005).

Public API tour
---------------

* :mod:`repro.sim` — one-call experiments: ``run_experiment(config)``;
* :mod:`repro.core` — the protocol itself (:class:`NetworkNode`,
  :class:`ByzantineBroadcastProtocol`) and the :class:`NodeShell`
  lifecycle every node shares;
* :mod:`repro.arena` — the protocol registry, the paper's baselines
  (flooding, overlay-only, f+1 overlays) and the literature's rivals;
* :mod:`repro.adversary` — Byzantine behaviours and active attackers;
* :mod:`repro.chaos` — fault timelines (:class:`FaultSchedule`) replayed
  mid-run, plus the run-time :class:`InvariantOracle`;
* :mod:`repro.overlay` / :mod:`repro.fd` / :mod:`repro.radio` /
  :mod:`repro.crypto` / :mod:`repro.des` — the substrates.

Quickstart::

    from repro.sim import ExperimentConfig, run_experiment
    from repro.workloads import AdversaryMix, ScenarioConfig

    scenario = ScenarioConfig(n=30, adversaries=AdversaryMix.mute(3))
    result = run_experiment(ExperimentConfig(scenario=scenario))
    print(result.row())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
