"""Experiment runners, including the planted-bug fixtures.

The fuzzer never calls :func:`repro.sim.run_experiment` directly; it goes
through a named **runner** from :data:`RUNNERS`.  ``"experiment"`` is the
real stack.  The ``broken_*`` runners are deliberately sabotaged stacks —
the positive controls of the fuzzing loop: each plants a bug the
:class:`repro.chaos.InvariantOracle` must catch, *gated* behind a fault
pattern the fuzzer has to discover (a crash + restart of the highest-id
node, modeling "the recovery path is broken").  They exist so that

* the CI smoke fuzz can assert the loop actually finds planted
  violations (a fuzzer that never fires is indistinguishable from a
  correct system — unless you bury a body and check it gets dug up);
* the shrinker has a ground truth: whatever noise surrounds it, the
  minimal reproducer is the two-event ``crash``/``restart`` core;
* the committed corpus pins each oracle invariant with a replayable
  regression.

Runners are addressed by name (a string riding in corpus entries and
across worker processes), never pickled.  Each patches the node/store
classes for the duration of one run and restores them unconditionally.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator

from ..core.shell import NodeShell
from ..core.store import MessageStore
from ..sim.experiment import ExperimentConfig, ExperimentResult, \
    run_experiment

__all__ = ["RUNNERS", "SABOTAGED_NODE_CLASSES", "runner",
           "run_broken_recovery", "run_broken_forge",
           "run_broken_duplicate", "run_broken_purge"]

#: Armed by the patched restart of the target node; read by the patched
#: purge.  Reset at the start of every broken run (runs are sequential
#: within a process, so a plain module flag suffices).
_PURGE_GATE = {"armed": False}

#: Node classes the planted bugs are wired into.  Every node is a
#: ``NodeShell`` and none overrides its ``restart``/``_on_accept``, so
#: one patch point sabotages every registered protocol — the fuzzer
#: finds the same planted bodies whichever protocol it drives.
SABOTAGED_NODE_CLASSES = (NodeShell,)


@contextmanager
def _sabotaged(target: int, *, forge: bool, duplicate: bool,
               purge: bool) -> Iterator[None]:
    """Patch the stack so a restart of node ``target`` arms the bug."""
    originals = [(cls, cls.restart, cls._on_accept)
                 for cls in SABOTAGED_NODE_CLASSES]
    orig_purge = MessageStore.purge
    _PURGE_GATE["armed"] = False

    def make_restart(orig_restart):
        def restart(self, reset_state=True):
            was_crashed = self.crashed
            orig_restart(self, reset_state=reset_state)
            # Arm only on a *real* recovery: restart of a live node is a
            # no-op upstream and must stay one here, so the minimal
            # reproducer is genuinely the crash→restart pair.
            if was_crashed and self.node_id == target:
                self._fuzz_planted_broken = True
                _PURGE_GATE["armed"] = True
        return restart

    def make_accept(orig_accept):
        def accept(self, originator, payload, msg_id):
            if not getattr(self, "_fuzz_planted_broken", False):
                orig_accept(self, originator, payload, msg_id)
                return
            if forge and not duplicate:
                # Deliver once, corrupted: forged_payload alone.
                orig_accept(self, originator,
                            b"corrupt:" + bytes(payload), msg_id)
                return
            orig_accept(self, originator, payload, msg_id)
            if duplicate:
                second = (b"corrupt:" + bytes(payload) if forge
                          else bytes(payload))
                orig_accept(self, originator, second, msg_id)
        return accept

    def broken_purge(self, now, timeout):
        if _PURGE_GATE["armed"]:
            return []
        return orig_purge(self, now, timeout)

    for cls, orig_restart, orig_accept in originals:
        cls.restart = make_restart(orig_restart)
        if forge or duplicate:
            cls._on_accept = make_accept(orig_accept)
    if purge:
        MessageStore.purge = broken_purge
    try:
        yield
    finally:
        for cls, orig_restart, orig_accept in originals:
            cls.restart = orig_restart
            cls._on_accept = orig_accept
        MessageStore.purge = orig_purge
        _PURGE_GATE["armed"] = False


def _run_sabotaged(config: ExperimentConfig, *, forge: bool = False,
                   duplicate: bool = False,
                   purge: bool = False) -> ExperimentResult:
    with _sabotaged(config.scenario.n - 1, forge=forge,
                    duplicate=duplicate, purge=purge):
        return run_experiment(config)


def run_broken_recovery(config: ExperimentConfig) -> ExperimentResult:
    """After a restart of node ``n-1`` its deliveries double up corrupted
    — the oracle sees both ``forged_payload`` and ``duplicate_delivery``.
    The CI smoke fuzz's planted bug."""
    return _run_sabotaged(config, forge=True, duplicate=True)


def run_broken_forge(config: ExperimentConfig) -> ExperimentResult:
    """After a restart of node ``n-1`` its deliveries are corrupted in
    place — ``forged_payload`` alone."""
    return _run_sabotaged(config, forge=True)


def run_broken_duplicate(config: ExperimentConfig) -> ExperimentResult:
    """After a restart of node ``n-1`` every delivery happens twice with
    the genuine payload — ``duplicate_delivery`` alone."""
    return _run_sabotaged(config, duplicate=True)


def run_broken_purge(config: ExperimentConfig) -> ExperimentResult:
    """A restart of node ``n-1`` disables timeout purging *everywhere* —
    correct nodes' buffers then outgrow the §3.5 bound
    (``buffer_bound``).  The restarted node itself is chaos-exempt, so
    the violations land on the honest population, as the invariant
    intends."""
    return _run_sabotaged(config, purge=True)


RUNNERS: Dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "experiment": run_experiment,
    "broken_recovery": run_broken_recovery,
    "broken_forge": run_broken_forge,
    "broken_duplicate": run_broken_duplicate,
    "broken_purge": run_broken_purge,
}


def runner(name: str) -> Callable[[ExperimentConfig], ExperimentResult]:
    try:
        return RUNNERS[name]
    except KeyError:
        raise ValueError(f"unknown runner {name!r}; choose from "
                         f"{tuple(sorted(RUNNERS))}") from None
