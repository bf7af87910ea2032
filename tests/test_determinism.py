"""Determinism regression tests: identical seeds → identical universes.

The whole evaluation methodology rests on reproducibility — same seed,
same placement, same collisions, same suspicions, same numbers.  These
tests re-run complete simulations and compare full event traces.
"""

from repro.obs import ObsConfig
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig

from tests.helpers import DIAMOND


def run_traced(seed):
    """The diamond with one mute arm, observed: its span stream."""
    config = ExperimentConfig(
        scenario=ScenarioConfig(n=4, seed=seed, placement=DIAMOND,
                                adversaries=AdversaryMix.mute(1, (2,))),
        message_count=4, message_interval=3.0, drain=8.0,
        observe=ObsConfig())
    return run_experiment(config).trace["spans"]


class TestTraceDeterminism:
    def test_identical_seeds_identical_traces(self):
        assert run_traced(5) == run_traced(5)

    def test_different_seeds_different_traces(self):
        assert run_traced(5) != run_traced(6)


class TestExperimentDeterminism:
    def test_full_experiment_bitwise_repeatable(self):
        config = ExperimentConfig(
            scenario=ScenarioConfig(n=14, seed=4,
                                    adversaries=AdversaryMix.mute(2)),
            message_count=3, message_interval=1.0, warmup=6.0, drain=10.0)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.physical == b.physical
        assert a.energy == b.energy
        assert a.delivery_ratio == b.delivery_ratio
        assert a.mean_latency == b.mean_latency
        assert a.max_latency == b.max_latency
        assert a.overlay_quality == b.overlay_quality

    def test_mobile_experiment_repeatable(self):
        config = ExperimentConfig(
            scenario=ScenarioConfig(n=12, seed=9, mobility="waypoint"),
            message_count=2, message_interval=1.0, warmup=5.0, drain=8.0)
        assert run_experiment(config).physical \
            == run_experiment(config).physical

    def test_shadowing_experiment_repeatable(self):
        config = ExperimentConfig(
            scenario=ScenarioConfig(n=12, seed=9, propagation="shadowing"),
            message_count=2, message_interval=1.0, warmup=5.0, drain=8.0)
        assert run_experiment(config).physical \
            == run_experiment(config).physical
