"""Determinism regression tests: identical seeds → identical universes.

The whole evaluation methodology rests on reproducibility — same seed,
same placement, same collisions, same suspicions, same numbers.  These
tests re-run complete simulations and compare full event traces.
"""

from repro import obs
from repro.adversary.behaviors import MuteBehavior
from repro.obs import ObsConfig, ObsContext
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.sim.network import NetworkBuilder
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig


def run_traced(seed):
    net = (NetworkBuilder(seed=seed).diamond()
           .with_behavior(2, MuteBehavior()).build())
    with obs.session(ObsContext(ObsConfig(), sim=net.sim)) as ctx:
        net.warm_up()
        for i in range(4):
            net.nodes[0].broadcast(f"m{i}".encode())
            net.run(3.0)
        net.run(5.0)
    return ctx.span_dicts()


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
