"""Unit tests for the tier-2 mean-field ("fluid") simulator.

Covers the recurrence itself (determinism, monotonicity, threshold
behaviour), its :class:`ExperimentConfig` integration (tier dispatch,
knob handling, campaign-key semantics), sweep/CLI plumbing, and
calibration recovery.  The packet-vs-fluid *accuracy* bound lives in
``benchmarks/test_e12_extended_scale.py`` (it needs real packet runs);
a small cross-validation smoke sits in ``tests/test_scale_smoke.py``.
"""

import io
import math
from dataclasses import replace

import pytest

from repro.cli import main
from repro.sim.checkpoint import config_key
from repro.sim.experiment import (
    ExperimentConfig,
    ExperimentResult,
    RivalKnobs,
    run_experiment,
)
from repro.sim.fluid import (
    DEFAULT_PARAMS,
    FluidParams,
    _poisson_tail,
    calibrate,
    protocol_profile,
    run_fluid,
)
from repro.service import SweepSpec
from repro.sim.experiment import run_many
from repro.sim.sweeps import average_results
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig


def fluid_config(n=200, protocol="flooding", mute=0, **kwargs):
    adversaries = AdversaryMix.mute(mute) if mute else AdversaryMix.none()
    return ExperimentConfig(
        scenario=ScenarioConfig(n=n, adversaries=adversaries),
        protocol=protocol, tier="fluid", **kwargs)


class TestPoissonTail:
    def test_theta_one_is_one_minus_exp(self):
        for mass in (0.1, 0.7, 2.0, 9.0):
            assert _poisson_tail(mass, 1) == pytest.approx(
                1.0 - math.exp(-mass))

    def test_monotone_in_mass_and_theta(self):
        masses = [0.2, 0.5, 1.0, 2.0, 4.0]
        for theta in (1, 2, 3, 5):
            tails = [_poisson_tail(m, theta) for m in masses]
            assert tails == sorted(tails)
        for mass in masses:
            by_theta = [_poisson_tail(mass, t) for t in (1, 2, 3, 5)]
            assert by_theta == sorted(by_theta, reverse=True)

    def test_edges(self):
        assert _poisson_tail(0.0, 1) == 0.0
        assert _poisson_tail(5.0, 0) == 1.0


class TestRecurrence:
    def test_deterministic(self):
        config = fluid_config(n=500, protocol="byzcast", mute=50)
        a = run_fluid(config.scenario, protocol_profile(config))
        b = run_fluid(config.scenario, protocol_profile(config))
        assert a == b

    def test_delivery_decreases_with_mute_fraction(self):
        deliveries = []
        for mute in (0, 40, 120, 200):
            config = fluid_config(n=400, mute=mute)
            outcome = run_fluid(config.scenario, protocol_profile(config))
            deliveries.append(outcome.delivery)
        assert deliveries == sorted(deliveries, reverse=True)
        assert deliveries[0] > 0.9        # flooding, fault-free
        assert deliveries[-1] < deliveries[0]

    def test_higher_threshold_never_improves_delivery(self):
        config = fluid_config(n=300, protocol="dolev", mute=30)
        deliveries = []
        for paths in (1, 2, 4, 8):
            knobbed = replace(config, rivals=RivalKnobs(
                paths_required=paths))
            outcome = run_fluid(knobbed.scenario,
                                protocol_profile(knobbed))
            deliveries.append(outcome.delivery)
        assert deliveries == sorted(deliveries, reverse=True)
        assert deliveries[-1] < 0.5       # 8 disjoint paths: collapse

    def test_transmissions_scale_with_n(self):
        small = run_fluid(fluid_config(n=100).scenario,
                          protocol_profile(fluid_config(n=100)))
        large = run_fluid(fluid_config(n=10_000).scenario,
                          protocol_profile(fluid_config(n=10_000)))
        assert large.transmissions > 50 * small.transmissions

    def test_converges_fast_even_at_extreme_n(self):
        config = fluid_config(n=1_000_000)
        outcome = run_fluid(config.scenario, protocol_profile(config))
        assert outcome.rounds < 200
        assert 0.9 < outcome.delivery <= 1.0


class TestExperimentIntegration:
    def test_returns_experiment_result_shape(self):
        result = run_experiment(fluid_config(n=500, protocol="byzcast"))
        assert isinstance(result, ExperimentResult)
        assert result.n == 500
        assert result.protocol == "byzcast"
        assert 0.0 <= result.delivery_ratio <= 1.0
        assert result.transmissions_per_broadcast > 0
        assert result.mean_latency is not None
        assert result.mean_latency <= result.max_latency
        assert result.row()["delivery"] == round(result.delivery_ratio, 4)

    def test_fluid_rejects_event_stream_instruments(self):
        with pytest.raises(ValueError, match="fluid"):
            fluid_config(profile=True)

    def test_rival_knob_moves_fluid_delivery(self):
        base = run_experiment(fluid_config(n=300, protocol="dolev",
                                           mute=30))
        strict = run_experiment(replace(
            fluid_config(n=300, protocol="dolev", mute=30),
            rivals=RivalKnobs(paths_required=6)))
        assert strict.delivery_ratio < base.delivery_ratio

    def test_unknown_protocol_gets_flooding_profile(self):
        config = fluid_config(n=100)
        profile = protocol_profile(replace(config, protocol="flooding"))
        assert profile.theta == 1 and profile.relay == 1.0


class TestCampaignKeySemantics:
    def test_tier_fluid_gets_its_own_key(self):
        packet = ExperimentConfig(scenario=ScenarioConfig(n=100))
        fluid = replace(packet, tier="fluid")
        assert config_key(packet) != config_key(fluid)

    def test_default_tier_and_rivals_are_elided(self):
        # Explicit defaults hash like the pre-knob config layout, so
        # historical campaign records stay addressable.
        explicit = ExperimentConfig(scenario=ScenarioConfig(n=12, seed=3),
                                    tier="packet", rivals=None)
        assert config_key(explicit) == "9a80eef65f028893"

    def test_non_default_rivals_change_the_key(self):
        base = ExperimentConfig(scenario=ScenarioConfig(n=100))
        knobbed = replace(base, rivals=RivalKnobs(cpa_k=2))
        assert config_key(base) != config_key(knobbed)


class TestSweepAndCli:
    def test_fluid_sweep_over_n(self):
        configs = SweepSpec(protocols=("flooding",), param="n",
                            values=(200, 400), seeds=(1, 2),
                            tier="fluid").expand()
        results = run_many(configs)
        points = [average_results(results[i:i + 2]) for i in (0, 2)]
        assert [point.n for point in points] == [200, 400]
        for point in points:
            assert point.delivery_ratio > 0.9

    def test_cli_fluid_run(self):
        out = io.StringIO()
        assert main(["run", "--tier", "fluid", "--n", "5000",
                     "--protocol", "flooding"], out=out) == 0
        assert "flooding" in out.getvalue()

    def test_cli_rival_knob_sweep(self):
        out = io.StringIO()
        assert main(["sweep", "--tier", "fluid", "--protocol", "dolev",
                     "--param", "paths_required", "--values", "1,4",
                     "--n", "300", "--mute", "30", "--seeds", "1"],
                    out=out) == 0
        assert "paths_required" in out.getvalue()


class TestCalibration:
    def test_recovers_known_parameters(self):
        truth = FluidParams(p_hear=0.85, beta=0.2)
        reference = []
        for n in (100, 300):
            for mute in (0, n // 10):
                config = fluid_config(n=n, mute=mute)
                profile = protocol_profile(config)
                measured = run_fluid(config.scenario, profile,
                                     truth).delivery
                reference.append((config.scenario, profile, measured))
        fitted = calibrate(reference)
        assert fitted.p_hear == truth.p_hear
        assert fitted.beta == truth.beta

    def test_default_params_are_the_committed_calibration(self):
        assert DEFAULT_PARAMS == FluidParams()
