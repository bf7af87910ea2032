"""Tests for the one-call experiment runner, sweeps, and rendering."""

import pytest

from repro.service import SweepSpec
from repro.sim.experiment import (
    ExperimentConfig,
    ExperimentResult,
    PROTOCOLS,
    run_experiment,
    run_many,
)
from repro.sim.render import format_rows, format_series, format_table
from repro.sim.sweeps import average_results
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig

SMALL = ScenarioConfig(n=12, seed=2)
FAST = dict(message_count=2, message_interval=1.0, warmup=5.0, drain=8.0)


class TestRunExperiment:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_each_protocol_runs_and_delivers(self, protocol):
        config = ExperimentConfig(scenario=SMALL, protocol=protocol, **FAST)
        result = run_experiment(config)
        assert result.protocol == protocol
        assert result.broadcasts == 2
        assert result.delivery_ratio > 0.9
        assert result.physical["transmissions"] > 0

    def test_overlay_quality_reported_for_overlay_protocols(self):
        result = run_experiment(ExperimentConfig(scenario=SMALL, **FAST))
        assert result.overlay_quality is not None
        assert result.overlay_quality.coverage > 0.9
        flooding = run_experiment(ExperimentConfig(
            scenario=SMALL, protocol="flooding", **FAST))
        assert flooding.overlay_quality is None

    def test_reproducible_given_seed(self):
        a = run_experiment(ExperimentConfig(scenario=SMALL, **FAST))
        b = run_experiment(ExperimentConfig(scenario=SMALL, **FAST))
        assert a.physical == b.physical
        assert a.mean_latency == b.mean_latency

    def test_different_seed_differs(self):
        a = run_experiment(ExperimentConfig(scenario=SMALL, **FAST))
        b = run_experiment(ExperimentConfig(
            scenario=SMALL.with_seed(99), **FAST))
        assert a.physical != b.physical

    def test_byzantine_counted(self):
        scenario = ScenarioConfig(n=12, seed=2,
                                  adversaries=AdversaryMix.mute(2))
        result = run_experiment(ExperimentConfig(scenario=scenario, **FAST))
        assert result.byzantine == 2
        assert result.delivery_ratio > 0.9  # recovery still delivers

    def test_result_row_shape(self):
        result = run_experiment(ExperimentConfig(scenario=SMALL, **FAST))
        row = result.row()
        assert row["protocol"] == "byzcast"
        assert row["n"] == 12
        assert 0 <= row["delivery"] <= 1

    def test_derived_metrics(self):
        result = run_experiment(ExperimentConfig(scenario=SMALL, **FAST))
        assert result.protocol_transmissions > 0
        assert result.transmissions_per_broadcast > 0
        assert result.bytes_per_broadcast > 0
        assert result.data_transmissions_per_broadcast > 0

    def test_invalid_protocol_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario=SMALL, protocol="carrier-pigeon")

    @pytest.mark.parametrize("knob", ["warmup", "drain", "message_interval"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_timing_rejected(self, knob, value):
        # Any of these makes the run's horizon NaN or infinite, and the
        # HELLO beacons then re-arm forever instead of ending the run.
        with pytest.raises(ValueError):
            ExperimentConfig(scenario=SMALL, **{knob: value})

    def test_custom_workload(self):
        from repro.workloads.sources import single_shot
        config = ExperimentConfig(scenario=SMALL, warmup=5.0, drain=8.0,
                                  workload=single_shot(0, 0.0))
        result = run_experiment(config)
        assert result.broadcasts == 1

    def test_shadowing_scenario_runs(self):
        scenario = ScenarioConfig(n=12, seed=2, propagation="shadowing",
                                  shadowing_sigma=0.1, background_loss=0.02)
        result = run_experiment(ExperimentConfig(scenario=scenario, **FAST))
        assert result.delivery_ratio > 0.8

    def test_mobile_scenario_runs(self):
        scenario = ScenarioConfig(n=12, seed=2, mobility="waypoint",
                                  speed_max=1.5)
        result = run_experiment(ExperimentConfig(scenario=scenario, **FAST))
        assert result.broadcasts == 2


class TestSweeps:
    def test_run_sweep_shapes(self):
        """A sweep is a spec's value × seed grid, averaged per value."""
        configs = SweepSpec(param="n", values=(8, 12), seeds=(1, 2),
                            messages=2, interval=1.0, warmup=5.0,
                            drain=8.0).expand()
        assert [(c.scenario.n, c.scenario.seed) for c in configs] \
            == [(8, 1), (8, 2), (12, 1), (12, 2)]
        results = run_many(configs)
        points = [average_results(results[i:i + 2]) for i in (0, 2)]
        assert [point.n for point in points] == [8, 12]
        assert all(point.broadcasts == 2 for point in points)

    def test_average_results(self):
        results = [
            run_experiment(ExperimentConfig(
                scenario=SMALL.with_seed(s), **FAST))
            for s in (1, 2)
        ]
        averaged = average_results(results)
        assert averaged.delivery_ratio == pytest.approx(
            (results[0].delivery_ratio + results[1].delivery_ratio) / 2)
        assert averaged.physical["transmissions"] == pytest.approx(
            (results[0].physical["transmissions"]
             + results[1].physical["transmissions"]) / 2)

    def test_average_single_result_identity(self):
        result = run_experiment(ExperimentConfig(scenario=SMALL, **FAST))
        assert average_results([result]) is result

    def test_average_empty_rejected(self):
        with pytest.raises(ValueError):
            average_results([])


class TestRendering:
    def test_format_table_alignment(self):
        table = format_table(["a", "bee"], [[1, 2.34567], [None, "x"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bee" in lines[0]
        assert "-" in lines[1]
        assert "2.346" in lines[2]
        assert "-" in lines[3]  # None rendered as dash

    def test_format_rows(self):
        rows = [{"x": 1, "y": 2.0}, {"x": 3, "y": None}]
        rendered = format_rows(rows)
        assert "x" in rendered and "y" in rendered

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_format_series(self):
        rendered = format_series("delivery", [10, 20], [1.0, 0.95],
                                 unit="ratio")
        assert "10→1" in rendered
        assert "ratio" in rendered
