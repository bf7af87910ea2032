"""Tests for the one-call experiment runner, sweeps, and rendering."""

import pytest

from repro.mobility.placement import grid_positions, line_positions
from repro.radio.geometry import Area
from repro.service import SweepSpec
from repro.sim import build_world, config_key, finish_world
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

from tests.helpers import DIAMOND, line_coords

SMALL = ScenarioConfig(n=12, seed=2)
FAST = dict(message_count=2, message_interval=1.0, warmup=5.0, drain=8.0)
#: Hand-placed worlds: a chain with 80 m hops, and the diamond with its
#: arm node 2 mute (delivery to node 3 must go round through node 1).
LINE = ScenarioConfig(n=4, seed=3, placement=tuple(line_coords(4, 80.0)))
MUTE_ARM = ScenarioConfig(n=4, seed=3, placement=DIAMOND,
                          adversaries=AdversaryMix.mute(1, (2,)))


def without_runtime(result):
    """The result minus its wall-clock block, for equality checks."""
    result.runtime = None
    return result


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

    @pytest.mark.parametrize("scenario", [
        LINE, MUTE_ARM,
        ScenarioConfig(n=3, seed=3, placement=tuple(line_coords(3, 80.0)),
                       propagation="shadowing", shadowing_sigma=0.05,
                       background_loss=0.01)],
        ids=["line", "mute_arm", "shadowed_line"])
    def test_hand_placed_world_delivers(self, scenario):
        result = run_experiment(ExperimentConfig(scenario=scenario, **FAST))
        assert result.byzantine == scenario.adversaries.total
        assert result.delivery_ratio == 1.0
        assert result.energy["nodes"] == scenario.n
        assert result.energy["tx_joules"] > 0

    def test_finish_world_stops_every_node(self):
        world = build_world(ExperimentConfig(scenario=LINE, **FAST))
        finish_world(world)
        before = world.sim.events_fired
        world.sim.run(until=world.sim.now + 5.0)
        # Beacons, elections and purges halted: almost nothing fires.
        assert world.sim.events_fired - before < 20

    def test_mobile_scenario_runs(self):
        scenario = ScenarioConfig(n=12, seed=2, mobility="waypoint",
                                  speed_max=1.5)
        result = run_experiment(ExperimentConfig(scenario=scenario, **FAST))
        assert result.broadcasts == 2


class TestExplicitPlacement:
    """Explicit points and Byzantine ids are the named choices spelled
    out: the same world, the same result."""

    def test_line_points_equal_line(self):
        named = ScenarioConfig(n=6, seed=4, placement="line")
        points = tuple(line_positions(6, named.line_spacing_factor
                                      * named.tx_range))
        explicit = ScenarioConfig(n=6, seed=4, placement=points)
        results = [without_runtime(run_experiment(
            ExperimentConfig(scenario=scenario, **FAST)))
            for scenario in (named, explicit)]
        assert results[0] == results[1]

    def test_grid_points_equal_grid(self):
        named = ScenarioConfig(n=9, seed=4, placement="grid",
                               area_side=220.0)
        points = tuple(grid_positions(Area(220.0, 220.0), 9,
                                      margin=named.tx_range / 4))
        explicit = ScenarioConfig(n=9, seed=4, placement=points,
                                  area_side=220.0)
        results = [without_runtime(run_experiment(
            ExperimentConfig(scenario=scenario, **FAST)))
            for scenario in (named, explicit)]
        assert results[0] == results[1]

    def test_ids_equal_high_id(self):
        named = ScenarioConfig(n=12, seed=2, adversaries=AdversaryMix.mute(2))
        explicit = ScenarioConfig(n=12, seed=2,
                                  adversaries=AdversaryMix.mute(2, (11, 10)))
        results = [without_runtime(run_experiment(
            ExperimentConfig(scenario=scenario, **FAST)))
            for scenario in (named, explicit)]
        assert results[0] == results[1]

    def test_points_keyed_by_value(self):
        ints = ScenarioConfig(n=2, placement=((0, 0), (50, 0)))
        floats = ScenarioConfig(n=2, placement=((0.0, 0.0), (50.0, 0.0)))
        assert config_key(ExperimentConfig(scenario=ints)) \
            == config_key(ExperimentConfig(scenario=floats))
        assert config_key(ExperimentConfig(scenario=ints)) != config_key(
            ExperimentConfig(scenario=ScenarioConfig(n=2, placement="line")))

    def test_source_id_rejected(self):
        scenario = ScenarioConfig(n=4, adversaries=AdversaryMix.mute(1, (0,)))
        with pytest.raises(ValueError, match="source"):
            build_world(ExperimentConfig(scenario=scenario, **FAST))


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
