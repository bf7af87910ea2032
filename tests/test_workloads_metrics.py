"""Unit tests for workload generators, scenarios, and metrics."""

import pytest

from repro.core.messages import MessageId
from repro.des.kernel import Simulator
from repro.des.random import RandomStream
from repro.metrics.collector import MetricsCollector
from repro.workloads.scenarios import (
    AdversaryMix,
    ScenarioConfig,
    area_side_for_degree,
)
from repro.workloads.sources import (
    periodic_source,
    poisson_arrivals,
    single_shot,
)


class TestSources:
    def test_single_shot(self):
        events = single_shot(source=3, time=1.5, payload_size=64)
        assert len(events) == 1
        assert events[0].source == 3
        assert len(events[0].payload()) == 64

    def test_periodic_source(self):
        events = periodic_source(1, period=2.0, count=4, start=1.0)
        assert [e.time for e in events] == [1.0, 3.0, 5.0, 7.0]

    def test_periodic_invalid(self):
        with pytest.raises(ValueError):
            periodic_source(1, period=0, count=3)
        with pytest.raises(ValueError):
            periodic_source(1, period=1.0, count=-1)

    def test_poisson_rate_calibrated(self):
        events = poisson_arrivals([0, 1, 2], rate_hz=5.0, duration=200.0,
                                  rng=RandomStream(3))
        assert 800 < len(events) < 1200  # ~1000 expected
        assert all(0.0 <= e.time < 200.0 for e in events)
        assert {e.source for e in events} <= {0, 1, 2}

    def test_poisson_reproducible(self):
        a = poisson_arrivals([0], 2.0, 50.0, RandomStream(9))
        b = poisson_arrivals([0], 2.0, 50.0, RandomStream(9))
        assert [e.time for e in a] == [e.time for e in b]

    def test_poisson_invalid(self):
        with pytest.raises(ValueError):
            poisson_arrivals([], 1.0, 10.0, RandomStream(1))
        with pytest.raises(ValueError):
            poisson_arrivals([0], 0.0, 10.0, RandomStream(1))

    def test_payload_deterministic_and_sized(self):
        event = periodic_source(1, 1.0, 1, payload_size=100)[0]
        assert event.payload() == event.payload()
        assert len(event.payload()) == 100


class TestScenario:
    def test_area_side_for_degree(self):
        side = area_side_for_degree(40, 100.0, 8.0)
        assert side > 0
        import math
        density = 40 / side ** 2
        assert density * math.pi * 100 ** 2 == pytest.approx(8.0)

    def test_default_scenario_valid(self):
        scenario = ScenarioConfig()
        assert scenario.side() > 0

    def test_explicit_area_side(self):
        scenario = ScenarioConfig(area_side=500.0)
        assert scenario.side() == 500.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n=1)
        with pytest.raises(ValueError):
            ScenarioConfig(placement="ring")
        with pytest.raises(ValueError):
            ScenarioConfig(mobility="teleport")
        with pytest.raises(ValueError):
            ScenarioConfig(n=3, adversaries=AdversaryMix.mute(3))

    def test_with_helpers(self):
        scenario = ScenarioConfig(n=10, seed=1)
        assert scenario.with_n(20).n == 20
        assert scenario.with_seed(9).seed == 9
        mix = AdversaryMix.mute(2)
        assert scenario.with_adversaries(mix).adversaries.total == 2

    def test_high_id_assignment(self):
        scenario = ScenarioConfig(n=10, adversaries=AdversaryMix.mute(3))
        assignment = scenario.byzantine_assignment(0, RandomStream(1))
        assert set(assignment) == {9, 8, 7}
        assert all(kind == "mute" for kind in assignment.values())

    def test_source_never_byzantine(self):
        scenario = ScenarioConfig(
            n=10, adversaries=AdversaryMix.mute(3, placement="random"))
        for seed in range(5):
            assignment = scenario.byzantine_assignment(4, RandomStream(seed))
            assert 4 not in assignment

    def test_mixed_adversaries(self):
        mix = AdversaryMix(counts={"mute": 2, "forging": 1})
        scenario = ScenarioConfig(n=10, adversaries=mix)
        assignment = scenario.byzantine_assignment(0, RandomStream(1))
        assert len(assignment) == 3
        assert sorted(assignment.values()) == ["forging", "mute", "mute"]


class TestCollector:
    def test_delivery_ratio_full(self):
        collector = MetricsCollector(correct_nodes={0, 1, 2})
        msg_id = MessageId(0, 1)
        collector.on_broadcast(msg_id, time=1.0)
        collector.on_accept(1, msg_id, time=1.5)
        collector.on_accept(2, msg_id, time=2.0)
        assert collector.delivery_ratio() == 1.0
        assert collector.complete_fraction() == 1.0
        assert collector.mean_latency() == pytest.approx(0.75)
        assert collector.max_latency() == pytest.approx(1.0)

    def test_partial_delivery(self):
        collector = MetricsCollector(correct_nodes={0, 1, 2, 3})
        msg_id = MessageId(0, 1)
        collector.on_broadcast(msg_id, time=0.0)
        collector.on_accept(1, msg_id, time=1.0)
        assert collector.delivery_ratio() == pytest.approx(1 / 3)
        assert collector.complete_fraction() == 0.0
        assert collector.records[0].completion_latency is None

    def test_byzantine_accepts_not_counted(self):
        collector = MetricsCollector(correct_nodes={0, 1})
        msg_id = MessageId(0, 1)
        collector.on_broadcast(msg_id, time=0.0)
        collector.on_accept(9, msg_id, time=1.0)  # not a correct node
        assert collector.delivery_ratio() == 0.0

    def test_duplicate_accept_keeps_first_time(self):
        collector = MetricsCollector(correct_nodes={0, 1})
        msg_id = MessageId(0, 1)
        collector.on_broadcast(msg_id, time=0.0)
        collector.on_accept(1, msg_id, time=1.0)
        collector.on_accept(1, msg_id, time=5.0)
        assert collector.mean_latency() == pytest.approx(1.0)

    def test_unknown_message_accept_ignored(self):
        collector = MetricsCollector(correct_nodes={0, 1})
        collector.on_accept(1, MessageId(5, 5), time=1.0)
        assert collector.records == []

    def test_completion_latency(self):
        collector = MetricsCollector(correct_nodes={0, 1, 2})
        msg_id = MessageId(0, 1)
        collector.on_broadcast(msg_id, time=10.0)
        collector.on_accept(1, msg_id, time=11.0)
        collector.on_accept(2, msg_id, time=14.0)
        assert collector.records[0].completion_latency == pytest.approx(4.0)

    def test_percentile_latency(self):
        collector = MetricsCollector(correct_nodes=set(range(11)))
        msg_id = MessageId(0, 1)
        collector.on_broadcast(msg_id, time=0.0)
        for i in range(1, 11):
            collector.on_accept(i, msg_id, time=float(i))
        assert collector.percentile_latency(0.5) == pytest.approx(6.0)

    def test_no_broadcasts_defaults(self):
        collector = MetricsCollector(correct_nodes={0})
        assert collector.delivery_ratio() == 1.0
        assert collector.mean_latency() is None
