"""Unit tests for placement and mobility models."""

import hashlib
import math
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.kernel import Simulator
from repro.des.random import RandomStream, StreamFactory
from repro.mobility import placement
from repro.mobility.placement import (
    connected_uniform_positions,
    connectivity_graph,
    grid_positions,
    is_connected,
    line_positions,
    uniform_positions,
)
from repro.mobility.waypoint import RandomWalk, RandomWaypoint, StaticMobility
from repro.radio.geometry import Area, Position
from repro.radio.medium import Medium
from repro.radio.propagation import UnitDisk
from repro.radio.radio import Radio
from repro.workloads.scenarios import area_side_for_degree


class TestPlacement:
    def test_uniform_positions_inside_area(self):
        area = Area(100, 200)
        positions = uniform_positions(area, 50, RandomStream(1))
        assert len(positions) == 50
        assert all(area.contains(p) for p in positions)

    def test_uniform_reproducible(self):
        area = Area(100, 100)
        a = uniform_positions(area, 10, RandomStream(5))
        b = uniform_positions(area, 10, RandomStream(5))
        assert a == b

    def test_grid_positions_count_and_bounds(self):
        area = Area(100, 100)
        positions = grid_positions(area, 10)
        assert len(positions) == 10
        assert all(area.contains(p) for p in positions)

    def test_grid_positions_distinct(self):
        positions = grid_positions(Area(100, 100), 16)
        assert len(set(positions)) == 16

    def test_line_positions_spacing(self):
        positions = line_positions(5, 80.0)
        assert positions[0] == Position(0, 0)
        assert positions[4] == Position(320.0, 0)

    def test_line_invalid_spacing(self):
        with pytest.raises(ValueError):
            line_positions(5, 0)

    def test_connectivity_graph_edges(self):
        positions = [Position(0, 0), Position(50, 0), Position(200, 0)]
        assert connectivity_graph(positions, 100.0) == {0: [1], 1: [0],
                                                        2: []}

    def test_is_connected_full_and_subset(self):
        positions = [Position(0, 0), Position(50, 0), Position(500, 0)]
        assert not is_connected(positions, 100.0)
        assert is_connected(positions, 100.0, subset=[0, 1])

    def test_connected_uniform_positions_connected(self):
        area = Area(300, 300)
        positions = connected_uniform_positions(area, 20, 100.0,
                                                RandomStream(1))
        assert is_connected(positions, 100.0)

    def test_connected_uniform_respects_subset(self):
        area = Area(300, 300)
        positions = connected_uniform_positions(
            area, 15, 100.0, RandomStream(2), required_connected=[0, 1, 2])
        assert is_connected(positions, 100.0, subset=[0, 1, 2])

    def test_impossible_placement_raises(self):
        area = Area(10_000, 10_000)
        with pytest.raises(RuntimeError) as raised:
            connected_uniform_positions(area, 5, 10.0, RandomStream(1),
                                        max_tries=5)
        message = str(raised.value)
        assert "5 nodes" in message and "after 5 tries" in message
        assert "(5 left a node with no neighbour" in message

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            uniform_positions(Area(10, 10), -1, RandomStream(1))

    def test_uniform_positions_match_scalar_draws(self):
        area = Area(812.5, 97)
        rng = RandomStream(11)
        expected = [Position(rng.uniform(0.0, area.width),
                             rng.uniform(0.0, area.height))
                    for _ in range(40)]
        bulk_rng = RandomStream(11)
        assert uniform_positions(area, 40, bulk_rng) == expected
        assert bulk_rng.getstate() == rng.getstate()

    def test_single_node_trivially_connected(self):
        assert is_connected([Position(0, 0)], 10.0)

    def test_up_to_two_points(self):
        assert is_connected([], 10.0)
        assert is_connected([Position(0, 0), Position(3, 4)], 5.1)
        assert connectivity_graph([], 10.0) == {}
        assert is_connected([Position(0, 0), Position(50, 0)], 1.0,
                            subset=[])

    def test_range_is_exclusive(self):
        # 3-4-5 triangle: the squared distance is exactly 25.0.
        pair = [Position(0, 0), Position(3, 4)]
        assert not is_connected(pair, 5.0)
        assert is_connected(pair, math.nextafter(5.0, 6.0))
        assert not is_connected(pair, 0.0)
        assert not is_connected(line_positions(4, 80.0, y=-250.0), 80.0)
        assert is_connected(line_positions(4, 80.0, y=-250.0), 80.5)

    def test_coincident_points_are_neighbours(self):
        positions = [Position(7, 7)] * 3 + [Position(7.5, 7)]
        assert is_connected(positions, 1.0)
        assert connectivity_graph(positions, 1.0) == {
            0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]}

    def test_array_input_and_tally(self):
        positions = [Position(0, 0), Position(50, 0), Position(120, 0),
                     Position(170, 0), Position(900, 0)]
        points = np.array([(p.x, p.y) for p in positions])
        tally = Counter()
        assert is_connected(points, 100.0, subset=[0, 1, 2, 3])
        assert not is_connected(points, 100.0, tally=tally)
        assert not is_connected(points, 60.0, subset=[0, 1, 2, 3],
                                tally=tally)
        assert tally == {"isolated": 1, "partitioned": 1}


def brute_force_graph(positions, tx_range):
    """The O(n^2) definition the binned enumerator must reproduce, as a
    networkx graph (the oracle)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(positions)))
    for i, a in enumerate(positions):
        for j in range(i + 1, len(positions)):
            if a.within(positions[j], tx_range):
                graph.add_edge(i, j)
    return graph


RANGES = st.sampled_from([100.0, 37.5, 0.3, 1e-3])


@st.composite
def point_sets(draw):
    """Point sets rich in the enumerator's edge cases: a lattice of pitch
    ``tx_range / 5`` (coincident points, cell boundaries, 3-4-5 pairs at
    exactly ``tx_range``) around an arbitrary, possibly negative origin,
    mixed with free points."""
    tx_range = draw(RANGES)
    pitch = tx_range / 5
    origin = draw(st.sampled_from([0.0, -3 * tx_range, 1234.5, -0.1]))
    lattice = st.integers(-12, 12).map(lambda k: origin + k * pitch)
    free = st.floats(-3 * tx_range, 3 * tx_range).map(
        lambda v: origin + v)
    coordinate = st.one_of(lattice, free)
    coords = draw(st.lists(st.tuples(coordinate, coordinate), max_size=40))
    return [Position(x, y) for x, y in coords], tx_range


class TestBinnedConnectivity:
    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    def test_graph_equals_brute_force(self, case):
        positions, tx_range = case
        adjacency = connectivity_graph(positions, tx_range)
        reference = brute_force_graph(positions, tx_range)
        # Same nodes and the same neighbour order as the double loop's
        # graph, so adjacency iteration is the double loop's too.
        assert list(adjacency) == list(reference.nodes)
        assert adjacency == nx.to_dict_of_lists(reference)

    @settings(max_examples=300, deadline=None)
    @given(point_sets(), st.data())
    def test_is_connected_equals_networkx(self, case, data):
        positions, tx_range = case
        subset = data.draw(st.one_of(
            st.none(),
            st.lists(st.integers(0, max(0, len(positions) - 1)),
                     unique=True, max_size=len(positions))))
        chosen = range(len(positions)) if subset is None else subset
        induced = brute_force_graph(positions, tx_range).subgraph(chosen)
        expected = len(induced) <= 1 or nx.is_connected(induced)
        assert is_connected(positions, tx_range, subset) == expected
        points = np.array([(p.x, p.y) for p in positions]).reshape(-1, 2)
        assert is_connected(points, tx_range, subset) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 120),
           st.sampled_from([(250.5, 333.3), (1000.0, 70.0), (99.0, 99.0)]))
    def test_uniform_fields_not_a_multiple_of_the_range(self, seed, n, size):
        positions = uniform_positions(Area(*size), n, RandomStream(seed))
        reference = brute_force_graph(positions, 100.0)
        assert (connectivity_graph(positions, 100.0)
                == nx.to_dict_of_lists(reference))
        assert is_connected(positions, 100.0) == nx.is_connected(reference)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def sample_pinned(monkeypatch, n, seed, byzantine=0):
    """Place ``n`` nodes as ``build_world`` does for the default scenario
    (degree 8, range 100, the ``byzantine`` highest ids exempt from the
    connectivity requirement); returns (is_connected calls, positions
    digest, digest of the placement stream's state afterwards)."""
    side = area_side_for_degree(n, 100.0, 8.0)
    rng = StreamFactory(seed).stream("placement")
    calls = []
    real = placement.is_connected

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # The sampler must resolve the module global on every try: the repo
    # benchmark counts tries by wrapping it there.
    monkeypatch.setattr(placement, "is_connected", counted)
    positions = connected_uniform_positions(
        Area(side, side), n, 100.0, rng,
        required_connected=list(range(n - byzantine)))
    return (len(calls), _digest([(p.x, p.y) for p in positions]),
            _digest(rng.getstate()))


class TestSamplerPinned:
    """Literal digests: every committed record and ``config_key`` rests
    on these placements, so a change to the draw order or to the edge
    predicate has to fail here rather than silently move them."""

    def test_n100_with_ten_exempt_nodes(self, monkeypatch):
        assert sample_pinned(monkeypatch, 100, 1, byzantine=10) == (
            1,
            "cf15abcb0e21e891eabbb41fa644e1c5d48598405338819d1be81bc0f113c032",
            "dd73e15a08022135de93a8bf1ff01c480188e0eeb3add316ac74f24726295380")

    def test_n2000_takes_fourteen_tries(self, monkeypatch):
        assert sample_pinned(monkeypatch, 2000, 1) == (
            14,
            "8f0cbc774d67fb3b2e875a4a9b3e3847352b80dc6d7d588cbde8c57d73c3e275",
            "bc2a7a009753224fb0435edce3a13b964d02e38fa5905c75a541910140966393")

    @pytest.mark.scale
    def test_n3000_takes_105_tries(self, monkeypatch):
        assert sample_pinned(monkeypatch, 3000, 1) == (
            105,
            "cb5c802df6844c87d5aa4a32b31835af0918b4ec438c59990bd2f46c04ab2b1f",
            "16b667021f7f65218a6da091f7f53bff97d9ca4e63af1dff7857ed9b76a72712")

    @pytest.mark.scale
    def test_n5000_takes_452_tries(self, monkeypatch):
        assert sample_pinned(monkeypatch, 5000, 1) == (
            452,
            "5138efe598432a0bfbc69340d4e8d1d2a4d0d5935e160b5202e0dbf9b0de574d",
            "f1a6e81fdc2817bea368b880d7513f16b34502a9793220ead347d09317a325ad")


def build_radios(count, sim, area):
    streams = StreamFactory(9)
    medium = Medium(sim, streams.stream("m"), UnitDisk())
    return [Radio(sim, medium, i,
                  Position(area.width / 2, area.height / 2), 100.0,
                  streams.stream(f"mac{i}"))
            for i in range(count)]


class TestMobilityModels:
    def test_static_positions_never_change(self):
        sim = Simulator()
        area = Area(100, 100)
        radios = build_radios(3, sim, area)
        before = [r.position for r in radios]
        StaticMobility(sim, radios).start()
        sim.run(until=10.0)
        assert [r.position for r in radios] == before
        assert sim.events_fired == 0  # static model schedules nothing

    def test_waypoint_stays_in_area(self):
        sim = Simulator()
        area = Area(100, 100)
        radios = build_radios(3, sim, area)
        model = RandomWaypoint(sim, radios, area, RandomStream(4),
                               speed_min=1.0, speed_max=5.0, pause_max=1.0)
        positions = []
        model.start()

        def sample():
            positions.extend(r.position for r in radios)

        for t in range(1, 60):
            sim.schedule_at(float(t), sample)
        sim.run(until=60.0)
        assert all(area.contains(p) for p in positions)

    def test_waypoint_actually_moves(self):
        sim = Simulator()
        area = Area(1000, 1000)
        radios = build_radios(1, sim, area)
        start = radios[0].position
        model = RandomWaypoint(sim, radios, area, RandomStream(4),
                               speed_min=2.0, speed_max=5.0, pause_max=0.5)
        model.start()
        sim.run(until=30.0)
        assert radios[0].position.distance_to(start) > 0

    def test_waypoint_speed_bound(self):
        sim = Simulator()
        area = Area(1000, 1000)
        radios = build_radios(1, sim, area)
        model = RandomWaypoint(sim, radios, area, RandomStream(4),
                               speed_min=1.0, speed_max=3.0, pause_max=0.0,
                               tick=0.5)
        model.start()
        last = {"p": radios[0].position, "t": 0.0}
        violations = []

        def check():
            moved = radios[0].position.distance_to(last["p"])
            dt = sim.now - last["t"]
            if dt > 0 and moved / dt > 3.0 + 1e-6:
                violations.append((sim.now, moved / dt))
            last["p"] = radios[0].position
            last["t"] = sim.now

        for t in range(1, 40):
            sim.schedule_at(t * 0.5, check)
        sim.run(until=20.0)
        assert violations == []

    def test_walk_stays_in_area(self):
        sim = Simulator()
        area = Area(50, 50)
        radios = build_radios(2, sim, area)
        model = RandomWalk(sim, radios, area, RandomStream(4), speed_max=20.0)
        model.start()
        samples = []
        for t in range(1, 40):
            sim.schedule_at(float(t),
                            lambda: samples.extend(r.position
                                                   for r in radios))
        sim.run(until=40.0)
        assert all(area.contains(p) for p in samples)

    def test_stop_halts_movement(self):
        sim = Simulator()
        area = Area(1000, 1000)
        radios = build_radios(1, sim, area)
        model = RandomWalk(sim, radios, area, RandomStream(4))
        model.start()
        sim.run(until=5.0)
        model.stop()
        frozen = radios[0].position
        sim.run(until=10.0)
        assert radios[0].position == frozen

    def test_invalid_parameters(self):
        sim = Simulator()
        area = Area(10, 10)
        with pytest.raises(ValueError):
            RandomWaypoint(sim, [], area, RandomStream(1), speed_min=0.0)
        with pytest.raises(ValueError):
            RandomWalk(sim, [], area, RandomStream(1), speed_max=0.0)
        with pytest.raises(ValueError):
            StaticMobility(sim, [], tick=0.0)
