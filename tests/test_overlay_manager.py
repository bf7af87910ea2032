"""Integration-style tests for the OverlayManager over real radios."""

import pytest

from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.des.kernel import Simulator
from repro.des.random import StreamFactory
from repro.fd.events import SuspicionReason
from repro.fd.trust import TrustFailureDetector, TrustLevel
from repro.overlay import manager as manager_module
from repro.overlay.cds import CdsRule
from repro.overlay.manager import OverlayConfig, OverlayManager
from repro.overlay.metrics import evaluate_overlay
from repro.overlay.state import NodeStatus
from repro.radio.geometry import Position
from repro.radio.medium import Medium
from repro.radio.neighbors import NeighborService
from repro.radio.propagation import UnitDisk
from repro.radio.radio import Radio


def build(positions, rule_factory=CdsRule, seed=3):
    sim = Simulator()
    streams = StreamFactory(seed)
    medium = Medium(sim, streams.stream("medium"), UnitDisk())
    directory = KeyDirectory(HmacScheme(seed=b"ovl"))
    managers, services, trusts = {}, {}, {}
    for node_id, (x, y) in positions.items():
        radio = Radio(sim, medium, node_id, Position(x, y), 100.0,
                      streams.stream(f"mac{node_id}"))
        signer = directory.issue(node_id)
        service = NeighborService(sim, radio,
                                  streams.stream(f"hello{node_id}"),
                                  signer=signer, directory=directory)
        trust = TrustFailureDetector(sim)
        manager = OverlayManager(sim, node_id, service, trust, rule_factory(),
                                 streams.stream(f"ov{node_id}"))
        radio.set_receiver(service.handle_packet)
        service.start()
        manager.start()
        managers[node_id] = manager
        services[node_id] = service
        trusts[node_id] = trust
    return sim, managers, services, trusts


LINE5 = {i: (i * 80.0, 0.0) for i in range(5)}


def test_managers_converge_to_dominating_overlay():
    sim, managers, _, _ = build(LINE5)
    sim.run(until=12.0)
    members = {n for n, m in managers.items() if m.in_overlay}
    positions = {n: Position(*LINE5[n]) for n in LINE5}
    quality = evaluate_overlay(positions, 100.0, members, set(LINE5))
    assert quality.coverage == 1.0
    assert quality.correct_overlay_connected


def test_overlay_neighbors_reported():
    sim, managers, _, _ = build(LINE5)
    sim.run(until=12.0)
    members = {n for n, m in managers.items() if m.in_overlay}
    for node, manager in managers.items():
        for neighbor in manager.overlay_neighbors():
            assert neighbor in members


def test_untrusted_neighbor_excluded_from_overlay_neighbors():
    sim, managers, services, trusts = build(LINE5)
    sim.run(until=12.0)
    node = 1
    neighbors = managers[node].overlay_neighbors()
    if not neighbors:
        return
    victim = neighbors[0]
    trusts[node].suspect(victim, SuspicionReason.BAD_SIGNATURE)
    assert victim not in managers[node].overlay_neighbors()


def test_suspicion_forwarding_marks_unknown():
    sim, managers, services, trusts = build(LINE5)
    sim.run(until=12.0)
    # Node 1 starts distrusting node 2; its HELLOs carry the suspicion.
    trusts[1].suspect(2, SuspicionReason.BAD_SIGNATURE)
    sim.run(until=16.0)
    # Node 0 hears node 1's report: node 2 becomes UNKNOWN (not UNTRUSTED).
    assert trusts[0].level(2) is TrustLevel.UNKNOWN


def test_malformed_neighbor_state_ignored():
    sim, managers, services, _ = build({0: (0, 0), 1: (50, 0)})
    sim.run(until=3.0)
    # Byzantine garbage in the overlay extras must not crash or register.
    managers[0]._on_neighbor_state(1, {"ov": {"status": "bogus"}})
    managers[0]._on_neighbor_state(1, {"ov": "not a dict"})
    managers[0]._on_neighbor_state(1, {"ov": {"status": "active",
                                              "nbrs": ["x", None]}})
    sim.run(until=6.0)  # still running fine


@pytest.mark.parametrize("state", [
    {"nbrs": [float("inf")]},       # raised OverflowError out of the handler
    {"nbrs": [float("nan")]},
    {"nbrs": [1.5]},                # was truncated to {1}
    {"nbrs": [True]},
    {"suspects": "12"},             # a str iterated as the digits {1, 2}
    {"misnbrs": b"\x01\x02"},
    {"misnbrs": {"1": 2}},
    {"nbrs": [[1]]},
    {"nbrs": 7},
    {"status": "bogus"}, {"status": ["active"]}, {"status": None},
    {"mis": 1}, {"mis": "yes"}, {"mis": None},
])
def test_malformed_state_is_ignored_whole(state):
    _, managers, _, trusts = build({0: (0, 0), 1: (50, 0)})
    reported = []
    trusts[0].report_from_peer = lambda *args: reported.append(args)
    managers[0]._on_neighbor_state(
        1, {"ov": {"status": "active", "suspects": [5], **state}})
    assert managers[0].neighbor_report(1) is None
    assert reported == []


def test_parse_state_is_total():
    junk = [None, 0, "", b"", (), [], {}, {"ov": {}}, float("inf"),
            {"nbrs": object()}, {"status": {}}, {1: 2}]
    for state in junk:
        parsed = manager_module._parse_state(state)
        assert parsed is None or isinstance(parsed, tuple)


def test_honest_state_parses_as_before():
    # Every container the codec domain offers, wire-decoded lists included.
    for container in (tuple, list, set, frozenset):
        parsed = manager_module._parse_state({
            "status": "passive", "mis": False, "nbrs": container((4, 2, 9)),
            "misnbrs": container(()), "suspects": container((7,))})
        assert parsed == (NodeStatus.PASSIVE, False, frozenset({2, 4, 9}),
                          frozenset(), frozenset({7}))
    assert manager_module._parse_state({}) == (
        NodeStatus.PASSIVE, False, frozenset(), frozenset(), frozenset())


def test_stale_reports_expire():
    sim, managers, services, _ = build({0: (0, 0), 1: (50, 0)},
                                       seed=9)
    sim.run(until=6.0)
    assert managers[0].neighbor_report(1) is not None
    view = managers[0].build_view()
    assert 1 in view.trusted_neighbors
    # Silence node 1 by moving it away; reports go stale.
    services[1].stop()
    sim.run(until=30.0)
    fresh = managers[0]._fresh_report(1)
    assert fresh is None


def test_mis_rule_converges_too():
    from repro.overlay.misb import MisBridgeRule
    sim, managers, _, _ = build(LINE5, rule_factory=MisBridgeRule)
    sim.run(until=15.0)
    members = {n for n, m in managers.items() if m.in_overlay}
    positions = {n: Position(*LINE5[n]) for n in LINE5}
    quality = evaluate_overlay(positions, 100.0, members, set(LINE5))
    assert quality.coverage == 1.0
