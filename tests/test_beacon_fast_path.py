"""The HELLO/overlay beacon fast path is exact and transparent.

One transmission is one frozen ``HelloMessage`` shared by every receiver,
so the sender sizes the frame without serializing it (and re-walks it only
when its extras changed) and the receivers share the beacon's signed bytes
and its parsed overlay state.  These tests pin that nothing observable
moved: on-air sizes are the wire encoder's to the byte, reports equal the
un-memoized parser's, distinct beacons never share a parse, every receiver
verifies for itself, and seeded records hash to what they hashed to before
the fast path existed.
"""

import copy
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import profiling
from repro.core.node import NodeStackConfig
from repro.core.wire import encode_message
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.des.kernel import Simulator
from repro.des.random import StreamFactory
from repro.fd.trust import TrustFailureDetector
from repro.overlay import manager as manager_module
from repro.overlay.cds import CdsRule
from repro.overlay.manager import OverlayManager
from repro.overlay.state import NeighborReport, NodeStatus
from repro.radio.neighbors import HelloMessage, NeighborService
from repro.radio.packet import Packet
from repro.sim.campaign import result_to_record
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.telemetry.runtime import strip_runtime
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig


class RecordingRadio:
    """Just enough radio for ``NeighborService`` to send through."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.sent = []

    def send(self, payload, size_bytes, kind):
        self.sent.append((payload, size_bytes))


class FixedSigner:
    def __init__(self, signature):
        self._signature = signature

    def sign(self, message):
        return self._signature


def sending_service(node_id=7, signature=b"s" * 20):
    radio = RecordingRadio(node_id)
    service = NeighborService(
        Simulator(), radio, StreamFactory(1).stream("hello"),
        signer=FixedSigner(signature),
        directory=KeyDirectory(HmacScheme(seed=b"size")))
    return service, radio


def beacon_sizes(service, radio, extras_sequence):
    """Send one beacon per entry; returns [(size on the air, wire length)].
    Every beacon gets a fresh copy, as a provider builds a fresh dict."""
    queue = [copy.deepcopy(extras) for extras in extras_sequence]
    service.add_extras_provider(lambda: queue.pop(0))
    for _ in extras_sequence:
        service._send_hello()
    return [(size, len(encode_message(hello))) for hello, size in radio.sent]


leaves = st.one_of(st.none(), st.booleans(),
                   st.integers(min_value=-2**70, max_value=2**70),
                   st.floats(), st.binary(max_size=24), st.text(max_size=8))
junk = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=10)
id_tuples = st.lists(st.integers(0, 2**20), max_size=12).map(tuple)
overlay_states = st.fixed_dictionaries({
    "status": st.sampled_from(["active", "passive"]),
    "mis": st.booleans(),
    "nbrs": id_tuples, "misnbrs": id_tuples, "suspects": id_tuples})
beacon_extras = st.one_of(
    st.dictionaries(st.text(max_size=5), junk, max_size=4),
    st.fixed_dictionaries(
        {"ov": st.one_of(overlay_states, junk)},
        optional={"acks": junk, "extra": junk}))


class TestSizeOnTheAir:
    @settings(max_examples=150, deadline=None)
    @given(sender=st.integers(-2**40, 2**70), seq=st.integers(1, 2**40),
           signature=st.sampled_from([b"", b"s" * 20, b"t" * 40]),
           first=beacon_extras, second=beacon_extras)
    def test_equals_the_wire_encoding(self, sender, seq, signature, first,
                                      second):
        service, radio = sending_service(sender, signature)
        service._seq = seq - 1
        # Changed, unchanged (the reuse path), changed, changed back.
        for size, wire in beacon_sizes(
                service, radio, [first, first, second, first, first]):
            assert size == wire

    def test_equal_but_differently_typed_extras_are_resized(self):
        # True == 1 == 1.0, but they take 1, 2 and 9 bytes on the wire.
        service, radio = sending_service()
        variants = [{"k": 1}, {"k": True}, {"k": 1.0}, {"k": 1},
                    {"k": (1, 2)}, {"k": (True, 2)}, {"k": [1, 2]}]
        sizes = beacon_sizes(service, radio, variants)
        assert all(size == wire for size, wire in sizes)
        assert len({size for size, _ in sizes[:3]}) == 3

    def test_unchanged_extras_are_not_walked_again(self, monkeypatch):
        service, radio = sending_service()
        walked = []
        real = NeighborService._wire_size
        monkeypatch.setattr(
            NeighborService, "_wire_size",
            staticmethod(lambda hello: walked.append(1) or real(hello)))
        state = {"ov": {"status": "active", "mis": True, "nbrs": (1, 2, 3),
                        "misnbrs": (), "suspects": (9,)}}
        other = {"ov": dict(state["ov"], nbrs=(1, 2))}
        service._seq = 126          # the seq varint grows mid-sequence
        sizes = beacon_sizes(service, radio,
                             [state, state, state, other, other, state])
        assert all(size == wire for size, wire in sizes)
        assert len(walked) == 3

    def test_unmarshallable_extras_are_sized_every_time(self):
        class Level(int):
            pass
        service, radio = sending_service()
        sizes = beacon_sizes(service, radio, [{"k": Level(300)}] * 2
                             + [{"k": 300}])
        assert all(size == wire for size, wire in sizes)

    def test_service_from_an_older_snapshot_sizes_in_full(self):
        """The size memo's fields have class-level defaults, so a service
        pickled before they existed (no such instance attributes) works."""
        service, radio = sending_service()
        assert "_sized_extras" not in vars(service)
        assert "_extras_size" not in vars(service)
        state = vars(service).copy()
        restored = NeighborService.__new__(NeighborService)
        restored.__dict__.update(state)
        restored.add_extras_provider(lambda: {"k": (1, 2, 3)})
        restored._send_hello()
        restored._send_hello()
        assert [size for _, size in radio.sent] == [
            len(encode_message(hello)) for hello, _ in radio.sent]


# ----------------------------------------------------------------------
# Receivers
# ----------------------------------------------------------------------
class StubNeighbors:
    def add_extras_provider(self, provider):
        pass

    def add_listener(self, listener):
        pass

    def neighbors(self):
        return []


def managers(count):
    sim = Simulator()
    streams = StreamFactory(4)
    return sim, [OverlayManager(sim, node_id, StubNeighbors(),
                                TrustFailureDetector(sim), CdsRule(),
                                streams.stream(f"ov{node_id}"))
                 for node_id in range(count)]


def counting_parser(monkeypatch):
    calls = []
    real = manager_module._parse_state

    def counted(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(manager_module, "_parse_state", counted)
    return calls


STATE = {"status": "active", "mis": True, "nbrs": (3, 1, 2),
         "misnbrs": (2,), "suspects": (5, 6)}


class TestParseOncePerBeacon:
    def test_reports_equal_the_unmemoized_parsers(self, monkeypatch):
        calls = counting_parser(monkeypatch)
        sim, receivers = managers(5)
        sim.run(until=2.5)
        extras = {"ov": copy.deepcopy(STATE)}
        for receiver in receivers:
            receiver._on_neighbor_state(9, extras)
        assert len(calls) == 1
        status, mis, neighbors, mis_neighbors, suspects = \
            manager_module._parse_state(copy.deepcopy(STATE))
        expected = NeighborReport(
            status=status, mis_member=mis, neighbors=neighbors,
            mis_neighbors=mis_neighbors, suspects=suspects, updated_at=2.5)
        assert expected == NeighborReport(
            status=NodeStatus.ACTIVE, mis_member=True,
            neighbors=frozenset({1, 2, 3}), mis_neighbors=frozenset({2}),
            suspects=frozenset({5, 6}), updated_at=2.5)
        for receiver in receivers:
            assert receiver.neighbor_report(9) == expected
        # Each receiver owns its report; only the frozen sets are shared.
        assert len({id(r.neighbor_report(9)) for r in receivers}) == 5

    def test_equal_but_distinct_beacons_do_not_share(self, monkeypatch):
        calls = counting_parser(monkeypatch)
        _, receivers = managers(3)
        first = {"ov": copy.deepcopy(STATE)}
        second = {"ov": copy.deepcopy(STATE)}
        assert first == second and first["ov"] is not second["ov"]
        for extras in (first, second, first):
            for receiver in receivers:
                receiver._on_neighbor_state(9, extras)
        assert [id(state) for state in calls] == [
            id(first["ov"]), id(second["ov"]), id(first["ov"])]

    def test_a_malformed_beacon_is_ignored_by_every_receiver(self,
                                                             monkeypatch):
        calls = counting_parser(monkeypatch)
        _, receivers = managers(3)
        extras = {"ov": dict(STATE, nbrs=(1, "2"))}
        for receiver in receivers:
            receiver._on_neighbor_state(9, extras)
            assert receiver.neighbor_report(9) is None
        assert len(calls) == 1

    def test_peer_reports_reach_every_receivers_detector(self):
        _, receivers = managers(4)
        seen = {receiver.node_id: [] for receiver in receivers}
        for receiver in receivers:
            receiver._trust.report_from_peer = (
                lambda reporter, suspect, log=seen[receiver.node_id]:
                log.append((reporter, suspect)))
        extras = {"ov": dict(STATE, suspects=(1, 2))}
        for receiver in receivers:
            receiver._on_neighbor_state(9, extras)
        for node_id, log in seen.items():
            # Once per receiver per listed suspect, itself excepted.
            assert sorted(log) == [(9, s) for s in (1, 2) if s != node_id]


def listening_services(count):
    sim = Simulator()
    directory = KeyDirectory(HmacScheme(seed=b"recv"))
    signers = {node_id: directory.issue(node_id)
               for node_id in range(count + 1)}
    services = [NeighborService(sim, RecordingRadio(node_id),
                                StreamFactory(node_id).stream("hello"),
                                signer=signers[node_id], directory=directory)
                for node_id in range(1, count + 1)]
    return services, signers[0]


def signed_beacon(signer, extras):
    sender = NeighborService(
        Simulator(), RecordingRadio(signer.node_id),
        StreamFactory(0).stream("hello"), signer=signer,
        directory=KeyDirectory(HmacScheme(seed=b"recv")))
    sender.add_extras_provider(lambda: extras)
    sender._send_hello()
    (hello, size), = sender._radio.sent
    return hello, size


class TestEveryReceiverVerifies:
    def test_one_verification_per_receiver(self):
        services, signer = listening_services(6)
        hello, size = signed_beacon(signer, {"k": 1})
        packet = Packet(sender=0, payload=hello, size_bytes=size)
        with profiling.session() as prof:
            for service in services:
                assert service.handle_packet(packet) is True
        assert prof.count("crypto.verify") == 6
        assert prof.count("hello.recv") == 6
        assert all(service.is_neighbor(0) for service in services)
        assert all(service.bad_signature_count == 0 for service in services)

    def test_flipped_signature_bit_fails_at_each_receiver(self):
        services, signer = listening_services(6)
        hello, size = signed_beacon(signer, {"k": 1})
        flipped = bytes([hello.signature[0] ^ 1]) + hello.signature[1:]
        forged = HelloMessage(hello.sender, hello.seq, hello.extras, flipped)
        heard = []
        for service in services:
            service.add_listener(lambda sender, extras: heard.append(sender))
        with profiling.session() as prof:
            for _ in range(2):      # replayed: it re-fails, never memoized
                for service in services:
                    service.handle_packet(
                        Packet(sender=0, payload=forged, size_bytes=size))
        assert prof.count("crypto.verify") == 12
        assert [service.bad_signature_count for service in services] == [2] * 6
        assert not any(service.is_neighbor(0) for service in services)
        assert heard == []

    def test_signed_bytes_are_the_beacons_not_the_first_receivers(self):
        # A genuine beacon heard first does not vouch for a forged twin.
        services, signer = listening_services(2)
        hello, size = signed_beacon(signer, {})
        twin = HelloMessage(hello.sender, hello.seq + 1, hello.extras,
                            hello.signature)
        services[0].handle_packet(Packet(0, hello, size))
        services[0].handle_packet(Packet(0, twin, size))
        assert services[0].bad_signature_count == 1

    @pytest.mark.parametrize("signature", ["str", None, 5, ("t",)])
    def test_non_bytes_signature_is_counted_not_raised(self, signature):
        services, signer = listening_services(3)
        forged = HelloMessage(0, 1, {}, signature)
        for service in services:
            assert service.handle_packet(Packet(0, forged, 40)) is True
        assert [service.bad_signature_count for service in services] == [1] * 3

    @pytest.mark.parametrize("extras", [None, "ov", 7, [("ov", {})]])
    def test_non_dict_extras_refresh_liveness_but_reach_no_listener(
            self, extras):
        services, signer = listening_services(2)
        genuine, size = signed_beacon(signer, {})
        beacon = HelloMessage(genuine.sender, genuine.seq, extras,
                              genuine.signature)
        heard = []
        for service in services:
            service.add_listener(lambda sender, extras: heard.append(sender))
            service.handle_packet(Packet(0, beacon, size))
            assert service.is_neighbor(0)
            assert service.bad_signature_count == 0
        assert heard == []

    def test_in_flight_beacon_pickles_with_its_memo(self):
        services, signer = listening_services(1)
        hello, size = signed_beacon(signer, {"ov": copy.deepcopy(STATE)})
        services[0].handle_packet(Packet(0, hello, size))
        restored = pickle.loads(pickle.dumps(hello))
        assert restored == hello
        services[0].forget(0)
        services[0].handle_packet(Packet(0, restored, size))
        assert services[0].is_neighbor(0)


# ----------------------------------------------------------------------
# Seeded records, hashed on the commit before the fast path
# ----------------------------------------------------------------------
def record_digest(config):
    record = strip_runtime(result_to_record(config, run_experiment(config)))
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()


def beacon_config(mobility="static", **kwargs):
    return ExperimentConfig(
        scenario=ScenarioConfig(n=30, seed=5, mobility=mobility,
                                adversaries=AdversaryMix.mute(3)),
        message_count=3, **kwargs)


class TestRecordsPinned:
    """Beacon sizes feed airtime and so every later event time; parse
    order feeds the failure detectors.  Any drift in either moves these
    records, and has to fail here rather than only in the benchmark's
    ``sim_digest``."""

    def test_static(self):
        assert record_digest(beacon_config()) == (
            "3da8ed7e0db418ed19f8935dc5dc578fd202db42896b3bdb454b8910863a45e1")

    def test_random_waypoint(self):
        assert record_digest(beacon_config("waypoint")) == (
            "11117035a527d8e38989762ea6985c61e1f1b2a399fd16f462050528f01f3889")

    def test_mis_bridge_rule(self):
        # MIS+B publishes MIS membership and adjacency too: extras that
        # keep changing while the overlay settles.
        config = beacon_config(stack=NodeStackConfig(overlay_rule="mis+b"))
        assert record_digest(config) == (
            "ee1372b2913fd726520ffed41073162c5cf2b7fc1c7ad2589fcc8bfb57a14587")
