"""Unit tests for adversary behaviours and active attackers."""

import pytest

from repro.adversary.behaviors import (
    DeafBehavior,
    ForgingBehavior,
    GossipLiarBehavior,
    ImpersonationBehavior,
    MuteBehavior,
    PROTOCOL_KINDS,
    SelectiveDropBehavior,
)
from repro.adversary.policies import (
    BEHAVIOR_KINDS,
    GossipFloodAttacker,
    RequestFloodAttacker,
    make_behavior,
)
from repro.chaos import FaultEvent, FaultSchedule
from repro.core.messages import (
    DATA,
    FIND_MISSING_MSG,
    GOSSIP,
    REQUEST_MSG,
    DataMessage,
)
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.des.random import RandomStream
from repro.sim import ExperimentConfig, build_world, finish_world
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig


@pytest.fixture
def message():
    directory = KeyDirectory(HmacScheme(seed=b"adv"))
    signer = directory.issue(1)
    return DataMessage.create(signer, 1, b"original payload"), directory


class TestMuteBehavior:
    def test_drops_all_protocol_kinds(self, message):
        msg, _ = message
        behavior = MuteBehavior()
        for kind in PROTOCOL_KINDS:
            assert behavior.filter_outgoing(kind, msg) is None

    def test_other_kinds_pass(self, message):
        msg, _ = message
        behavior = MuteBehavior(drop_kinds=[DATA])
        assert behavior.filter_outgoing(GOSSIP, msg) is msg
        assert behavior.filter_outgoing(DATA, msg) is None


class TestSelectiveDrop:
    def test_probability_zero_never_drops(self, message):
        msg, _ = message
        behavior = SelectiveDropBehavior(RandomStream(1), 0.0)
        assert all(behavior.filter_outgoing(DATA, msg) is msg
                   for _ in range(50))

    def test_probability_one_always_drops(self, message):
        msg, _ = message
        behavior = SelectiveDropBehavior(RandomStream(1), 1.0)
        assert all(behavior.filter_outgoing(DATA, msg) is None
                   for _ in range(50))

    def test_only_listed_kinds_dropped(self, message):
        msg, _ = message
        behavior = SelectiveDropBehavior(RandomStream(1), 1.0,
                                         drop_kinds=[DATA])
        assert behavior.filter_outgoing(GOSSIP, msg) is msg

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            SelectiveDropBehavior(RandomStream(1), 1.5)


class TestForging:
    def test_corrupted_payload_fails_verification(self, message):
        msg, directory = message
        behavior = ForgingBehavior(RandomStream(1), corrupt_probability=1.0)
        forged = behavior.filter_outgoing(DATA, msg)
        assert forged is not None
        assert forged.payload != msg.payload
        assert not forged.verify(directory)

    def test_signature_and_id_preserved(self, message):
        msg, _ = message
        behavior = ForgingBehavior(RandomStream(1), corrupt_probability=1.0)
        forged = behavior.filter_outgoing(DATA, msg)
        assert forged.msg_id == msg.msg_id
        assert forged.signature == msg.signature

    def test_non_data_untouched(self, message):
        msg, _ = message
        behavior = ForgingBehavior(RandomStream(1))
        assert behavior.filter_outgoing(GOSSIP, "gossip") == "gossip"


class TestImpersonation:
    def test_originator_rewritten_and_rejected(self, message):
        msg, directory = message
        behavior = ImpersonationBehavior(victim_id=9)
        forged = behavior.filter_outgoing(DATA, msg)
        assert forged.msg_id.originator == 9
        assert not forged.verify(directory)


class TestLiarAndDeaf:
    def test_liar_gossips_but_never_serves(self, message):
        msg, _ = message
        behavior = GossipLiarBehavior()
        assert behavior.filter_outgoing(GOSSIP, "g") == "g"
        assert behavior.filter_outgoing(REQUEST_MSG, "r") == "r"
        assert behavior.filter_outgoing(DATA, msg) is None
        assert behavior.filter_outgoing(FIND_MISSING_MSG, "f") is None

    def test_deaf_suppresses_all_incoming(self, message):
        msg, _ = message
        behavior = DeafBehavior()
        for kind in PROTOCOL_KINDS:
            assert behavior.intercept_incoming(kind, msg, 5)
        assert behavior.filter_outgoing(DATA, msg) is msg


class TestFactory:
    def test_correct_returns_none(self):
        assert make_behavior("correct") is None

    def test_all_kinds_constructible(self):
        rng = RandomStream(1)
        for kind in BEHAVIOR_KINDS:
            if kind == "correct":
                continue
            kwargs = {}
            if kind == "selective_drop":
                kwargs = {"drop_probability": 0.5}
            if kind == "impersonation":
                kwargs = {"victim_id": 3}
            behavior = make_behavior(kind, rng, **kwargs)
            assert behavior is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_behavior("chaotic_evil")

    def test_rng_required_where_needed(self):
        with pytest.raises(ValueError):
            make_behavior("forging")

    def test_impersonation_without_victim_names_the_parameter(self):
        """A scenario or chaos event that asks for ``impersonation``
        without a victim is refused by name, not with a TypeError from
        deep inside the behaviour's constructor."""
        with pytest.raises(ValueError, match="victim_id"):
            make_behavior("impersonation", RandomStream(1))
        with pytest.raises(ValueError, match="victim_id"):
            build_world(ExperimentConfig(scenario=ScenarioConfig(
                n=10, seed=3,
                adversaries=AdversaryMix(counts={"impersonation": 1}))))
        world = build_world(ExperimentConfig(
            scenario=ScenarioConfig(n=10, seed=3), message_count=1,
            chaos=FaultSchedule(events=(FaultEvent(
                time=0.5, node=4, action="behavior",
                params={"kind": "impersonation"}),))))
        with pytest.raises(ValueError, match="victim_id"):
            finish_world(world)


class TestActiveAttackers:
    def build_victim_network(self):
        from tests.helpers import build_network, line_coords
        return build_network(line_coords(3, 80.0), 100.0)

    def test_request_flood_attacker_injects(self):
        sim, medium, nodes, _ = self.build_victim_network()
        attacker = RequestFloodAttacker(sim, nodes[2], RandomStream(3),
                                        rate_hz=10.0)
        sim.run(until=8.0)
        nodes[0].broadcast(b"bait")
        attacker.start()
        sim.run(until=sim.now + 10.0)
        assert attacker.requests_injected > 20
        attacker.stop()

    def test_request_flooder_gets_verbose_suspected(self):
        sim, medium, nodes, _ = self.build_victim_network()
        attacker = RequestFloodAttacker(sim, nodes[2], RandomStream(3),
                                        rate_hz=10.0)
        sim.run(until=8.0)
        nodes[0].broadcast(b"bait")
        attacker.start()
        sim.run(until=sim.now + 20.0)
        assert any(n.verbose.suspected(2) for n in nodes[:2])

    def test_gossip_flood_attacker_triggers_rate_policing(self):
        sim, medium, nodes, _ = self.build_victim_network()
        attacker = GossipFloodAttacker(sim, nodes[2], RandomStream(3),
                                       rate_hz=20.0)
        sim.run(until=8.0)
        nodes[0].broadcast(b"bait")
        sim.run(until=sim.now + 3.0)  # let the bait spread
        attacker.start()
        sim.run(until=sim.now + 10.0)
        assert attacker.packets_injected > 0
        assert any(n.verbose.suspected(2) for n in nodes[:2])

    def test_invalid_rate_rejected(self):
        sim, medium, nodes, _ = self.build_victim_network()
        with pytest.raises(ValueError):
            RequestFloodAttacker(sim, nodes[2], RandomStream(1), rate_hz=0)
        with pytest.raises(ValueError):
            GossipFloodAttacker(sim, nodes[2], RandomStream(1), rate_hz=0)
