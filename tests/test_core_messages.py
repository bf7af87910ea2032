"""Unit tests for the protocol wire messages."""

import pytest

from repro.core.messages import (
    DataMessage,
    FindMissingMessage,
    GossipMessage,
    GossipPacket,
    MessageId,
    RequestMessage,
)
from repro.crypto.keystore import HmacScheme, KeyDirectory


@pytest.fixture
def directory():
    return KeyDirectory(HmacScheme(seed=b"msg"))


@pytest.fixture
def signers(directory):
    return {i: directory.issue(i) for i in (1, 2, 3)}


class TestDataMessage:
    def test_create_and_verify(self, directory, signers):
        message = DataMessage.create(signers[1], 7, b"payload")
        assert message.msg_id == MessageId(1, 7)
        assert message.verify(directory)

    def test_payload_tamper_detected(self, directory, signers):
        message = DataMessage.create(signers[1], 7, b"payload")
        tampered = DataMessage(msg_id=message.msg_id, payload=b"PAYLOAD",
                               signature=message.signature)
        assert not tampered.verify(directory)

    def test_originator_swap_detected(self, directory, signers):
        message = DataMessage.create(signers[1], 7, b"payload")
        forged = DataMessage(msg_id=MessageId(2, 7), payload=b"payload",
                             signature=message.signature)
        assert not forged.verify(directory)

    def test_seq_tamper_detected(self, directory, signers):
        message = DataMessage.create(signers[1], 7, b"payload")
        forged = DataMessage(msg_id=MessageId(1, 8), payload=b"payload",
                             signature=message.signature)
        assert not forged.verify(directory)

    def test_ttl_outside_signature(self, directory, signers):
        # TTL mutates in flight and must not break the signature.
        message = DataMessage.create(signers[1], 7, b"payload", ttl=1)
        assert message.with_ttl(2).verify(directory)

    def test_header_fields(self, signers):
        message = DataMessage.create(signers[1], 7, b"x")
        assert message.header == {"type": "data", "originator": 1, "seq": 7}

    def test_wire_size_includes_signature(self, directory, signers):
        message = DataMessage.create(signers[1], 7, b"x" * 100)
        size = message.wire_size(directory, header_size=20)
        assert size == 20 + 100 + directory.signature_size

    def test_wire_size_with_piggybacked_gossip(self, directory, signers):
        gossip = GossipMessage.create(signers[1], 7)
        message = DataMessage.create(signers[1], 7, b"x" * 100)
        with_gossip = message.with_gossip(gossip)
        plain = message.wire_size(directory, 20, 12)
        loaded = with_gossip.wire_size(directory, 20, 12)
        assert loaded == plain + 12 + directory.signature_size


class TestGossipMessage:
    def test_create_and_verify(self, directory, signers):
        gossip = GossipMessage.create(signers[1], 7)
        assert gossip.msg_id == MessageId(1, 7)
        assert gossip.verify(directory)

    def test_forged_gossip_rejected(self, directory, signers):
        # A node cannot mint gossip for another node's message id.
        gossip = GossipMessage.create(signers[2], 7)  # signed by 2
        forged = GossipMessage(msg_id=MessageId(1, 7),
                               signature=gossip.signature)
        assert not forged.verify(directory)

    @pytest.mark.parametrize("signature", ["str", None, 5])
    def test_non_bytes_signature_refused_not_raised(self, directory,
                                                    signers, signature):
        forged = GossipMessage(msg_id=MessageId(1, 7), signature=signature)
        assert forged.verify(directory) is False
        assert forged.verify(directory.caching_view(8, owner=2)) is False

    def test_data_pattern_header_matches_data(self, signers):
        gossip = GossipMessage.create(signers[1], 7)
        data = DataMessage.create(signers[1], 7, b"x")
        assert gossip.data_pattern_header() == data.header

    def test_gossip_packet_size_scales_with_entries(self, directory,
                                                    signers):
        entries = tuple(GossipMessage.create(signers[1], seq)
                        for seq in range(4))
        packet = GossipPacket(entries=entries)
        size = packet.wire_size(directory, header_size=16, entry_size=12)
        assert size == 16 + 4 * (12 + directory.signature_size)
        assert packet.header["count"] == 4


class TestRequestMessage:
    def test_create_and_verify(self, directory, signers):
        gossip = GossipMessage.create(signers[1], 7)
        request = RequestMessage.create(signers[2], gossip, target=3)
        assert request.requester == 2
        assert request.target == 3
        assert request.verify(directory)

    def test_requester_swap_detected(self, directory, signers):
        gossip = GossipMessage.create(signers[1], 7)
        request = RequestMessage.create(signers[2], gossip, target=3)
        forged = RequestMessage(gossip=gossip, requester=3, target=3,
                                signature=request.signature)
        assert not forged.verify(directory)

    def test_embedded_bad_gossip_detected(self, directory, signers):
        bogus = GossipMessage(msg_id=MessageId(1, 7), signature=b"junk")
        request = RequestMessage.create(signers[2], bogus, target=3)
        assert not request.verify(directory)

    def test_header_identifies_requester(self, signers):
        gossip = GossipMessage.create(signers[1], 7)
        request = RequestMessage.create(signers[2], gossip, target=3)
        assert request.header["requester"] == 2
        assert request.header["originator"] == 1


class TestFindMissingMessage:
    def test_create_and_verify(self, directory, signers):
        gossip = GossipMessage.create(signers[1], 7)
        find = FindMissingMessage.create(signers[2], gossip,
                                         claimed_holder=3)
        assert find.initiator == 2
        assert find.claimed_holder == 3
        assert find.ttl == 2
        assert find.verify(directory)

    def test_ttl_decrement_keeps_signature(self, directory, signers):
        gossip = GossipMessage.create(signers[1], 7)
        find = FindMissingMessage.create(signers[2], gossip,
                                         claimed_holder=3)
        assert find.with_ttl(1).verify(directory)

    def test_holder_swap_detected(self, directory, signers):
        gossip = GossipMessage.create(signers[1], 7)
        find = FindMissingMessage.create(signers[2], gossip,
                                         claimed_holder=3)
        forged = FindMissingMessage(gossip=gossip, claimed_holder=1,
                                    initiator=2, ttl=2,
                                    signature=find.signature)
        assert not forged.verify(directory)


def test_message_id_ordering_and_equality():
    assert MessageId(1, 2) == MessageId(1, 2)
    assert MessageId(1, 2) != MessageId(2, 1)
    assert MessageId(1, 2) < MessageId(1, 3) < MessageId(2, 0)
