"""Tests for the TLV codec and the message wire format."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.core.messages import (
    DataMessage,
    FindMissingMessage,
    GossipMessage,
    GossipPacket,
    MessageId,
    RequestMessage,
)
from repro.core.wire import WireError, decode_message, encode_message, \
    wire_size
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.radio.neighbors import HelloMessage


class TestCodecBasics:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**70, -2**70, 0.0, -2.5, math.pi,
        b"", b"\x00\xff", "", "héllo", [], [1, [2, [3]]], {},
        {"a": 1, "b": [True, None]},
    ])
    def test_roundtrip(self, value):
        assert codec.decode(codec.encode(value)) == value

    def test_tuples_decode_as_lists(self):
        assert codec.decode(codec.encode((1, 2))) == [1, 2]

    def test_sets_encode_sorted(self):
        assert codec.decode(codec.encode({3, 1, 2})) == [1, 2, 3]

    def test_deterministic_dict_order(self):
        assert codec.encode({"b": 1, "a": 2}) == codec.encode(
            {"a": 2, "b": 1})

    def test_encoded_size(self):
        value = {"k": [1, 2, 3]}
        assert codec.encoded_size(value) == len(codec.encode(value))

    def test_unencodable_rejected(self):
        with pytest.raises(codec.CodecError):
            codec.encode(object())
        with pytest.raises(codec.CodecError):
            codec.encode({1: "non-str key"})

    def test_depth_limit(self):
        value = []
        for _ in range(40):
            value = [value]
        with pytest.raises(codec.CodecError):
            codec.encode(value)

    def test_malformed_inputs_rejected(self):
        for bad in (b"", b"Z", b"i", b"f\x00", b"s\x05ab", b"l\x02i\x02",
                    codec.encode(1) + b"extra"):
            with pytest.raises(codec.CodecError):
                codec.decode(bad)

    def test_varint_boundaries(self):
        for value in (0, 127, 128, 2**14 - 1, 2**14, 2**63):
            assert codec.decode(codec.encode(value)) == value


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-2**63, max_value=2**63),
              st.floats(allow_nan=False, allow_infinity=False),
              st.binary(max_size=16), st.text(max_size=16)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_property_codec_roundtrip(value):
    assert codec.decode(codec.encode(value)) == value


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=40))
def test_property_decoder_never_crashes_unsafely(data):
    """Arbitrary bytes either decode or raise CodecError — nothing else."""
    try:
        codec.decode(data)
    except codec.CodecError:
        pass


# The codec's whole value domain, not only what decodes back unchanged:
# huge and negative ints, non-finite floats, tuples, sets, non-ASCII keys.
sortable_sets = st.one_of(
    st.frozensets(st.integers(min_value=-2**70, max_value=2**70),
                  max_size=5),
    st.sets(st.text(max_size=4), max_size=4))
codec_values = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-2**80, max_value=2**80),
              st.floats(), st.binary(max_size=200), st.text(max_size=16),
              sortable_sets),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(codec_values)
def test_property_encoded_size_is_the_encoded_length(value):
    assert codec.encoded_size(value) == len(codec.encode(value))


class TestEncodedSizeWalk:
    @pytest.mark.parametrize("value", [
        [], (), {}, set(), frozenset(), "", b"", 0, -1, 63, 64, -64, -65,
        2**63, 2**64 - 1, -2**63, 2**200, b"x" * 127, b"x" * 128,
        "ü" * 64, {"ключ": {"é": ["ß", ("日本",)]}}, float("inf"),
        float("nan"), {"ov": {"nbrs": (1, 2, 3), "mis": True}},
    ])
    def test_boundaries(self, value):
        assert codec.encoded_size(value) == len(codec.encode(value))

    @pytest.mark.parametrize("depth", [31, 32, 33, 40])
    def test_depth_limit_is_the_encoders(self, depth):
        for leaf in ([], 7):
            value = leaf
            for _ in range(depth):
                value = [value]
            try:
                expected = len(codec.encode(value))
            except codec.CodecError as exc:
                with pytest.raises(codec.CodecError, match=str(exc)):
                    codec.encoded_size(value)
            else:
                assert codec.encoded_size(value) == expected

    def test_rejects_what_encode_rejects(self):
        for bad in (object(), {1: "non-str key"}, [1, {"k": bytearray()}]):
            with pytest.raises(codec.CodecError):
                codec.encode(bad)
            with pytest.raises(codec.CodecError):
                codec.encoded_size(bad)
        with pytest.raises(TypeError):      # unorderable, as in encode
            codec.encoded_size({1, "a"})

    def test_allocates_no_buffer(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("encoded_size must not serialize")
        monkeypatch.setattr(codec, "_encode_into", forbidden)
        assert codec.encoded_size({"k": [1, "two", b"3"]}) == 16


class TestWireFormat:
    @pytest.fixture
    def signer(self):
        return KeyDirectory(HmacScheme(seed=b"wire")).issue(1)

    def test_data_roundtrip(self, signer):
        message = DataMessage.create(signer, 7, b"payload", ttl=2)
        assert decode_message(encode_message(message)) == message

    def test_data_with_piggyback_roundtrip(self, signer):
        gossip = GossipMessage.create(signer, 7)
        message = DataMessage.create(signer, 7, b"payload").with_gossip(
            gossip)
        assert decode_message(encode_message(message)) == message

    def test_gossip_packet_roundtrip(self, signer):
        packet = GossipPacket(entries=tuple(
            GossipMessage.create(signer, seq) for seq in (1, 2, 3)))
        assert decode_message(encode_message(packet)) == packet

    def test_request_roundtrip(self, signer):
        request = RequestMessage.create(
            signer, GossipMessage.create(signer, 7), target=3)
        assert decode_message(encode_message(request)) == request

    def test_find_roundtrip(self, signer):
        find = FindMissingMessage.create(
            signer, GossipMessage.create(signer, 7), claimed_holder=3)
        assert decode_message(encode_message(find)) == find

    def test_hello_roundtrip(self, signer):
        hello = HelloMessage(sender=1, seq=4,
                             extras={"ov": {"status": "active",
                                            "nbrs": (2, 3)}},
                             signature=b"sig")
        decoded = decode_message(encode_message(hello))
        assert decoded == hello

    def test_signature_survives_roundtrip_verification(self, signer):
        directory = KeyDirectory(HmacScheme(seed=b"wire2"))
        signer2 = directory.issue(9)
        message = DataMessage.create(signer2, 1, b"verified")
        decoded = decode_message(encode_message(message))
        assert decoded.verify(directory)

    def test_wire_size_positive_and_scales(self, signer):
        small = DataMessage.create(signer, 1, b"x")
        large = DataMessage.create(signer, 2, b"x" * 1000)
        assert 0 < wire_size(small) < wire_size(large)
        assert wire_size(large) >= 1000

    def test_garbage_rejected(self):
        with pytest.raises(WireError):
            decode_message(b"not a frame")
        with pytest.raises(WireError):
            decode_message(codec.encode(["?", 1]))
        with pytest.raises(WireError):
            decode_message(codec.encode([]))

    def test_non_message_rejected(self):
        with pytest.raises(WireError):
            encode_message("just a string")

    def test_neighbor_service_hello_size_matches_wire(self, signer):
        # NeighborService computes hello sizes without importing core.wire
        # (cycle); this test pins the two encodings together.
        from repro.radio.neighbors import NeighborService
        hello = HelloMessage(sender=3, seq=9,
                             extras={"ov": {"status": "active",
                                            "nbrs": (1, 2)}},
                             signature=b"s" * 20)
        assert NeighborService._wire_size(hello) == wire_size(hello)

    def test_truncated_frames_rejected(self, signer):
        encoded = encode_message(DataMessage.create(signer, 1, b"payload"))
        for cut in (1, len(encoded) // 2, len(encoded) - 1):
            with pytest.raises(WireError):
                decode_message(encoded[:cut])
