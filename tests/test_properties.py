"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import DataMessage, GossipMessage, MessageId
from repro.core.store import MessageStore
from repro.crypto import dsa
from repro.crypto.digest import digest_int, encode_fields
from repro.crypto.keystore import HmacScheme
from repro.fd.events import ANY, HeaderPattern
from repro.radio.geometry import Area, Position

SMALL_PARAMS = dsa.generate_parameters(p_bits=256, q_bits=160, seed=b"prop")
SCHEME = HmacScheme(seed=b"prop")
SIGNERS = {i: SCHEME.register(i) for i in range(4)}

fields = st.one_of(
    st.integers(min_value=-2**64, max_value=2**64),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(fields, max_size=6), st.lists(fields, max_size=6))
def test_encode_fields_injective(a, b):
    """Distinct field tuples never share an encoding (no ambiguity).

    The encoding is deliberately type-aware (0 and False, 1 and 1.0 are
    different fields) and keeps a float's sign bit (0.0 and -0.0 are
    different fields), so compare typed reprs.
    """
    typed_a = [(type(v), repr(v)) for v in a]
    typed_b = [(type(v), repr(v)) for v in b]
    if typed_a != typed_b:
        assert encode_fields(a) != encode_fields(b)
    else:
        assert encode_fields(a) == encode_fields(b)


@given(st.binary(max_size=64), st.integers(min_value=1, max_value=256))
def test_digest_int_within_bits(data, bits):
    assert 0 <= digest_int(data, bits) < (1 << bits)


@settings(max_examples=20, deadline=None)
@given(st.binary(max_size=128))
def test_dsa_roundtrip_random_messages(message):
    private, public = dsa.generate_keypair(SMALL_PARAMS, seed=b"prop-key")
    signature = dsa.sign(private, message)
    assert dsa.verify(public, message, signature)
    assert not dsa.verify(public, message + b"x", signature)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.binary(max_size=64),
       st.integers(min_value=1, max_value=1000))
def test_hmac_scheme_roundtrip_and_nonforgeability(node, message, seq):
    signer = SIGNERS[node]
    signature = signer.sign(message)
    assert SCHEME.verify(node, message, signature)
    other = (node + 1) % 4
    assert not SCHEME.verify(other, message, signature)


@given(st.dictionaries(st.sampled_from(["type", "originator", "seq"]),
                       st.integers(0, 5), min_size=1),
       st.dictionaries(st.sampled_from(["type", "originator", "seq"]),
                       st.integers(0, 5), min_size=1))
def test_header_pattern_exact_match_semantics(pattern_fields, header):
    pattern = HeaderPattern(**pattern_fields)
    expected = all(header.get(k, object()) == v
                   for k, v in pattern_fields.items())
    assert pattern.matches(header) == expected


@given(st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(0, 5),
                       min_size=1))
def test_header_pattern_wildcards_match_any_value(header):
    pattern = HeaderPattern(**{key: ANY for key in header})
    assert pattern.matches(header)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 50)),
                max_size=40))
def test_store_accept_at_most_once(events):
    store = MessageStore()
    accepted = []
    for originator, seq in events:
        msg_id = MessageId(originator, seq)
        if store.mark_accepted(msg_id):
            accepted.append(msg_id)
    assert len(accepted) == len(set(accepted))
    for msg_id in accepted:
        assert store.was_accepted(msg_id)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=8))
def test_store_gossip_rotation_covers_everything(count, limit):
    store = MessageStore()
    signer = SIGNERS[0]
    for seq in range(count):
        store.add_message(DataMessage.create(signer, seq, b"x"), 0.0)
        store.add_gossip(GossipMessage.create(signer, seq))
        store.start_gossiping(MessageId(0, seq), 0.0)
    seen = set()
    rounds = math.ceil(count / limit) + 2
    for _ in range(rounds):
        batch = store.gossip_batch(limit)
        assert len(batch) <= limit
        seen.update(g.msg_id.seq for g in batch)
    assert seen == set(range(count))


@settings(max_examples=100)
@given(st.floats(-1000, 1000), st.floats(-1000, 1000),
       st.floats(1, 500), st.floats(1, 500))
def test_area_reflect_always_lands_inside(x, y, width, height):
    area = Area(width, height)
    assert area.contains(area.reflect(Position(x, y)))
