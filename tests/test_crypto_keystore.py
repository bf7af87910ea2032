"""Unit tests for signature schemes, key directory, and envelopes."""

import pytest

from repro.crypto import dsa
from repro.crypto.envelope import SignedEnvelope, sign_fields
from repro.crypto.keystore import DsaScheme, HmacScheme, KeyDirectory

SMALL_PARAMS = dsa.generate_parameters(p_bits=256, q_bits=160, seed=b"ks")


@pytest.fixture(params=["hmac", "dsa"])
def scheme(request):
    if request.param == "hmac":
        return HmacScheme(seed=b"test")
    return DsaScheme(parameters=SMALL_PARAMS, seed=b"test")


class TestSchemes:
    def test_sign_verify_roundtrip(self, scheme):
        signer = scheme.register(1)
        signature = signer.sign(b"hello")
        assert scheme.verify(1, b"hello", signature)

    def test_wrong_message_rejected(self, scheme):
        signer = scheme.register(1)
        signature = signer.sign(b"hello")
        assert not scheme.verify(1, b"goodbye", signature)

    def test_cross_identity_rejected(self, scheme):
        signer1 = scheme.register(1)
        scheme.register(2)
        signature = signer1.sign(b"hello")
        assert not scheme.verify(2, b"hello", signature)

    def test_unknown_identity_rejected(self, scheme):
        signer = scheme.register(1)
        assert not scheme.verify(99, b"hello", signer.sign(b"hello"))

    def test_bitflip_rejected(self, scheme):
        signer = scheme.register(1)
        signature = bytearray(signer.sign(b"hello"))
        signature[0] ^= 0x01
        assert not scheme.verify(1, b"hello", bytes(signature))

    def test_duplicate_registration_rejected(self, scheme):
        scheme.register(1)
        with pytest.raises(ValueError):
            scheme.register(1)

    def test_signature_size_accurate(self, scheme):
        signer = scheme.register(1)
        assert len(signer.sign(b"x")) == scheme.signature_size

    def test_garbage_signature_rejected(self, scheme):
        scheme.register(1)
        assert not scheme.verify(1, b"x", b"")
        assert not scheme.verify(1, b"x", b"\x00" * scheme.signature_size)


    @pytest.mark.parametrize("signature", ["str", None, 5, ("t",), 2.5])
    def test_non_bytes_signature_refused_not_raised(self, scheme, signature):
        scheme.register(1)
        assert scheme.verify(1, b"x", signature) is False
        assert KeyDirectory(scheme).verify(1, b"x", signature) is False

    @pytest.mark.parametrize("message", ["x", None, 5])
    def test_non_bytes_message_refused_not_raised(self, scheme, message):
        signature = scheme.register(1).sign(b"x")
        assert scheme.verify(1, message, signature) is False
        assert KeyDirectory(scheme).verify(1, message, signature) is False


def test_hmac_tag_is_truncated_hmac_sha256():
    """The scheme's bytes are pinned: one-shot ``hmac.digest`` computes
    the tag ``hmac.new(...).digest()`` did."""
    import hashlib
    import hmac
    scheme = HmacScheme(seed=b"pin")
    signer = scheme.register(4)
    key = hashlib.sha256(b"pin:key:4").digest()
    expected = hmac.new(key, b"message", hashlib.sha256).digest()[:20]
    assert signer.sign(b"message") == expected
    assert signer.sign(b"message").hex() == (
        "202d958b5ccba5875130fad2f16e8f25dd8f9a21")


class TestKeyDirectory:
    def test_issue_and_verify(self):
        directory = KeyDirectory(HmacScheme(seed=b"d"))
        signer = directory.issue(7)
        assert signer.node_id == 7
        assert directory.verify(7, b"m", signer.sign(b"m"))

    def test_default_scheme_is_hmac(self):
        directory = KeyDirectory()
        assert isinstance(directory.scheme, HmacScheme)

    def test_signature_size_delegated(self):
        directory = KeyDirectory(HmacScheme(seed=b"d"))
        assert directory.signature_size == HmacScheme.SIGNATURE_SIZE


class TestEnvelope:
    def test_roundtrip(self):
        directory = KeyDirectory(HmacScheme(seed=b"e"))
        signer = directory.issue(3)
        envelope = sign_fields(signer, (1, "abc", b"\x00\x01"))
        assert envelope.originator == 3
        assert envelope.verify(directory)

    def test_field_mutation_detected(self):
        directory = KeyDirectory(HmacScheme(seed=b"e"))
        signer = directory.issue(3)
        envelope = sign_fields(signer, (1, "abc"))
        mutated = SignedEnvelope(originator=3, fields=(2, "abc"),
                                 signature=envelope.signature)
        assert not mutated.verify(directory)

    def test_originator_swap_detected(self):
        directory = KeyDirectory(HmacScheme(seed=b"e"))
        signer = directory.issue(3)
        directory.issue(4)
        envelope = sign_fields(signer, (1,))
        stolen = SignedEnvelope(originator=4, fields=(1,),
                                signature=envelope.signature)
        assert not stolen.verify(directory)

    def test_unencodable_fields_fail_verification(self):
        directory = KeyDirectory(HmacScheme(seed=b"e"))
        directory.issue(3)
        bogus = SignedEnvelope(originator=3, fields=(object(),),
                               signature=b"xx")
        assert not bogus.verify(directory)


def test_dsa_scheme_exposes_public_keys():
    scheme = DsaScheme(parameters=SMALL_PARAMS, seed=b"pk")
    scheme.register(1)
    public = scheme.public_key(1)
    assert public.parameters == SMALL_PARAMS
