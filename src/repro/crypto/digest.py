"""Message digests and canonical serialization helpers.

All signing operations in the protocol run over a canonical byte encoding of
the message fields, so two nodes always agree on what was signed.  The
encoding is deliberately simple: length-prefixed fields, no external
dependencies, stable across Python versions.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Iterable, Union

__all__ = ["sha256", "digest_int", "encode_fields", "signed_bytes",
           "Fieldable"]

Fieldable = Union[bytes, str, int, float]


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def digest_int(data: bytes, bits: int) -> int:
    """The leftmost ``bits`` bits of SHA-256(data) as an integer.

    This is the standard DSA hash-truncation rule (FIPS 186-4 §4.6): when the
    group order q has fewer bits than the hash, only the leftmost ``len(q)``
    bits of the digest are used.
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive: {bits}")
    digest = hashlib.sha256(data).digest()
    value = int.from_bytes(digest, "big")
    excess = len(digest) * 8 - bits
    if excess > 0:
        value >>= excess
    return value


def _encode_one(field: Fieldable) -> bytes:
    if isinstance(field, bytes):
        tag, payload = b"b", field
    elif isinstance(field, str):
        tag, payload = b"s", field.encode("utf-8")
    elif isinstance(field, bool):  # bool before int: bool is an int subclass
        tag, payload = b"B", (b"\x01" if field else b"\x00")
    elif isinstance(field, int):
        length = max(1, (field.bit_length() + 8) // 8)  # signed encoding
        tag, payload = b"i", field.to_bytes(length, "big", signed=True)
    elif isinstance(field, float):
        tag, payload = b"f", struct.pack(">d", field)
    else:
        raise TypeError(f"cannot canonically encode {type(field).__name__}")
    return tag + struct.pack(">I", len(payload)) + payload


def encode_fields(fields: Iterable[Fieldable]) -> bytes:
    """Canonical, unambiguous byte encoding of a field sequence.

    Every field is tagged with its type and length-prefixed, so no two
    distinct field sequences produce the same encoding.
    """
    return b"".join(_encode_one(field) for field in fields)


def signed_bytes(message: Any) -> bytes:
    """Canonical signed bytes of a frozen message, memoized on the instance.

    ``message`` is any frozen object with a ``signed_fields()`` tuple.
    Its fields never change, so the canonical encoding is computed once
    per object and reused by every later ``verify`` — a node re-verifies
    the same gossip entry on every gossip period, and one HELLO beacon
    object is verified by every neighbour that hears it.  Only the
    *bytes* are shared; each verifier still runs its own verification
    over them.  The memo is identity-keyed — it lives on the instance —
    so it cannot leak across distinct messages.
    """
    cached = getattr(message, "_signed_cache", None)
    if cached is None:
        cached = encode_fields(message.signed_fields())
        object.__setattr__(message, "_signed_cache", cached)
    return cached
