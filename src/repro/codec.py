"""A compact, self-describing binary codec (tag-length-value).

Serializes the JSON-ish value universe the protocol's wire messages are
built from — ``None``, bools, ints, floats, bytes, str, lists/tuples, and
string-keyed dicts — to a deterministic byte string and back.

Used as the reference wire format: packet ``size_bytes`` in the simulator
are the *exact* encoded lengths, so byte-level overhead numbers in the
evaluation are real rather than estimated.

Format
------
Each value is ``tag(1B)`` followed by a payload:

* ``N``           None
* ``T`` / ``F``   True / False
* ``i`` + varint  zig-zag-encoded integer
* ``f`` + 8B      IEEE-754 double (big endian)
* ``b``/``s`` + varint length + bytes   bytes / UTF-8 string
* ``l`` + varint count + items          list (tuples decode as lists)
* ``d`` + varint count + (str, value)*  dict with string keys
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

__all__ = ["encode", "decode", "encoded_size", "CodecError"]

_MAX_DEPTH = 32


class CodecError(ValueError):
    """Raised on unencodable values or malformed byte strings."""


# ----------------------------------------------------------------------
# varint (LEB128, unsigned) and zig-zag helpers
# ----------------------------------------------------------------------
def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CodecError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 91:
            raise CodecError("varint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> (value.bit_length() + 1)) \
        if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# ----------------------------------------------------------------------
# encode
# ----------------------------------------------------------------------
def _encode_into(out: bytearray, value: Any, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise CodecError("value nests too deeply")
    if value is None:
        out.append(ord("N"))
    elif value is True:
        out.append(ord("T"))
    elif value is False:
        out.append(ord("F"))
    elif isinstance(value, int):
        out.append(ord("i"))
        _write_varint(out, _zigzag(value))
    elif isinstance(value, float):
        out.append(ord("f"))
        out.extend(struct.pack(">d", value))
    elif isinstance(value, bytes):
        out.append(ord("b"))
        _write_varint(out, len(value))
        out.extend(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(ord("s"))
        _write_varint(out, len(encoded))
        out.extend(encoded)
    elif isinstance(value, (list, tuple)):
        out.append(ord("l"))
        _write_varint(out, len(value))
        for item in value:
            _encode_into(out, item, depth + 1)
    elif isinstance(value, (set, frozenset)):
        out.append(ord("l"))
        _write_varint(out, len(value))
        for item in sorted(value):
            _encode_into(out, item, depth + 1)
    elif isinstance(value, dict):
        out.append(ord("d"))
        _write_varint(out, len(value))
        for key in sorted(value):
            if not isinstance(key, str):
                raise CodecError(
                    f"dict keys must be str, got {type(key).__name__}")
            encoded = key.encode("utf-8")
            _write_varint(out, len(encoded))
            out.extend(encoded)
            _encode_into(out, value[key], depth + 1)
    else:
        raise CodecError(f"cannot encode {type(value).__name__}")


def encode(value: Any) -> bytes:
    """Serialize ``value`` to bytes (deterministic: dict/set keys sorted)."""
    out = bytearray()
    _encode_into(out, value, 0)
    return bytes(out)


def _varint_size(value: int) -> int:
    return (value.bit_length() + 6) // 7 or 1


def _str_size(value: str) -> int:
    length = len(value) if value.isascii() else len(value.encode("utf-8"))
    return _varint_size(length) + length


def _size_of(value: Any, depth: int) -> int:
    # Mirrors _encode_into branch for branch; tests pin the two equal.
    if depth > _MAX_DEPTH:
        raise CodecError("value nests too deeply")
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, int):
        return 1 + _varint_size(_zigzag(value))
    if isinstance(value, float):
        return 9
    if isinstance(value, bytes):
        return 1 + _varint_size(len(value)) + len(value)
    if isinstance(value, str):
        return 1 + _str_size(value)
    if isinstance(value, (list, tuple)):
        size = 1 + _varint_size(len(value))
        for item in value:
            size += _size_of(item, depth + 1)
        return size
    if isinstance(value, (set, frozenset)):
        # Sorted only so that an unorderable set fails as it does in encode.
        size = 1 + _varint_size(len(value))
        for item in sorted(value):
            size += _size_of(item, depth + 1)
        return size
    if isinstance(value, dict):
        size = 1 + _varint_size(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"dict keys must be str, got {type(key).__name__}")
            size += _str_size(key) + _size_of(item, depth + 1)
        return size
    raise CodecError(f"cannot encode {type(value).__name__}")


def encoded_size(value: Any) -> int:
    """``len(encode(value))`` computed by walking the value: nothing is
    serialized and no buffer is allocated.  Raises :class:`CodecError`
    for the values :func:`encode` rejects."""
    return _size_of(value, 0)


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def _decode_from(data: bytes, offset: int, depth: int) -> Tuple[Any, int]:
    if depth > _MAX_DEPTH:
        raise CodecError("value nests too deeply")
    if offset >= len(data):
        raise CodecError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == ord("N"):
        return None, offset
    if tag == ord("T"):
        return True, offset
    if tag == ord("F"):
        return False, offset
    if tag == ord("i"):
        raw, offset = _read_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == ord("f"):
        if offset + 8 > len(data):
            raise CodecError("truncated float")
        return struct.unpack(">d", data[offset:offset + 8])[0], offset + 8
    if tag in (ord("b"), ord("s")):
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated bytes/str")
        raw = data[offset:offset + length]
        offset += length
        if tag == ord("b"):
            return bytes(raw), offset
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string") from exc
    if tag == ord("l"):
        count, offset = _read_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == ord("d"):
        count, offset = _read_varint(data, offset)
        result = {}
        for _ in range(count):
            key_length, offset = _read_varint(data, offset)
            if offset + key_length > len(data):
                raise CodecError("truncated dict key")
            key = data[offset:offset + key_length].decode("utf-8")
            offset += key_length
            value, offset = _decode_from(data, offset, depth + 1)
            result[key] = value
        return result, offset
    raise CodecError(f"unknown tag byte 0x{tag:02x}")


def decode(data: bytes) -> Any:
    """Deserialize; raises :class:`CodecError` on malformed input or
    trailing garbage."""
    value, offset = _decode_from(data, 0, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes")
    return value
