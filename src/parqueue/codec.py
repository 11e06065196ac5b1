"""Deterministic, self-delimiting byte encoding for job payloads.

Values are built from six kinds: unsigned 64-bit integers, negative
(signed 64-bit) integers, IEEE-754 binary64 floats, byte strings,
homogeneous sequences, and records with string field names.  Every value
has exactly one byte form; the decoder rejects any alternative spelling
(wrong integer tag, unsorted or duplicate record fields, mixed-kind
sequences, trailing bytes).  See docs/wire-format.md for the byte-level
grammar.
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import lru_cache

from .errors import EncodingError, MalformedPayloadError, TruncationError

Value = int | float | bytes | list | dict

TAG_UINT = 0x01
TAG_INT = 0x02
TAG_FLOAT = 0x03
TAG_BYTES = 0x04
TAG_SEQ = 0x05
TAG_RECORD = 0x06

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1
_I64_MIN = -(2**63)
_CACHED_MAX = 64  # longer scalar sequences are packed and read without a cached Struct

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def _tag_of(value) -> int:
    # bool is an int subclass but has no payload representation
    if isinstance(value, bool):
        raise EncodingError("bool is not an encodable value")
    if isinstance(value, int):
        return TAG_UINT if value >= 0 else TAG_INT
    if isinstance(value, float):
        return TAG_FLOAT
    if isinstance(value, (bytes, bytearray)):
        return TAG_BYTES
    if isinstance(value, list):
        return TAG_SEQ
    if isinstance(value, dict):
        return TAG_RECORD
    raise EncodingError(f"cannot encode values of type {type(value).__name__}")


def encode(value: Value) -> bytes:
    """Return the unique canonical byte form of *value*.

    Raises EncodingError for values outside the grammar: integers beyond
    the 64-bit ranges, sequences/strings/records longer than a 32-bit
    count, mixed-kind sequences, or unsupported Python types.
    """
    packed = _pack_scalars(value) if type(value) is list else None
    if packed is not None:
        return packed
    out = bytearray()
    _write(out, value)
    return bytes(out)


@lru_cache(maxsize=None)  # called only for n <= _CACHED_MAX: at most 130 entries
def _scalar_seq(elem_tag: int, n: int) -> struct.Struct:
    """Packs a whole sequence of n uints or n floats, header included."""
    return struct.Struct("<BI" + ("BQ" if elem_tag == TAG_UINT else "Bd") * n)


def _pack_scalars(items: list) -> bytes | None:
    """A list of plain ints >= 0 or plain floats, encoded in one struct
    call (or, when long, one array copy); None for any other list, for
    _write_seq to handle."""
    kind = type(items[0]) if items else int  # [] packs as an empty uint sequence
    if kind is not int and kind is not float:
        return None
    for item in items:
        if type(item) is not kind:  # bools, subclasses and mixed kinds
            return None
    tag, n = (TAG_UINT if kind is int else TAG_FLOAT), len(items)
    if n > _CACHED_MAX:  # pack the values alone, then interleave the tags: _read_seq's strip reversed
        try:
            values = array("Q" if kind is int else "d", items)
        except OverflowError:  # a negative or over-64-bit int
            return None
        if sys.byteorder == "big":
            values.byteswap()
        raw = values.tobytes()
        out = bytearray(5 + 9 * n)
        out[0] = TAG_SEQ
        out[1:5] = _U32.pack(n)
        out[5::9] = bytes([tag]) * n
        for b in range(8):
            out[6 + b::9] = raw[b::8]
        return bytes(out)
    flat = [tag] * (2 * n)
    flat[1::2] = items
    try:
        return _scalar_seq(tag, n).pack(TAG_SEQ, n, *flat)
    except struct.error:
        return None


def _write(out: bytearray, value) -> None:
    tag = _tag_of(value)
    if tag == TAG_UINT:
        if value > _U64_MAX:
            raise EncodingError(f"integer {value} exceeds the unsigned 64-bit range")
        out.append(TAG_UINT)
        out += _U64.pack(value)
    elif tag == TAG_INT:
        if value < _I64_MIN:
            raise EncodingError(f"integer {value} exceeds the signed 64-bit range")
        out.append(TAG_INT)
        out += _I64.pack(value)
    elif tag == TAG_FLOAT:
        out.append(TAG_FLOAT)
        out += _F64.pack(value)
    elif tag == TAG_BYTES:
        if len(value) > _U32_MAX:
            raise EncodingError("byte string exceeds the 32-bit length prefix")
        out.append(TAG_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif tag == TAG_SEQ:
        _write_seq(out, value)
    else:
        _write_record(out, value)


def _write_seq(out: bytearray, items: list) -> None:
    n = len(items)
    if n > _U32_MAX:
        raise EncodingError("sequence exceeds the 32-bit count prefix")
    packed = _pack_scalars(items)
    if packed is not None:
        out += packed
        return
    out.append(TAG_SEQ)
    out += _U32.pack(n)
    elem_tag = _tag_of(items[0])
    for item in items[1:]:
        if _tag_of(item) != elem_tag:
            raise EncodingError("sequence elements must all be the same kind")
    for item in items:
        _write(out, item)


def _write_record(out: bytearray, record: dict) -> None:
    if len(record) > _U32_MAX:
        raise EncodingError("record exceeds the 32-bit count prefix")
    names = []
    for name in record:
        if not isinstance(name, str):
            raise EncodingError("record field names must be strings")
        try:
            names.append(name.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise EncodingError(f"record field name is not encodable: {exc}") from None
    names.sort()
    out.append(TAG_RECORD)
    out += _U32.pack(len(names))
    for raw in names:
        out += _U32.pack(len(raw))
        out += raw
        _write(out, record[raw.decode("utf-8")])


def decode(payload: bytes) -> Value:
    """Decode one complete value; *payload* must contain exactly its bytes.

    Raises TruncationError if the input ends early, MalformedPayloadError
    for unknown tags, non-canonical forms, or trailing bytes.
    """
    value, offset = decode_prefix(payload, 0)
    if offset != len(payload):
        raise MalformedPayloadError(
            f"{len(payload) - offset} trailing byte(s) after a complete value"
        )
    return value


def decode_prefix(data: bytes, offset: int = 0) -> tuple[Value, int]:
    """Decode exactly one value starting at *offset*; return it and the
    offset one past its final byte.  Lets a stream of concatenated
    encodings be consumed one value at a time."""
    return _read(data, offset)


def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise TruncationError(
            f"payload ends at byte {len(data)}, needed {offset + count}"
        )


def _read(data: bytes, offset: int):
    _need(data, offset, 1)
    tag = data[offset]
    offset += 1
    if tag == TAG_UINT:
        _need(data, offset, 8)
        return _U64.unpack_from(data, offset)[0], offset + 8
    if tag == TAG_INT:
        _need(data, offset, 8)
        value = _I64.unpack_from(data, offset)[0]
        if value >= 0:
            raise MalformedPayloadError(
                "non-canonical integer: non-negative values use the unsigned tag"
            )
        return value, offset + 8
    if tag == TAG_FLOAT:
        _need(data, offset, 8)
        return _F64.unpack_from(data, offset)[0], offset + 8
    if tag == TAG_BYTES:
        _need(data, offset, 4)
        n = _U32.unpack_from(data, offset)[0]
        offset += 4
        _need(data, offset, n)
        return data[offset:offset + n], offset + n
    if tag == TAG_SEQ:
        return _read_seq(data, offset)
    if tag == TAG_RECORD:
        return _read_record(data, offset)
    raise MalformedPayloadError(f"unknown tag byte 0x{tag:02x}")


def _read_seq(data: bytes, offset: int):
    _need(data, offset, 4)
    n = _U32.unpack_from(data, offset)[0]
    offset += 4
    if n == 0:
        return [], offset
    _need(data, offset, n)  # every element occupies at least one byte
    elem_tag = data[offset]
    if elem_tag == TAG_UINT or elem_tag == TAG_FLOAT:
        _need(data, offset, 9 * n)
        if n <= _CACHED_MAX:  # bulk path mirroring _pack_scalars; the struct starts at the sequence tag
            flat = _scalar_seq(elem_tag, n).unpack_from(data, offset - 5)
            tags, items = flat[2::2], list(flat[3::2])
        else:  # a Struct holds 64 bytes per element: strip the tags from a copy instead
            raw = bytearray(memoryview(data)[offset:offset + 9 * n])
            tags = raw[::9]
            del raw[::9]
            values = array("Q" if elem_tag == TAG_UINT else "d", raw)
            if sys.byteorder == "big":
                values.byteswap()
            items = values.tolist()
        if tags.count(elem_tag) != n:
            raise MalformedPayloadError("sequence elements must all be the same kind")
        return items, offset + 9 * n
    items = []
    for _ in range(n):
        _need(data, offset, 1)
        if data[offset] != elem_tag:
            raise MalformedPayloadError("sequence elements must all be the same kind")
        item, offset = _read(data, offset)
        items.append(item)
    return items, offset


def _read_record(data: bytes, offset: int):
    _need(data, offset, 4)
    n = _U32.unpack_from(data, offset)[0]
    offset += 4
    record = {}
    prev = None
    for _ in range(n):
        _need(data, offset, 4)
        name_len = _U32.unpack_from(data, offset)[0]
        offset += 4
        _need(data, offset, name_len)
        raw = data[offset:offset + name_len]
        offset += name_len
        if prev is not None and raw <= prev:
            raise MalformedPayloadError(
                "record fields must be unique and sorted by name"
            )
        prev = raw
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedPayloadError("record field name is not valid UTF-8") from None
        value, offset = _read(data, offset)
        record[name] = value
    return record, offset
