import os
import struct
import subprocess
import sys
import textwrap
from random import Random

import pytest
from support import random_value, values_equal

import parqueue
from parqueue.codec import TAG_FLOAT, TAG_RECORD, TAG_UINT, decode, decode_prefix, encode
from parqueue.errors import EncodingError, MalformedPayloadError, TruncationError


def test_empty_sequence_is_five_bytes():
    data = encode([])
    assert data == b"\x05\x00\x00\x00\x00"
    assert decode(data) == []


def test_uint_layout_and_roundtrip():
    data = encode(7)
    assert data == b"\x01" + (7).to_bytes(8, "little")
    assert decode(data) == 7


def test_sequence_roundtrip():
    assert decode(encode([1, 2, 3])) == [1, 2, 3]


def test_record_roundtrip():
    value = {"pos": 2, "row": [0, 3, 1]}
    assert decode(encode(value)) == value


def test_record_fields_sorted_regardless_of_insertion_order():
    a = {"b": 1, "a": 2}
    b = {"a": 2, "b": 1}
    assert encode(a) == encode(b)


def test_negative_int_roundtrip():
    for v in (-1, -(2**63), -123456789):
        assert decode(encode(v)) == v


def test_float_roundtrip_preserves_bits():
    for v in (0.0, -0.0, 1.5, float("inf"), float("-inf"), float("nan")):
        got = decode(encode(v))
        assert struct.pack("<d", got) == struct.pack("<d", v)


def test_bytes_roundtrip():
    for v in (b"", b"\x00", b"hello\xff"):
        assert decode(encode(v)) == v
    assert decode(encode(bytearray(b"xy"))) == b"xy"


def test_truncated_input():
    data = encode(7)
    with pytest.raises(TruncationError):
        decode(data[:-1])
    with pytest.raises(TruncationError):
        decode(b"\x04\x0a\x00\x00\x00abc")  # claims 10 bytes, has 3


def test_trailing_bytes_rejected():
    with pytest.raises(MalformedPayloadError):
        decode(encode(7) + b"\x00")


def test_unknown_tag_rejected():
    with pytest.raises(MalformedPayloadError):
        decode(b"\x7f")


def test_non_canonical_signed_rejected():
    # a non-negative value under the signed tag has a canonical unsigned form
    with pytest.raises(MalformedPayloadError):
        decode(b"\x02" + (5).to_bytes(8, "little", signed=True))


def test_unsorted_record_rejected():
    good = encode({"a": 1, "b": 2})
    a_field = good[5:5 + 4 + 1 + 9]
    b_field = good[5 + 14:]
    swapped = good[:5] + b_field + a_field
    assert len(swapped) == len(good)
    with pytest.raises(MalformedPayloadError):
        decode(swapped)


def test_duplicate_record_field_rejected():
    good = encode({"a": 1})
    doubled = good[:1] + (2).to_bytes(4, "little") + good[5:] + good[5:]
    with pytest.raises(MalformedPayloadError):
        decode(doubled)


def test_record_field_name_that_is_not_utf8_rejected():
    one = (1).to_bytes(4, "little")
    with pytest.raises(MalformedPayloadError) as excinfo:
        decode(bytes([TAG_RECORD]) + one + one + b"\xff" + encode(1))
    assert str(excinfo.value) == "record field name is not valid UTF-8"


def test_record_field_name_that_cannot_be_utf8_rejected_on_encode():
    with pytest.raises(EncodingError) as excinfo:
        encode({"\ud800": 1})
    assert str(excinfo.value).startswith("record field name is not encodable: ")


def test_heterogeneous_sequence_rejected_on_encode():
    with pytest.raises(EncodingError):
        encode([1, 2.0])
    with pytest.raises(EncodingError):
        encode([b"x", [1]])


def test_heterogeneous_sequence_rejected_on_decode():
    crafted = b"\x05" + (2).to_bytes(4, "little") + encode(1) + encode(2.0)
    with pytest.raises(MalformedPayloadError):
        decode(crafted)
    crafted = b"\x05" + (2).to_bytes(4, "little") + encode(b"x") + encode([])
    with pytest.raises(MalformedPayloadError):
        decode(crafted)


def test_integer_range_limits():
    assert decode(encode(2**64 - 1)) == 2**64 - 1
    assert decode(encode(-(2**63))) == -(2**63)
    with pytest.raises(EncodingError):
        encode(2**64)
    with pytest.raises(EncodingError):
        encode(-(2**63) - 1)
    with pytest.raises(EncodingError):
        encode([1, 2, 2**64])


def test_a_sequence_with_an_invalid_element_names_the_first_one():
    # [1] and 2**70 differ in kind, but 2**70 cannot be written at all
    with pytest.raises(EncodingError) as excinfo:
        encode([[1], 2**70])
    assert str(excinfo.value) == f"integer {2**70} exceeds the unsigned 64-bit range"


@pytest.mark.parametrize("kind, message", [
    (bytes, "byte string exceeds the 32-bit length prefix"),
    (list, "sequence exceeds the 32-bit count prefix"),
    (dict, "record exceeds the 32-bit count prefix"),
])
def test_a_length_beyond_the_32_bit_prefix_is_rejected(kind, message):
    huge = type(f"Huge{kind.__name__}", (kind,), {"__len__": lambda self: 2**32})()
    with pytest.raises(EncodingError) as excinfo:
        encode(huge)
    assert str(excinfo.value) == message


def test_unsupported_types_rejected():
    for bad in (True, None, "text", (1, 2), {1: 2}, object()):
        with pytest.raises(EncodingError):
            encode(bad)


def test_roundtrip_property_over_generated_values():
    rng = Random(0xC0DEC)
    for _ in range(1200):
        value = random_value(rng)
        data = encode(value)
        back = decode(data)
        assert values_equal(back, value)
        # canonicity: re-encoding the decoded value reproduces the bytes
        assert encode(back) == data


def test_prefix_freedom_over_concatenated_stream():
    rng = Random(0x57EA11)
    values = [random_value(rng) for _ in range(50)]
    stream = b"".join(encode(v) for v in values)
    offset = 0
    for expected in values:
        got, offset = decode_prefix(stream, offset)
        assert values_equal(got, expected)
    assert offset == len(stream)


def _elementwise(items: list) -> bytes:
    """A sequence spelled out one element at a time, as the grammar
    defines it: the reference for the packed scalar path."""
    parts = [encode(item) for item in items]
    if len({part[0] for part in parts}) > 1:
        raise EncodingError("sequence elements must all be the same kind")
    return b"\x05" + len(items).to_bytes(4, "little") + b"".join(parts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EncodingError as exc:
        return type(exc), str(exc)


_LENGTHS = [*range(1, 41), 63, 64, 65, 500, 100_000]
_EDGE_SEQUENCES = [
    [], [0], [2**64 - 1], [2**64], [True, 1], [1, -1], [-1, -2], [1.0, 1],
    [0.0, -0.0, float("nan")],
]
# longer than codec._CACHED_MAX, so these take the uncached path
_LONG_EDGE_SEQUENCES = {
    "one-negative": [*range(99), -1],
    "one-2**64": [*range(99), 2**64],
    "all-negative": [-i - 1 for i in range(100)],
    "one-bool": [*range(99), True],
    "one-bool-in-floats": [*(i / 3 for i in range(99)), True],
    "float-specials": [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324] * 20,
}


@pytest.mark.parametrize("items", [
    *(pytest.param(items, id=repr(items)) for items in _EDGE_SEQUENCES),
    *(pytest.param(items, id=name) for name, items in _LONG_EDGE_SEQUENCES.items()),
    *(pytest.param([7919 * i * 2**40 % 2**64 for i in range(n)], id=f"uints-{n}") for n in _LENGTHS),
    *(pytest.param([i / 3 - 5.5 for i in range(n)], id=f"floats-{n}") for n in _LENGTHS),
])
def test_scalar_sequences_match_the_element_by_element_form(items):
    expected = _outcome(_elementwise, items)
    assert _outcome(encode, items) == expected
    # nested, the sequence is written by the record path, not encode's
    nested = _outcome(encode, {"s": items})
    if isinstance(expected, bytes):
        one_field_named_s = b"\x06" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little") + b"s"
        assert nested == one_field_named_s + expected
        assert values_equal(decode(expected), items)
        assert encode(decode(expected)) == expected
    else:
        assert nested == expected


@pytest.mark.parametrize("n, at", [(64, 63), (65, 64), (100, 70), (100_000, 70)])
@pytest.mark.parametrize("value", [2**63 + 1, 0.5], ids=["uints", "floats"])
def test_a_wrong_element_tag_is_rejected(value, n, at):
    good = encode([value] * n)
    bad = bytearray(good)
    bad[5 + 9 * at] ^= TAG_UINT ^ TAG_FLOAT  # the other scalar tag
    with pytest.raises(MalformedPayloadError, match="same kind"):
        decode(bytes(bad))
    assert decode(good) == [value] * n


def _rss_growth(tmp_path, body: str) -> int:
    """Run body in a fresh interpreter, which calls rss() around its
    work and prints the growth; return that number of bytes."""
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm")
    script = tmp_path / "rss.py"
    script.write_text(textwrap.dedent('''
        import gc, os, struct
        from parqueue.codec import decode, encode

        def rss():
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    ''') + textwrap.dedent(body))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(parqueue.__file__))}
    out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return int(out.stdout)


def test_long_sequence_encode_keeps_no_memory_sized_by_the_value(tmp_path):
    # encode used to cache a struct.Struct for the list's length, 64 bytes
    # per element, after the bytes were gone: +71 MB for 1,000,000 floats
    growth = _rss_growth(tmp_path, '''
        n = 1_000_000
        value = [i / 7 for i in range(n)]
        gc.collect()
        before = rss()
        data = encode(value)
        assert len(data) == 5 + 9 * n and data[5] == 3
        del data
        gc.collect()
        print(rss() - before)
    ''')
    assert growth < 8 * 2**20  # under the encoding's own 9 MB


def test_long_sequence_decode_keeps_no_memory_sized_by_the_payload(tmp_path):
    # a peer-built frame of 1,000,000 floats (9 MB): decode used to cache a
    # struct.Struct for its length, 64 bytes per element, after the value was gone
    growth = _rss_growth(tmp_path, '''
        n = 1_000_000
        pack = struct.Struct("<Bd").pack
        payload = b"\\x05" + n.to_bytes(4, "little") + b"".join([pack(3, i / 7) for i in range(n)])
        gc.collect()
        before = rss()
        value = decode(payload)
        assert len(value) == n and value[7] == 1.0
        del value
        gc.collect()
        print(rss() - before)
    ''')
    assert growth < 8 * 2**20  # under the payload's own 9 MB
