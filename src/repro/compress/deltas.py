"""Delta + varint coding of bid-price sequences (Section VI).

Within a data node, bid prices of co-located ads are similar, so the paper
suggests delta-compression.  We store the first value as-is and each
subsequent value as a zig-zag-encoded delta, all in LEB128 varints.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def zigzag_encode(value: int) -> int:
    """Map signed to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def put_varint(out: bytearray, value: int) -> None:
    """Append the LEB128 encoding of a non-negative integer to ``out``.

    The one varint writer: every encoder appends through it into a buffer
    it owns, so no per-value ``bytes`` object is built.
    """
    if value < 0:
        raise ValueError("varint requires a non-negative value")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def varint_encode(value: int) -> bytes:
    """LEB128 encoding of a non-negative integer."""
    out = bytearray()
    put_varint(out, value)
    return bytes(out)


def varint_decode(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one varint; returns (value, next offset)."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def delta_encode_prices(prices: Sequence[int]) -> bytes:
    """Encode a price sequence as varint(first) + zigzag-varint deltas."""
    out = bytearray()
    prev = 0
    for price in prices:
        put_varint(out, zigzag_encode(price - prev))
        prev = price
    return bytes(out)


def delta_decode_prices(data: bytes) -> list[int]:
    """Inverse of :func:`delta_encode_prices`."""
    if not data:
        return []
    prices: list[int] = []
    offset = 0
    raw, offset = varint_decode(data, offset)
    prices.append(zigzag_decode(raw))
    while offset < len(data):
        raw, offset = varint_decode(data, offset)
        prices.append(prices[-1] + zigzag_decode(raw))
    return prices


def encoded_size(prices: Iterable[int]) -> int:
    """Byte size of the delta encoding (for the compression-aware
    ``weight(S)`` adjustment described in Section VI)."""
    return len(delta_encode_prices(list(prices)))
