"""Tests for front-coding, delta/varint coding, and entropy sizing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.deltas import (
    delta_decode_prices,
    delta_encode_prices,
    encoded_size,
    put_varint,
    varint_decode,
    varint_encode,
    zigzag_decode,
    zigzag_encode,
)
from repro.compress.frontcoding import (
    compression_ratio,
    encoded_size_bytes,
    front_decode,
    front_encode,
    node_phrase_order,
    plain_size_bytes,
)
from repro.compress.sizing import (
    h0_bits,
    h0_upper_bound_bits,
    hash_table_bits,
    worked_example,
)


class TestZigzag:
    @pytest.mark.parametrize(
        "value,expected", [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)]
    )
    def test_known_values(self, value, expected):
        assert zigzag_encode(value) == expected

    @given(st.integers(-(10**12), 10**12))
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value


class TestVarint:
    def test_single_byte(self):
        assert varint_encode(0) == b"\x00"
        assert varint_encode(127) == b"\x7f"

    def test_multi_byte(self):
        assert varint_encode(128) == b"\x80\x01"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            varint_encode(-1)

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            varint_decode(b"\x80")

    @given(st.integers(0, 10**15))
    def test_roundtrip(self, value):
        data = varint_encode(value)
        decoded, offset = varint_decode(data)
        assert decoded == value
        assert offset == len(data)

    @given(
        st.lists(st.integers(0, 1 << 70), max_size=20),
        st.binary(max_size=8),
    )
    def test_put_varint_appends_the_reference_encoding(self, values, prefix):
        out = bytearray(prefix)
        for value in values:
            put_varint(out, value)
        expected = prefix + b"".join(_reference_leb128(v) for v in values)
        assert bytes(out) == expected
        assert b"".join(varint_encode(v) for v in values) == expected[len(prefix):]
        offset = len(prefix)
        for value in values:
            decoded, offset = varint_decode(bytes(out), offset)
            assert decoded == value
        assert offset == len(out)

    def test_put_varint_rejects_negative_without_writing(self):
        out = bytearray(b"x")
        with pytest.raises(ValueError):
            put_varint(out, -1)
        assert out == b"x"


def _reference_leb128(value):
    """Byte-at-a-time LEB128, the writer's reference."""
    out = []
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


class TestDeltaPrices:
    def test_empty(self):
        assert delta_encode_prices([]) == b""
        assert delta_decode_prices(b"") == []

    def test_roundtrip_simple(self):
        prices = [100, 105, 103, 200]
        assert delta_decode_prices(delta_encode_prices(prices)) == prices

    def test_similar_prices_compress_well(self):
        similar = [1_000_000 + i for i in range(50)]
        plain = 8 * len(similar)
        assert encoded_size(similar) < plain / 4

    @given(st.lists(st.integers(0, 10**9), max_size=60))
    @settings(max_examples=60)
    def test_roundtrip_property(self, prices):
        assert delta_decode_prices(delta_encode_prices(prices)) == prices


class TestFrontCoding:
    def test_roundtrip(self):
        phrases = [("cheap", "books"), ("cheap", "used", "books"), ("dogs",)]
        assert front_decode(front_encode(phrases)) == phrases

    def test_shared_prefix_detected(self):
        coded = front_encode([("a", "b", "c"), ("a", "b", "d")])
        assert coded[1].shared_tokens == 2
        assert coded[1].suffix == ("d",)

    def test_corrupt_decoding_raises(self):
        from repro.compress.frontcoding import FrontCodedPhrase

        with pytest.raises(ValueError):
            front_decode([FrontCodedPhrase(shared_tokens=3, suffix=("x",))])

    def test_sharing_reduces_size(self):
        phrases = [("cheap", "used", "books")] * 5
        assert encoded_size_bytes(phrases) < plain_size_bytes(phrases)

    def test_node_phrase_order_keeps_wordcount_ordering(self):
        phrases = [("b", "a"), ("a",), ("a", "c"), ("z",)]
        ordered = node_phrase_order(phrases)
        counts = [len(set(p)) for p in ordered]
        assert counts == sorted(counts)

    def test_compression_ratio_at_least_one_for_shared(self):
        phrases = [("cheap", "books"), ("cheap", "cars"), ("cheap", "cds")]
        assert compression_ratio(phrases) >= 1.0

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4
            ).map(tuple),
            max_size=20,
        )
    )
    @settings(max_examples=60)
    def test_roundtrip_property(self, phrases):
        assert front_decode(front_encode(phrases)) == phrases


class TestSizing:
    def test_h0_constant_strings_zero(self):
        assert h0_bits(100, 0) == 0.0
        assert h0_bits(100, 100) == 0.0

    def test_h0_max_at_half(self):
        assert h0_bits(100, 50) == pytest.approx(100.0)
        assert h0_bits(100, 10) < 100.0

    def test_h0_bound_dominates(self):
        for n, k in [(1000, 10), (1 << 20, 500), (1 << 28, 2 * 10**7)]:
            assert h0_upper_bound_bits(n, k) >= h0_bits(n, k)

    def test_h0_rejects_bad_args(self):
        with pytest.raises(ValueError):
            h0_bits(10, 11)

    def test_hash_table_bits_matches_paper_formula(self):
        # (10^8/5) entries * 8 bytes * 4/3 ≈ 2.1e8 bytes.
        bits = hash_table_bits(20_000_000)
        assert bits / 8 == pytest.approx(2.13e8, rel=0.02)

    def test_worked_example_reproduces_paper(self):
        ex = worked_example()
        # Paper: bit_size(H) ≈ 1.7e9 bits.
        assert ex.hash_bits == pytest.approx(1.7e9, rel=0.05)
        # Paper reports n*H0(B^sig) ≈ 8e7 (exact bound: 1.04e8 — the paper
        # rounds the log terms aggressively).
        assert ex.bsig_bits_bound == pytest.approx(1.04e8, rel=0.05)
        # Paper reports n*H0(B^off) ≈ 1e8 (exact bound: 1.53e8).
        assert ex.boff_bits_bound == pytest.approx(1.53e8, rel=0.05)
        # Paper: ratio "about 9:1" from its rounded terms; the exact-bound
        # ratio is ~6.6:1 — same order, same conclusion.
        assert 6.0 <= ex.ratio <= 10.0
