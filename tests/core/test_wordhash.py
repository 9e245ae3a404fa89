"""Tests for the stable order-independent word-set hash."""

import importlib
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.wordhash import (
    _mix,
    clear_contrib_cache,
    fnv1a,
    hash_suffix,
    word_contrib,
    wordhash,
)

words_strategy = st.sets(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    min_size=1,
    max_size=8,
)


class TestFnv1a:
    def test_known_value_stability(self):
        # Pin the value: the index layout must be reproducible across runs.
        assert fnv1a("books") == fnv1a("books")
        assert fnv1a("") == 0xCBF29CE484222325

    def test_distinct_words_distinct_hashes(self):
        vocab = [f"word{i}" for i in range(2000)]
        assert len({fnv1a(w) for w in vocab}) == len(vocab)


class TestWordhash:
    def test_order_independent(self):
        assert wordhash(["used", "books"]) == wordhash(["books", "used"])

    def test_set_and_list_agree(self):
        assert wordhash({"a", "b"}) == wordhash(["a", "b"])

    def test_duplicates_in_iterable_ignored(self):
        # wordhash hashes the *set*; duplicate folding happens upstream.
        assert wordhash(["a", "a", "b"]) == wordhash(["a", "b"])

    def test_empty_set_nonzero(self):
        assert wordhash([]) != 0

    def test_subset_hashes_differ(self):
        assert wordhash({"a"}) != wordhash({"a", "b"})

    def test_no_collisions_among_small_random_sets(self):
        sets = []
        for i in range(1000):
            sets.append(frozenset({f"w{i}", f"w{i + 1}", f"w{2 * i + 7}"}))
        hashes = {wordhash(s) for s in set(sets)}
        assert len(hashes) == len(set(sets))

    @given(words_strategy)
    def test_deterministic(self, words):
        assert wordhash(words) == wordhash(sorted(words))

    @given(words_strategy, words_strategy)
    def test_different_sets_rarely_collide(self, a, b):
        if a != b:
            # 64-bit space: a hypothesis-sized sample must never collide.
            assert wordhash(a) != wordhash(b)

    def test_fits_in_64_bits(self):
        assert 0 <= wordhash({"x", "y", "z"}) < (1 << 64)


def reference_wordhash(words):
    """Unmemoized definition: XOR of every distinct word's mixed hash."""
    distinct = set(words)
    if not distinct:
        return wordhash([])
    combined = 0
    for word in distinct:
        combined ^= _mix(fnv1a(word))
    return combined


# ``repro.core`` re-exports the function under the module's own name.
wordhash_module = importlib.import_module("repro.core.wordhash")

unicode_words = st.lists(st.text(min_size=0, max_size=6), max_size=10)


class TestMemoizedWordhash:
    @given(unicode_words)
    def test_equals_reference_for_every_iterable_shape(self, words):
        expected = reference_wordhash(words)
        assert wordhash(words) == expected  # list, duplicates kept
        assert wordhash(set(words)) == expected
        assert wordhash(frozenset(words)) == expected
        assert wordhash(iter(words)) == expected
        assert wordhash(w for w in reversed(words)) == expected
        assert wordhash(words + words) == expected

    def test_empty_set_value_is_pinned(self):
        for empty in ([], set(), frozenset(), iter(())):
            assert wordhash(empty) == 0x9E3779B97F4A7C15

    def test_cold_and_warm_memo_agree(self):
        words = ["naïve", "café", "東京", "books"]
        clear_contrib_cache()
        cold = wordhash(words)
        assert wordhash(words) == cold == reference_wordhash(words)

    def test_memo_stops_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(wordhash_module, "MEMO_MAX_WORDS", 8)
        clear_contrib_cache()
        words = [f"capped-{i}" for i in range(20)]
        for word in words:
            assert word_contrib(word) == _mix(fnv1a(word))
        assert wordhash(words) == reference_wordhash(words)
        assert wordhash(words[4:]) == reference_wordhash(words[4:])
        # Past the cap, words are hashed without being cached.
        assert clear_contrib_cache() == 8


class TestHashSuffix:
    def test_masks_low_bits(self):
        assert hash_suffix(0b101101, 3) == 0b101

    def test_full_width(self):
        value = wordhash({"a"})
        assert hash_suffix(value, 64) == value

    def test_suffix_bounded(self):
        for bits in (1, 8, 28):
            assert 0 <= hash_suffix(wordhash({"q"}), bits) < (1 << bits)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hash_suffix(1, 0)
