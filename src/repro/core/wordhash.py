"""Stable, order-independent hashing of word sets.

The paper's index is keyed by ``wordhash : 2^W -> N``.  We need the hash to
be (a) independent of word order (it hashes a *set*), (b) stable across
processes and runs (CPython's ``hash`` on ``str`` is salted), and (c) cheap.

We hash each word with 64-bit FNV-1a and combine the per-word hashes with
XOR; XOR is commutative/associative, so the combination is order-free, and
because individual word hashes are well mixed, collisions between distinct
small sets are rare (and tolerated: data nodes store full phrases and every
probe verifies them, as the paper requires).

A word's mixed hash is its XOR *contribution* to every set containing it.
:func:`word_contrib` memoizes it, so building an index (which hashes the
same few thousand words tens of thousands of times) and enumerating probe
subsets both pay for each word's bytes once.  The memo holds at most
:data:`MEMO_MAX_WORDS` words; past that, words are hashed without being
cached, so a vocabulary that keeps growing under ingest cannot grow the
memo with it.
"""

from __future__ import annotations

from collections.abc import Iterable

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# XOR of identical hashes cancels; the set {a, a} cannot occur (sets), but the
# empty set would hash to 0 and collide with nothing useful — give it a fixed
# non-zero value so downstream suffix arithmetic stays uniform.
_EMPTY_SET_HASH = 0x9E3779B97F4A7C15


def fnv1a(word: str) -> int:
    """64-bit FNV-1a hash of a single word (UTF-8 bytes)."""
    value = _FNV_OFFSET
    for byte in word.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _mix(value: int) -> int:
    """Final avalanche (splitmix64 finalizer) applied to each word hash.

    FNV-1a alone has weak high-bit diffusion for short keys; XOR-combining
    unmixed values would correlate sets sharing words.  The finalizer makes
    each word hash behave like a random 64-bit value.
    """
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


#: Most words the contribution memo holds (a few MiB of dict entries).
MEMO_MAX_WORDS = 1 << 16

#: word -> mixed 64-bit contribution to any set hash containing it.
_CONTRIB_CACHE: dict[str, int] = {}


def word_contrib(word: str) -> int:
    """The word's XOR contribution to ``wordhash`` of any containing set."""
    contrib = _CONTRIB_CACHE.get(word)
    if contrib is None:
        contrib = _mix(fnv1a(word))
        # Threads racing here can add a few words past the cap; harmless,
        # since every value is a pure function of its word.
        if len(_CONTRIB_CACHE) < MEMO_MAX_WORDS:
            _CONTRIB_CACHE[word] = contrib
    return contrib


def clear_contrib_cache() -> int:
    """Drop all memoized contributions; returns how many were cached."""
    size = len(_CONTRIB_CACHE)
    _CONTRIB_CACHE.clear()
    return size


def wordhash(words: Iterable[str]) -> int:
    """Order-independent 64-bit hash of a set of words.

    >>> wordhash({"used", "books"}) == wordhash(["books", "used"])
    True
    """
    unique = words if isinstance(words, (set, frozenset)) else set(words)
    if not unique:
        return _EMPTY_SET_HASH
    cached = _CONTRIB_CACHE.get
    combined = 0
    for word in unique:
        combined ^= cached(word) or word_contrib(word)
    return combined


def hash_suffix(value: int, bits: int) -> int:
    """Return the low-order ``bits``-bit suffix of a hash value.

    Used by the compressed lookup structure of Section VI (``B^sig`` is
    indexed by the s-bit suffix of ``wordhash``).
    """
    if bits <= 0:
        raise ValueError("suffix size must be positive")
    if bits >= 64:
        return value
    return value & ((1 << bits) - 1)
