"""Property test: the tiered serving path is indistinguishable from a
plain ``WordSetIndex`` under any interleaving of inserts, deletes, seals,
compactions and reopens — including a seal, merge or manifest commit
that crashes mid-flight.

A small seal threshold and fan-in make auto-seals and ratio merges fire
inside ordinary inserts, so every op also runs against a moving tier
layout."""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.faults import FaultInjector, InjectedCrash
from repro.segment import TIERED_CRASHPOINTS, TieredConfig, TieredSegmentedIndex
from repro.segment.format import CRASH_TMP_WRITTEN

WORDS = [c1 + c2 for c1 in string.ascii_lowercase[:6] for c2 in "xy"]

CONFIG = TieredConfig(seal_threshold=3, fan_in=2)

CRASHPOINTS = (*TIERED_CRASHPOINTS, CRASH_TMP_WRITTEN)


def phrase_strategy():
    return st.lists(
        st.sampled_from(WORDS), min_size=1, max_size=4, unique=True
    ).map(tuple)


def ad_strategy():
    return st.builds(
        lambda phrase, listing: Advertisement(
            phrase, AdInfo(listing_id=listing)
        ),
        phrase_strategy(),
        st.integers(min_value=0, max_value=30),
    )


# An op is ("insert", ad) | ("insert_locator", ad) | ("delete", ad) |
# ("delete_live", k) | ("reinsert", k) | ("seal", None) |
# ("compact", None) | ("crash", point) | ("reopen", None).
# ``delete_live`` deletes the k-th live ad (mod the live count) and
# ``reinsert`` re-inserts the k-th deleted one, so tombstones and their
# resurrection actually happen — random ads almost never collide with
# indexed ones.  ``insert_locator`` pins an explicit placement, which
# must BYPASS the tombstone-resurrect shortcut: the ad lands in the
# overlay at the requested node and the pending tombstone keeps
# cancelling the sealed copy — the net live multiset is identical
# either way, and this op proves it.
def op_strategy():
    pick = st.integers(min_value=0, max_value=1_000)
    return st.one_of(
        st.tuples(st.just("insert"), ad_strategy()),
        st.tuples(st.just("insert_locator"), ad_strategy()),
        st.tuples(st.just("delete"), ad_strategy()),
        st.tuples(st.just("delete_live"), pick),
        st.tuples(st.just("reinsert"), pick),
        st.tuples(st.just("seal"), st.none()),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("crash"), st.sampled_from(CRASHPOINTS)),
        st.tuples(st.just("reopen"), st.none()),
    )


class Oracle:
    """Multiset of live ads + naive WordSetIndex mirror."""

    def __init__(self, ads):
        self.ads = list(ads)

    def insert(self, ad):
        self.ads.append(ad)

    def delete(self, ad):
        if ad in self.ads:
            self.ads.remove(ad)
            return True
        return False

    def results(self, query):
        index = WordSetIndex()
        for ad in self.ads:
            index.insert(ad)
        return sorted(
            (a.info.listing_id, a.phrase) for a in index.query(query)
        )


PROBE_QUERIES = [
    Query(tuple(WORDS[:5])),
    Query(tuple(WORDS[5:9])),
    Query((WORDS[0], WORDS[11], WORDS[6])),
    Query(("unrelated",)),
]


def assert_agrees(tiered, oracle, seen, where):
    for ad in seen:
        assert tiered.contains(ad) == (ad in oracle.ads), (where, ad)
    assert len(tiered) == len(oracle.ads), where
    for query in PROBE_QUERIES:
        got = sorted(
            (a.info.listing_id, a.phrase) for a in tiered.query(query)
        )
        assert got == oracle.results(query), (where, query)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    base=st.lists(ad_strategy(), max_size=12),
    ops=st.lists(op_strategy(), max_size=20),
)
def test_interleavings_match_wordset_oracle(tmp_path_factory, base, ops):
    directory = tmp_path_factory.mktemp("prop")
    injector = FaultInjector()
    oracle = Oracle(base)
    seen = set(base)
    graveyard = []
    tiered = TieredSegmentedIndex.pack_corpus(
        base, directory, config=CONFIG, faults=injector
    )
    try:
        for step, (kind, arg) in enumerate(ops):
            if kind == "delete_live":
                if not oracle.ads:
                    continue
                kind, arg = "delete", oracle.ads[arg % len(oracle.ads)]
            elif kind == "reinsert":
                if not graveyard:
                    continue
                kind, arg = "insert", graveyard[arg % len(graveyard)]
            if kind == "insert":
                tiered.insert(arg)
                oracle.insert(arg)
            elif kind == "insert_locator":
                # Explicit placement at a single-word subset of the
                # phrase; the oracle places plainly — broad-query
                # results must not depend on the mapping.
                tiered.insert(arg, locator=frozenset({arg.phrase[0]}))
                oracle.insert(arg)
            elif kind == "delete":
                deleted = oracle.delete(arg)
                assert tiered.delete(arg) == deleted, step
                if deleted:
                    graveyard.append(arg)
            elif kind == "seal":
                tiered.seal()
            elif kind == "compact":
                tiered.compact()
            elif kind == "crash":
                # compact() seals, then merges, so it visits every
                # crashpoint there is work for; a crash changes layout
                # at most, never the live multiset.  With nothing to
                # seal or merge the armed point simply never fires.
                with injector.arm(arg):
                    try:
                        tiered.compact()
                    except InjectedCrash:
                        pass
            else:  # reopen: make everything durable, then restart
                tiered.seal()
                tiered.close()
                tiered = TieredSegmentedIndex(
                    directory, config=CONFIG, faults=injector
                )
            if isinstance(arg, Advertisement):
                seen.add(arg)
            assert_agrees(tiered, oracle, seen, (step, kind, arg))
        tiered.seal()
        tiered.close()
        tiered = TieredSegmentedIndex(directory, config=CONFIG)
        assert_agrees(tiered, oracle, seen, "final reopen")
    finally:
        tiered.close()
