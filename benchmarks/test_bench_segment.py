"""Benches and acceptance gates for the packed serving segment (PR 4).

Gates (mirrors ``python -m repro.segment.bench``):

* the packed path returns the identical result multiset per query;
* resident bytes at least 4x below the dict ``WordSetIndex``;
* replay latency within 1.25x of the dict fast path.

``test_full_bench_document_persisted`` runs the standalone driver at its
default (50k-ad) configuration and writes ``BENCH_PR4.json`` at the repo
root; ``test_segment_smoke_gates`` is the small-corpus variant the CI
smoke job runs on every push.
"""

import json
import pathlib

import pytest

from repro.core.wordset_index import WordSetIndex
from repro.perf.bench import make_long_queries
from repro.segment import PackedSegmentIndex, SegmentBuilder, TieredSegmentedIndex
from repro.segment.bench import replay_ids, run_segment_bench

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

QUERY_LEN = 12
NUM_QUERIES = 60


@pytest.fixture(scope="module")
def long_queries(generated, workload):
    return make_long_queries(
        generated, workload, NUM_QUERIES, QUERY_LEN, seed=7
    )


@pytest.fixture(scope="module")
def dict_index(corpus):
    return WordSetIndex.from_corpus(corpus)


@pytest.fixture(scope="module")
def packed_index(dict_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("segment") / "bench.seg"
    SegmentBuilder(dict_index).write(path)
    packed = PackedSegmentIndex(path)
    yield packed
    packed.close()


def test_packed_results_identical(dict_index, packed_index, long_queries):
    assert replay_ids(packed_index, long_queries) == replay_ids(
        dict_index, long_queries
    )


def test_bench_packed_replay(benchmark, packed_index, long_queries):
    total = benchmark.pedantic(
        lambda: sum(len(r) for r in replay_ids(packed_index, long_queries)),
        rounds=3,
        iterations=1,
    )
    assert total > 0


def test_bench_compaction(benchmark, corpus, tmp_path_factory):
    """Time a full tiered compact(): seal a dirty overlay, then rebuild,
    pack and commit every segment as one, consuming 50 tombstones."""
    ads = list(corpus)

    def dirty_index():
        # Untimed: all but the last 50 ads as the sealed base, the last
        # 50 in the overlay, and the first 50 deleted.
        directory = tmp_path_factory.mktemp("compact")
        index = TieredSegmentedIndex.pack_corpus(ads[:-50], directory)
        for ad in ads[-50:]:
            index.insert(ad)
        for ad in ads[:50]:
            index.delete(ad)
        return (index,), {}

    def compact_once(index):
        try:
            index.compact()
            assert len(index.manifest.segments) == 1
            return len(index)
        finally:
            index.close()

    live = benchmark.pedantic(
        compact_once, setup=dirty_index, rounds=3, iterations=1
    )
    assert live == len(ads) - 50


def test_segment_smoke_gates():
    """Small-corpus gate check for CI: >= 4x resident reduction with
    identical results (latency is asserted on the full run only — tiny
    corpora make the ratio too noisy for a hard smoke gate)."""
    results = run_segment_bench(
        num_ads=8_000,
        num_queries=60,
        rounds=2,
        seed=3,
        cache_bytes=1 << 20,
    )
    assert results["identical_results"]
    assert results["resident_reduction"] >= 4.0, (
        f"resident reduction only {results['resident_reduction']:.2f}x"
    )


def test_full_bench_document_persisted():
    """Run the standalone driver at its default configuration, pin all
    three acceptance gates, and persist ``BENCH_PR4.json``."""
    results = run_segment_bench()
    assert results["identical_results"]
    assert results["resident_reduction"] >= 4.0, (
        f"resident reduction only {results['resident_reduction']:.2f}x"
    )
    assert results["latency_ratio"] <= 1.25, (
        f"latency ratio {results['latency_ratio']:.2f}x exceeds 1.25x"
    )
    out = REPO_ROOT / "BENCH_PR4.json"
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
