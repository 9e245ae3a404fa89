"""Query-trace generation (the paper's 5M-query web trace substitute).

What the paper uses the trace for determines what the generator must get
right:

* **short queries**: the paper notes the bid word-length distribution is
  "close to the word-length distribution of queries itself" — web queries
  are predominantly 1-5 words.  Anchored queries therefore build on *short*
  bid word-sets plus a couple of noise words;
* **power-law query frequencies** (Section V: the head dominates and can be
  estimated from small samples) — distinct queries get Zipf frequencies;
* **vocabulary overlap with bids** (otherwise broad match never fires) — a
  configurable fraction of queries are supersets of sampled bid word-sets,
  the rest are vocabulary noise (queries with no matching ad, which real
  traces are full of);
* **a long-query tail** (off by default): real traces contain rare very
  long queries, the case that motivates ``max_words`` re-mapping (Fig 10) —
  without the cap, subset enumeration for a 20-word query is ``2^20``
  lookups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.queries import Query, Workload
from repro.datagen.corpus import GeneratedCorpus
from repro.datagen.zipf import ZipfSampler, zipf_frequencies


@dataclass(frozen=True, slots=True)
class QueryConfig:
    """Parameters of the synthetic workload."""

    num_distinct: int = 2_000
    total_frequency: int = 50_000
    frequency_exponent: float = 1.0
    #: Probability a query is anchored on a bid word-set (hits possible).
    anchored_fraction: float = 0.7
    #: Anchors are drawn from templates of at most this many words, keeping
    #: queries web-short (anchor + noise).
    max_anchor_words: int = 4
    max_noise_words: int = 2
    #: Fraction of distinct queries that are very long (the Fig 10 tail).
    long_tail_fraction: float = 0.0
    long_tail_min_words: int = 12
    long_tail_max_words: int = 20
    seed: int = 0


def generate_workload(
    generated: GeneratedCorpus, config: QueryConfig = QueryConfig()
) -> Workload:
    """Build a workload against a generated corpus; deterministic per seed."""
    rng = random.Random(config.seed)
    short_templates = [
        t for t in generated.templates if len(t) <= config.max_anchor_words
    ]
    vocabulary = generated.vocabulary
    noise_sampler = ZipfSampler(
        len(vocabulary),
        exponent=generated.config.word_zipf_exponent,
        seed=config.seed + 1,
    )
    template_sampler = (
        ZipfSampler(len(short_templates), exponent=1.0, seed=config.seed + 2)
        if short_templates
        else None
    )

    queries: list[Query] = []
    seen: set[frozenset[str]] = set()
    attempts = 0
    while len(queries) < config.num_distinct and attempts < config.num_distinct * 50:
        attempts += 1
        words: set[str] = set()
        if rng.random() < config.long_tail_fraction:
            target = rng.randint(
                config.long_tail_min_words, config.long_tail_max_words
            )
            if template_sampler is not None:
                words |= short_templates[template_sampler.sample() - 1]
            while len(words) < target:
                words.add(vocabulary[noise_sampler.sample() - 1])
        else:
            if template_sampler is not None and (
                rng.random() < config.anchored_fraction
            ):
                words |= short_templates[template_sampler.sample() - 1]
            minimum_extra = 0 if words else 1
            extra = rng.randint(
                minimum_extra, max(config.max_noise_words, minimum_extra)
            )
            while len(words) < 1 or extra > 0:
                words.add(vocabulary[noise_sampler.sample() - 1])
                extra -= 1
        key = frozenset(words)
        if key in seen:
            continue
        seen.add(key)
        # Pre-sort: set order depends on PYTHONHASHSEED (see corpus.py).
        tokens = tuple(sorted(sorted(words), key=lambda _: rng.random()))
        queries.append(Query(tokens=tokens))

    frequencies = zipf_frequencies(
        len(queries),
        max(config.total_frequency, len(queries)),
        exponent=config.frequency_exponent,
    )
    # Shuffle which query gets which rank so head queries are not biased
    # toward generation order (anchored queries first); long-tail queries
    # stay out of the head (real long queries are rare *and* infrequent).
    short_positions = [
        i for i, q in enumerate(queries) if len(q.words) < config.long_tail_min_words
    ]
    long_positions = [
        i for i, q in enumerate(queries) if len(q.words) >= config.long_tail_min_words
    ]
    rng.shuffle(short_positions)
    order = short_positions + long_positions
    return Workload(
        (queries[i], frequencies[rank]) for rank, i in enumerate(order)
    )


def sample_trace(workload: Workload, length: int, seed: int = 0) -> list[Query]:
    """An i.i.d. stream drawn from the workload, for replay experiments."""
    return workload.sample_stream(length, seed=seed)
