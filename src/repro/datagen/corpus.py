"""Synthetic ad-corpus generator calibrated to the paper's distributions.

The paper's real corpora are proprietary; what its algorithms depend on are
three published distributional facts, which this generator reproduces:

* **Fig 1** — bid lengths peak at 3 words; 62% of bids have <= 3 words,
  96% <= 5, 99.8% <= 8.  We sample lengths from exactly that histogram.
* **Fig 2** — the number of ads per distinct word-set is Zipf: we create
  distinct word-set *templates* and replicate ads over them with
  Zipf-ranked multiplicities.
* **Fig 7** — keyword document frequencies are far more skewed than
  word-set frequencies: words inside templates are drawn Zipf from the
  vocabulary, so a few head words ("cheap", "free", ...) appear in a large
  fraction of bids.

Every draw is seeded; identical parameters yield identical corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.datagen.zipf import ZipfSampler

#: Bid-length histogram calibrated to Fig 1 (index 0 = 1 word).
#: Cumulative: 0.62 at 3 words, 0.96 at 5, 0.998 at 8 — the paper's numbers.
BID_LENGTH_PROBS: tuple[float, ...] = (
    0.13,  # 1 word
    0.20,  # 2
    0.29,  # 3   (peak; cumulative 0.62)
    0.22,  # 4
    0.12,  # 5   (cumulative 0.96)
    0.025,  # 6
    0.009,  # 7
    0.004,  # 8  (cumulative 0.998)
    0.0012,  # 9
    0.0005,  # 10
    0.0002,  # 11
    0.0001,  # 12
)


@dataclass(frozen=True, slots=True)
class CorpusConfig:
    """Parameters of the synthetic corpus."""

    num_ads: int = 10_000
    #: Distinct word-set templates; ads are Zipf-distributed over them.
    num_templates: int | None = None
    vocabulary_size: int = 2_000
    word_zipf_exponent: float = 1.05
    template_zipf_exponent: float = 1.0
    seed: int = 0
    #: Fraction of ads carrying an exclusion phrase (secondary criteria).
    exclusion_fraction: float = 0.02
    #: Fraction of templates built by *extending* an existing shorter
    #: template (advertisers bid on phrase variants: "used books" alongside
    #: "cheap used books").  These subset/superset pairs are precisely the
    #: sharing opportunities re-mapping exploits (paper Figs 4-5).
    superset_fraction: float = 0.35

    def resolved_templates(self) -> int:
        if self.num_templates is not None:
            return self.num_templates
        # Roughly 1 distinct word-set per 3 ads, as in a head-heavy corpus.
        return max(1, self.num_ads // 3)


@dataclass(slots=True)
class GeneratedCorpus:
    """The corpus plus the generating templates (needed by query gen)."""

    corpus: AdCorpus
    templates: list[frozenset[str]]
    config: CorpusConfig
    vocabulary: list[str] = field(default_factory=list)


def _sample_length(rng: random.Random) -> int:
    roll = rng.random()
    cumulative = 0.0
    for i, p in enumerate(BID_LENGTH_PROBS):
        cumulative += p
        if roll < cumulative:
            return i + 1
    return len(BID_LENGTH_PROBS)


def generate_corpus(config: CorpusConfig = CorpusConfig()) -> GeneratedCorpus:
    """Generate a corpus under ``config``; deterministic per seed."""
    rng = random.Random(config.seed)
    vocabulary = [f"kw{i:05d}" for i in range(config.vocabulary_size)]
    word_sampler = ZipfSampler(
        config.vocabulary_size,
        exponent=config.word_zipf_exponent,
        seed=config.seed + 1,
    )

    # 1. Distinct word-set templates with Fig 1 lengths and Zipf words.
    # Lengths are drawn per template *once* and kept through collision
    # retries — resampling the length on collision would shift mass toward
    # long bids (short Zipf-headed sets collide most).
    num_templates = config.resolved_templates()
    templates: list[frozenset[str]] = []
    seen: set[frozenset[str]] = set()
    extendable: list[frozenset[str]] = []
    for _ in range(num_templates):
        length = _sample_length(rng)
        candidate: frozenset[str] | None = None
        for attempt in range(60):
            words: set[str] = set()
            if (
                length >= 2
                and extendable
                and rng.random() < config.superset_fraction
            ):
                base = rng.choice(extendable)
                if len(base) < length:
                    words = set(base)
            while len(words) < min(length, len(vocabulary)):
                if attempt < 20:
                    words.add(vocabulary[word_sampler.sample() - 1])
                else:
                    # Fall back to uniform words when the Zipf head is
                    # exhausted of unique combinations at this length.
                    words.add(rng.choice(vocabulary))
            if frozenset(words) not in seen:
                candidate = frozenset(words)
                break
        if candidate is None:
            continue
        seen.add(candidate)
        templates.append(candidate)
        if len(candidate) <= 6:
            extendable.append(candidate)

    # 2. Zipf multiplicities over templates (Fig 2), stratified by length:
    # each ad first draws its Fig 1 length, then Zipf-selects a template of
    # that length.  Without stratification the single Zipf head template
    # (an arbitrary length) would dominate the ad-length histogram.
    by_length: dict[int, list[frozenset[str]]] = {}
    for template in templates:
        by_length.setdefault(len(template), []).append(template)
    length_samplers = {
        length: ZipfSampler(
            len(group),
            exponent=config.template_zipf_exponent,
            seed=config.seed + 2 + length,
        )
        for length, group in by_length.items()
    }
    available_lengths = sorted(by_length)

    ads: list[Advertisement] = []
    for listing_id in range(config.num_ads):
        length = _sample_length(rng)
        if length not in by_length:
            length = min(available_lengths, key=lambda a: abs(a - length))
        group = by_length[length]
        template = group[length_samplers[length].sample() - 1]
        # Pre-sort so the random keys go to words in a fixed order; a
        # frozenset's own order depends on PYTHONHASHSEED.
        phrase = tuple(sorted(sorted(template), key=lambda _: rng.random()))
        exclusions: tuple[str, ...] = ()
        if rng.random() < config.exclusion_fraction:
            exclusions = (vocabulary[word_sampler.sample() - 1],)
        info = AdInfo(
            listing_id=listing_id,
            campaign_id=listing_id % 997,
            bid_price_micros=int(rng.lognormvariate(13.0, 1.0)),
            exclusion_phrases=exclusions,
        )
        ads.append(Advertisement(phrase=phrase, info=info))

    return GeneratedCorpus(
        corpus=AdCorpus(ads),
        templates=templates,
        config=config,
        vocabulary=vocabulary,
    )


def length_cumulative_fractions(corpus: AdCorpus) -> dict[int, float]:
    """Cumulative fraction of bids with <= L words, for checking Fig 1."""
    histogram = corpus.length_histogram()
    total = sum(histogram.values())
    cumulative: dict[int, float] = {}
    running = 0
    for length in sorted(histogram):
        running += histogram[length]
        cumulative[length] = running / total
    return cumulative
