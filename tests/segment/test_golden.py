"""Golden segment bytes: the encoder's output is pinned, byte for byte.

Segments written by one build are read by every later one, so an encoder
rewrite must reproduce the same file.  The digests were recorded from the
reference encoder; a change that moves them changes the on-disk format.
"""

import hashlib

from repro.core.ads import AdInfo, Advertisement
from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.segment import SegmentBuilder


def ad(text, listing_id, campaign_id, bid, exclusions=()):
    return Advertisement.from_text(
        text,
        AdInfo(
            listing_id=listing_id,
            campaign_id=campaign_id,
            bid_price_micros=bid,
            exclusion_phrases=exclusions,
        ),
    )


def digest(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


def test_generated_corpus_segment_bytes():
    generated = generate_corpus(CorpusConfig(num_ads=5000, seed=2009))
    index = WordSetIndex.from_corpus(list(generated.corpus))
    assert digest(SegmentBuilder(index).build()) == (
        173134,
        "83eede5050fa4cbbb1c688072bd7f77e6698ffd1c835db879aa9816c61a45ee1",
    )


def test_edge_case_segment_bytes():
    """Multi-byte UTF-8 tokens, negative and wide ids, a zero bid,
    several exclusions, and a 4-bit suffix that merges nodes."""
    ads = [
        ad("café crème brûlée", -3, 7, 1_500_000, ("décaféiné",)),
        ad("crème brûlée café", 4, -9, 20),
        ad("東京 ホテル", 5, 0, 300_000, ("格安", "ビジネス")),
        ad("ホテル 東京 駅", 6, 1 << 40, 0),
        ad("used books", 7, 2, 999),
        ad("books used", 8, 2, 1000),
        ad("cheap used books", 9, 3, 1 << 33, ("free",)),
    ]
    builder = SegmentBuilder(WordSetIndex.from_corpus(ads), suffix_bits=4)
    assert digest(builder.build(generation=3)) == (
        813,
        "f3b9b0df250d2e6730896c6f4eadfec419d071dd8a280896f14ab4a611db0cd7",
    )
