"""Compression of the broad-match index (Section VI of the paper).

* :class:`BitVector` — rank/select bit arrays (broadword style);
* :class:`CompressedWordSetIndex` — the ``B^sig`` / ``B^off`` lookup of
  Fig 6 with suffix-collision node merging;
* :mod:`repro.compress.frontcoding` — relative phrase coding in data nodes;
* :mod:`repro.compress.deltas` — delta/varint bid-price coding;
* :mod:`repro.compress.sizing` — ``H0`` entropy accounting and the paper's
  worked 9:1 example;
* :mod:`repro.compress.suffix_opt` — choosing the suffix size ``s``.
"""

from repro.compress.bitvector import BitVector
from repro.compress.compressed_hash import (
    CompressedWordSetIndex,
    merged_node_count,
)
from repro.compress.eliasfano import EliasFano
from repro.compress.rrr import RRRBitVector
from repro.compress.deltas import (
    delta_decode_prices,
    delta_encode_prices,
    put_varint,
    varint_decode,
    varint_encode,
    zigzag_decode,
    zigzag_encode,
)
from repro.compress.frontcoding import (
    FrontCodedPhrase,
    compression_ratio,
    encoded_size_bytes,
    front_decode,
    front_encode,
    plain_size_bytes,
)
from repro.compress.sizing import (
    WorkedExample,
    h0_bits,
    h0_upper_bound_bits,
    hash_table_bits,
    worked_example,
)
from repro.compress.suffix_opt import (
    SuffixTradeoffPoint,
    choose_suffix_bits,
    evaluate_suffix_sizes,
)

__all__ = [
    "BitVector",
    "CompressedWordSetIndex",
    "EliasFano",
    "FrontCodedPhrase",
    "RRRBitVector",
    "SuffixTradeoffPoint",
    "WorkedExample",
    "choose_suffix_bits",
    "compression_ratio",
    "delta_decode_prices",
    "delta_encode_prices",
    "encoded_size_bytes",
    "evaluate_suffix_sizes",
    "front_decode",
    "front_encode",
    "h0_bits",
    "h0_upper_bound_bits",
    "hash_table_bits",
    "merged_node_count",
    "plain_size_bytes",
    "put_varint",
    "varint_decode",
    "varint_encode",
    "worked_example",
    "zigzag_decode",
    "zigzag_encode",
]
