"""Exact distance labeling and single-source shortest paths (paper §4, Theorem 2).

A distance labeling assigns every vertex a short label such that the exact
directed distance between any two vertices can be decoded from their two
labels alone.  The paper constructs labels of Õ(τ²) entries in Õ(τ²D + τ⁵)
CONGEST rounds by recursing over the tree decomposition of §3: the label of u
stores its distances to/from every vertex of B↑(u), the union of the bags on
the root path to u's canonical bag.

* :mod:`~repro.labeling.labels` — the label data structure and the decoder.
* :mod:`~repro.labeling.construction` — the recursive construction
  (auxiliary graphs H_x, Lemma 3/4 updates) with CONGEST round accounting.
* :mod:`~repro.labeling.sssp` — single-source shortest paths by broadcasting
  the source's label (the reduction described in §1.2).
* :mod:`~repro.labeling.packed` — :class:`PackedLabeling`, the CSR-packed
  serving form: flat sorted-hub arrays, a versioned memory-mappable file
  format, and batched vectorized decoding.
"""

from repro.labeling.labels import (
    DistanceLabel,
    DistanceLabeling,
    decode_distance,
)
from repro.labeling.construction import build_distance_labeling, DistanceLabelingResult
from repro.labeling.packed import PackedLabeling
from repro.labeling.sssp import single_source_shortest_paths, SSSPResult

__all__ = [
    "DistanceLabel",
    "DistanceLabeling",
    "PackedLabeling",
    "decode_distance",
    "build_distance_labeling",
    "DistanceLabelingResult",
    "single_source_shortest_paths",
    "SSSPResult",
]
