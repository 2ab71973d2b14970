"""Distance labels and the decoder function (paper §4.1, Definition 1 and Lemma 2).

The label of a vertex u is the *distance set* d_G(u, B↑(u)): for every vertex
s in the union B↑(u) of the bags on the root path to u's canonical bag, the
pair of directed distances (d_G(u, s), d_G(s, u)).  The decoder computes

    dec(la(u), la(v)) = min_{s ∈ B↑(u) ∩ B↑(v)}  d_G(u, s) + d_G(s, v),

which Lemma 2 proves equals d_G(u, v) because the bag at the lowest common
ancestor of the two canonical nodes separates u from v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

from repro.errors import LabelingError

NodeId = Hashable
INF = math.inf


@dataclass
class DistanceLabel:
    """The distance label of a single vertex.

    Attributes
    ----------
    vertex:
        The labelled vertex u.
    to_dist:
        ``s -> d_G(u, s)`` for every s in the label's hub set B↑(u).
    from_dist:
        ``s -> d_G(s, u)`` for the same hub set.
    """

    vertex: NodeId
    to_dist: Dict[NodeId, float] = field(default_factory=dict)
    from_dist: Dict[NodeId, float] = field(default_factory=dict)
    #: Cached deterministic hub order (see :meth:`sorted_hubs`); invalidated
    #: by :meth:`set_entry`.  Excluded from equality so two labels with the
    #: same entries compare equal whether or not the cache is warm.
    _hub_order: Optional[Tuple[NodeId, ...]] = field(
        default=None, repr=False, compare=False
    )

    def hubs(self) -> Iterable[NodeId]:
        """The hub set B↑(u) covered by this label."""
        return self.to_dist.keys()

    def sorted_hubs(self) -> Tuple[NodeId, ...]:
        """The union of the to/from hub sets in deterministic ``str`` order.

        Cached after the first call (and invalidated by :meth:`set_entry`).
        :class:`~repro.labeling.packed.PackedLabeling` packs label segments
        from it; :func:`decode_distance` does not need an order and never
        calls it.
        """
        if self._hub_order is None:
            keys = self.to_dist.keys()
            if len(self.from_dist) != len(self.to_dist) or (
                self.from_dist.keys() != keys
            ):
                keys = keys | self.from_dist.keys()
            self._hub_order = tuple(sorted(keys, key=str))
        return self._hub_order

    def num_entries(self) -> int:
        """Number of hub vertices stored (the paper's label-size measure, Õ(τ²))."""
        return len(self.to_dist)

    def size_bits(self, n: int, max_weight: float = 1.0) -> int:
        """Estimated label size in bits: each entry stores a vertex id and two distances.

        Vertex ids take ⌈log₂ n⌉ bits and distances ⌈log₂(n · W)⌉ bits for
        maximum edge weight W, matching the O(τ² log² n)-bit bound of Theorem 2.
        """
        id_bits = max(1, math.ceil(math.log2(max(2, n))))
        dist_bits = max(1, math.ceil(math.log2(max(2, n * max(1.0, max_weight)))))
        return self.num_entries() * (id_bits + 2 * dist_bits)

    def set_entry(self, hub: NodeId, to_hub: float, from_hub: float) -> None:
        if hub not in self.to_dist or hub not in self.from_dist:
            self._hub_order = None
        self.to_dist[hub] = to_hub
        self.from_dist[hub] = from_hub

    def restrict(self, hubs: Iterable[NodeId]) -> "DistanceLabel":
        """Return a copy keeping only the given hub vertices."""
        keep = set(hubs)
        return DistanceLabel(
            vertex=self.vertex,
            to_dist={s: d for s, d in self.to_dist.items() if s in keep},
            from_dist={s: d for s, d in self.from_dist.items() if s in keep},
        )

    def copy(self) -> "DistanceLabel":
        return DistanceLabel(self.vertex, dict(self.to_dist), dict(self.from_dist))


def decode_distance(label_u: DistanceLabel, label_v: DistanceLabel) -> float:
    """dec(la(u), la(v)): the exact directed distance d_G(u, v) (Lemma 2).

    Returns ``inf`` when v is unreachable from u.  The scan is
    O(|smaller side|): it walks the items of the smaller of u's
    ``to_dist`` and v's ``from_dist`` and resolves each hub against the
    other side with one O(1) probe, so the larger label's size never
    enters the cost.  The minimum does not depend on the walk order: every
    stored distance is a sum that starts from +0.0, so no candidate is
    -0.0 and equal sums are equal bits.
    """
    if label_u.vertex == label_v.vertex:
        return 0.0
    best = INF
    to_dist = label_u.to_dist
    from_dist = label_v.from_dist
    if len(to_dist) <= len(from_dist):
        probe = from_dist.get
        for s, d_us in to_dist.items():
            d_sv = probe(s)
            if d_sv is None:
                continue
            total = d_us + d_sv
            if total < best:
                best = total
    else:
        probe = to_dist.get
        for s, d_sv in from_dist.items():
            d_us = probe(s)
            if d_us is None:
                continue
            total = d_us + d_sv
            if total < best:
                best = total
    return best


class DistanceLabeling:
    """A complete labeling: one :class:`DistanceLabel` per vertex plus the decoder."""

    def __init__(self, labels: Mapping[NodeId, DistanceLabel]) -> None:
        self._labels: Dict[NodeId, DistanceLabel] = dict(labels)
        # Cached size statistics; recomputing max/total entries is an O(n)
        # sweep that query-serving callers hit per request, so both are
        # computed once and invalidated by set_entry, the one mutation path
        # that can change an entry count.
        self._max_entries_cache: Optional[int] = None
        self._total_entries_cache: Optional[int] = None

    def label(self, v: NodeId) -> DistanceLabel:
        try:
            return self._labels[v]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise LabelingError(f"no label for vertex {v!r}") from None

    def vertices(self) -> Iterable[NodeId]:
        return self._labels.keys()

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Exact d_G(u, v) decoded from the two labels."""
        return decode_distance(self.label(u), self.label(v))

    def set_entry(
        self, vertex: NodeId, hub: NodeId, to_hub: float, from_hub: float
    ) -> None:
        """Set one label entry through the labeling, keeping caches honest.

        Mutating a :class:`DistanceLabel` directly bypasses the labeling's
        cached size statistics; this is the supported write path.
        """
        self.label(vertex).set_entry(hub, to_hub, from_hub)
        self._max_entries_cache = None
        self._total_entries_cache = None

    def max_entries(self) -> int:
        """Largest label size in hub entries (paper bound: Õ(τ²)); cached."""
        if self._max_entries_cache is None:
            self._max_entries_cache = max(
                (lab.num_entries() for lab in self._labels.values()), default=0
            )
        return self._max_entries_cache

    def total_entries(self) -> int:
        """Sum of all label sizes in hub entries; cached."""
        if self._total_entries_cache is None:
            self._total_entries_cache = sum(
                lab.num_entries() for lab in self._labels.values()
            )
        return self._total_entries_cache

    def max_size_bits(self, n: Optional[int] = None, max_weight: float = 1.0) -> int:
        n = n if n is not None else len(self._labels)
        return max(
            (lab.size_bits(n, max_weight) for lab in self._labels.values()), default=0
        )

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, v: NodeId) -> bool:
        return v in self._labels
