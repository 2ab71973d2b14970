"""Distance labels and the decoder function (paper §4.1, Definition 1 and Lemma 2).

The label of a vertex u is the *distance set* d_G(u, B↑(u)): for every vertex
s in the union B↑(u) of the bags on the root path to u's canonical bag, the
pair of directed distances (d_G(u, s), d_G(s, u)).  The decoder computes

    dec(la(u), la(v)) = min_{s ∈ B↑(u) ∩ B↑(v)}  d_G(u, s) + d_G(s, v),

which Lemma 2 proves equals d_G(u, v) because the bag at the lowest common
ancestor of the two canonical nodes separates u from v.

**Incremental maintenance.**  A labeling attached to its instance via
:meth:`DistanceLabeling.attach_instance` supports weight updates through
:meth:`DistanceLabeling.apply_edge_update` without a from-scratch rebuild.
The hub sets B↑(u) depend only on the tree decomposition of the *undirected
communication topology*, which weight changes (and edge removals /
re-insertions — removing edges never breaks a separator) leave valid; only
the stored distances can go stale.  An update of arc (a, b) from w_old to
w_new changes d(s, ·) only if s can reach the arc on an improved path
(``d(s,a) + w_new < d(s,b)``) or the arc lay on a shortest path out of s
(``d(s,a) + w_old == d(s,b)``); both tests are answered *exactly* by the
pre-update labels themselves, so the affected hubs are found with O(#hubs)
decode calls and only those hubs re-run Dijkstra — everything else is
provably untouched.  Updates that would *grow* the topology are rejected
(a genuinely new edge could bypass the separators Lemma 2 relies on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

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

        Cached after the first call (and invalidated by :meth:`set_entry`):
        the decoder scans the smaller label in this order, and
        :class:`~repro.labeling.packed.PackedLabeling` packs label segments
        from it, so both see one canonical hub enumeration.
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
    O(|smaller label|): it walks the smaller side's cached
    :meth:`~DistanceLabel.sorted_hubs` order — the same canonical hub
    enumeration the packed form uses for its sorted-array merge — and
    resolves each hub against the larger side with one O(1) probe, so the
    larger label's size never enters the cost.
    """
    if label_u.vertex == label_v.vertex:
        return 0.0
    best = INF
    to_dist = label_u.to_dist
    from_dist = label_v.from_dist
    if len(to_dist) <= len(from_dist):
        probe = from_dist.get
        for s in label_u.sorted_hubs():
            d_us = to_dist.get(s)
            if d_us is None:
                continue
            d_sv = probe(s)
            if d_sv is None:
                continue
            total = d_us + d_sv
            if total < best:
                best = total
    else:
        probe = to_dist.get
        for s in label_v.sorted_hubs():
            d_sv = from_dist.get(s)
            if d_sv is None:
                continue
            d_us = probe(s)
            if d_us is None:
                continue
            total = d_us + d_sv
            if total < best:
                best = total
    return best


@dataclass
class EdgeUpdateStats:
    """Accounting for one :meth:`DistanceLabeling.apply_edge_update` call.

    Attributes
    ----------
    tail, head:
        The updated arc (a, b).
    old_weight, new_weight:
        Effective weight of the arc before/after (the minimum over parallel
        edges; ``inf`` means the arc is absent).
    candidate_hubs:
        Hubs examined by the decode-based affectedness filter (each costs two
        O(label) decodes, no graph traversal).
    from_hubs_recomputed, to_hubs_recomputed:
        Hubs whose outgoing (``d(s, ·)``) / incoming (``d(·, s)``) distance
        trees were re-run with Dijkstra.
    entries_rewritten:
        Label entries overwritten with fresh distances.
    """

    tail: NodeId
    head: NodeId
    old_weight: float
    new_weight: float
    candidate_hubs: int = 0
    from_hubs_recomputed: int = 0
    to_hubs_recomputed: int = 0
    entries_rewritten: int = 0


class DistanceLabeling:
    """A complete labeling: one :class:`DistanceLabel` per vertex plus the decoder."""

    def __init__(self, labels: Mapping[NodeId, DistanceLabel]) -> None:
        self._labels: Dict[NodeId, DistanceLabel] = dict(labels)
        # Cached size statistics; recomputing max/total entries is an O(n)
        # sweep that query-serving callers hit per request, so both are
        # computed once and invalidated by the two mutation paths that can
        # change an entry count (set_entry / apply_edge_update).
        self._max_entries_cache: Optional[int] = None
        self._total_entries_cache: Optional[int] = None
        # Incremental-maintenance state; populated by attach_instance().
        self._instance = None
        self._reverse = None
        self._removed: Set[Tuple[NodeId, NodeId]] = set()
        self._hub_members_to: Dict[NodeId, List[NodeId]] = {}
        self._hub_members_from: Dict[NodeId, List[NodeId]] = {}

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

    # ------------------------------------------------------------------ #
    # Incremental maintenance under edge updates
    # ------------------------------------------------------------------ #
    def attach_instance(self, instance) -> None:
        """Snapshot ``instance`` so the labeling can absorb edge updates.

        Stores private forward/reversed copies of the weighted instance the
        labels were built from (the caller's graph is never mutated) and the
        hub → member index needed to rewrite label entries.  Must be called
        once before :meth:`apply_edge_update`; the labels are expected to be
        exact for ``instance`` at attach time.
        """
        for v in self._labels:
            if not instance.has_node(v):
                raise LabelingError(
                    f"labelled vertex {v!r} is not a vertex of the attached instance"
                )
        self._instance = instance.copy()
        self._reverse = self._instance.reverse()
        self._removed = set()
        self._hub_members_to = {}
        self._hub_members_from = {}
        for u, lab in self._labels.items():
            for s in lab.to_dist:
                self._hub_members_to.setdefault(s, []).append(u)
            for s in lab.from_dist:
                self._hub_members_from.setdefault(s, []).append(u)

    def apply_edge_update(self, tail: NodeId, head: NodeId, weight: float) -> EdgeUpdateStats:
        """Update arc (tail, head) to ``weight`` and repair the labels in place.

        Replaces every parallel (tail, head) edge of the attached instance
        with a single edge of the new weight; ``weight=inf`` removes the arc
        entirely, and a previously removed arc may be re-inserted at a finite
        weight.  Arcs that never existed in the attached instance are
        rejected — a genuinely new edge could bypass the decomposition's
        separators and invalidate the decoder (see the module docstring).

        Only hubs whose distance tree provably changed re-run Dijkstra; the
        affected set is found with two exact label decodes per hub.  After the
        call, ``distance(u, v)`` answers every pairwise query identically to a
        from-scratch rebuild on the updated instance.
        """
        from repro.graphs.properties import dijkstra

        if self._instance is None:
            raise LabelingError(
                "apply_edge_update requires attach_instance() to be called first"
            )
        if tail == head:
            raise LabelingError("self-loop updates do not affect distances")
        try:
            known = self._instance.has_node(tail) and self._instance.has_node(head)
        except TypeError:  # an unhashable id
            known = False
        if not known:
            raise LabelingError(
                f"arc ({tail!r}, {head!r}) endpoints are not vertices of the instance"
            )
        try:
            valid = weight == INF or weight >= 0
        except TypeError:  # a non-numeric weight, as WeightedDiGraph.add_edge rejects
            valid = False
        if not valid:
            raise LabelingError(f"edge weight must be non-negative or inf, got {weight!r}")

        parallel = [e for e in self._instance.out_edges(tail) if e.head == head]
        w_old = min((e.weight for e in parallel), default=INF)
        if not parallel and (tail, head) not in self._removed:
            raise LabelingError(
                f"arc ({tail!r}, {head!r}) is not an edge of the attached instance; "
                "updates must not grow the topology"
            )
        w_new = INF if weight == INF else float(weight)
        stats = EdgeUpdateStats(tail=tail, head=head, old_weight=w_old, new_weight=w_new)
        # Entry rewrites below go straight at the label dicts, so the cached
        # size statistics are invalidated up front (cheap, and keeps the
        # cache contract simple: any update call resets it).
        self._max_entries_cache = None
        self._total_entries_cache = None

        # Affectedness filters on the *pre-update* labels (exact distances).
        # d(s, ·) changes iff s reaches the arc on an improved path, or the
        # arc carried a shortest path out of s; mirror for d(·, s).  An
        # unchanged effective weight (collapsing parallel edges) cannot move
        # any distance.
        affected_from: List[NodeId] = []
        affected_to: List[NodeId] = []
        if w_new != w_old:
            for s in self._hub_members_from:
                stats.candidate_hubs += 1
                d_st, d_sh = self.distance(s, tail), self.distance(s, head)
                if (d_st + w_new < d_sh) if w_new < w_old else (d_st + w_old == d_sh):
                    affected_from.append(s)
            for s in self._hub_members_to:
                d_hs, d_ts = self.distance(head, s), self.distance(tail, s)
                if (w_new + d_hs < d_ts) if w_new < w_old else (d_ts == w_old + d_hs):
                    affected_to.append(s)

        # Apply the update symmetrically to both maintained copies (reverse()
        # preserves edge ids, so removals and explicit-id insertions stay in
        # lockstep).
        for e in parallel:
            self._instance.remove_edge(e.eid)
            self._reverse.remove_edge(e.eid)
        if w_new == INF:
            self._removed.add((tail, head))
        else:
            self._removed.discard((tail, head))
            eid = self._instance.add_edge(tail, head, weight=w_new)
            self._reverse.add_edge(head, tail, weight=w_new, eid=eid)

        for s in affected_from:
            dist = dijkstra(self._instance, s)
            for u in self._hub_members_from[s]:
                self._labels[u].from_dist[s] = dist.get(u, INF)
                stats.entries_rewritten += 1
            stats.from_hubs_recomputed += 1
        for s in affected_to:
            rdist = dijkstra(self._reverse, s)
            for u in self._hub_members_to[s]:
                self._labels[u].to_dist[s] = rdist.get(u, INF)
                stats.entries_rewritten += 1
            stats.to_hubs_recomputed += 1
        return stats
