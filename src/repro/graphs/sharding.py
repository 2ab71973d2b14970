"""Contiguous node-range sharding of a :class:`~repro.graphs.indexed.CsrArrays` view.

The vectorized CONGEST tier addresses all per-round data by *dense CSR arc
slot*: node ``i`` owns the contiguous slot range ``indptr[i]:indptr[i+1]``,
and the message sent on arc ``p`` is delivered into the receiver-side slot
``rev[p]``.  That addressing was designed as a shard interface, and this
module cashes it in: a :class:`ShardPlan` cuts the node space ``0..n-1`` into
``num_shards`` contiguous ranges, so each shard simultaneously owns

* a contiguous *row range* of every per-node state vector,
* the contiguous *arc-slot range* ``indptr[lo]:indptr[hi]`` of every per-arc
  array (CSR rows of a contiguous node range are themselves contiguous), and
* a precomputed classification of its arcs into *interior* (the reverse arc
  lands in the same shard) and *boundary* (the reverse arc is owned by
  another shard).

The per-round delivery contract of the sharded engine tier
(:func:`repro.congest.engine.run_sharded`) follows directly:

* shard ``s`` *publishes* its send-mask/word slices plus the payload values
  of its :attr:`boundary_out` slots — and only those — into shared memory,
  *packed*: the published value array of shard ``s`` has one slot per
  boundary arc, not one per arc;
* shard ``s`` *gathers* its inbox — the slots ``arc_lo..arc_hi`` — through
  the precomputed :meth:`exchange` tables: interior sources are read from
  the shard's private send buffers, foreign sources from the packed
  published slots of the owning peer shard (``src_packed`` maps a foreign
  source arc straight to its position in the peer's packed array).

Because ``rev`` is an involution, ``inbox_sources(s)`` restricted to foreign
slots is exactly the union of the other shards' ``boundary_out`` tables that
point into ``s`` — only boundary payload slots ever cross a shard boundary,
and the :class:`ShardExchange` tables enumerate every (peer, packed slot,
local inbox slot) triple once, at plan-build time.

Everything here is a pure index computation over the frozen CSR snapshot;
the plan holds no simulation state and can be shared between runs.
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.errors import GraphError


class Shard:
    """One contiguous node/arc-slot range of a :class:`ShardPlan`.

    Attributes
    ----------
    index:
        Position of this shard in the plan (``0..num_shards-1``).
    node_lo / node_hi:
        The half-open node-index range ``[node_lo, node_hi)`` this shard owns.
    arc_lo / arc_hi:
        The half-open CSR arc-slot range owned by those nodes
        (``indptr[node_lo]:indptr[node_hi]``).
    """

    __slots__ = ("index", "node_lo", "node_hi", "arc_lo", "arc_hi")

    def __init__(self, index: int, node_lo: int, node_hi: int, arc_lo: int, arc_hi: int) -> None:
        self.index = index
        self.node_lo = node_lo
        self.node_hi = node_hi
        self.arc_lo = arc_lo
        self.arc_hi = arc_hi

    @classmethod
    def full(cls, csr) -> "Shard":
        """The degenerate whole-graph shard (used by the single-process tiers)."""
        return cls(0, 0, csr.num_nodes, 0, csr.num_arcs)

    @property
    def num_nodes(self) -> int:
        return self.node_hi - self.node_lo

    @property
    def num_arcs(self) -> int:
        return self.arc_hi - self.arc_lo

    @property
    def node_slice(self) -> slice:
        return slice(self.node_lo, self.node_hi)

    @property
    def arc_slice(self) -> slice:
        return slice(self.arc_lo, self.arc_hi)

    def owns_node(self, i: int) -> bool:
        return self.node_lo <= i < self.node_hi

    def owns_arc(self, p: int) -> bool:
        return self.arc_lo <= p < self.arc_hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard({self.index}, nodes=[{self.node_lo},{self.node_hi}), "
            f"arcs=[{self.arc_lo},{self.arc_hi}))"
        )


class PeerExchange:
    """One peer's contribution to a shard's packed boundary gather.

    All indices are *local*: ``recv_slots`` are inbox slot positions inside
    the receiving shard's arc range, ``src_local`` are the source arcs'
    positions inside the peer's arc range (for mask lookups in the peer's
    published mask segment), and ``src_packed`` are the source arcs'
    positions inside the peer's packed ``boundary_out`` value array.
    """

    __slots__ = ("peer", "recv_slots", "src_local", "src_packed")

    def __init__(self, peer: int, recv_slots, src_local, src_packed) -> None:
        self.peer = peer
        self.recv_slots = recv_slots
        self.src_local = src_local
        self.src_packed = src_packed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeerExchange(peer={self.peer}, slots={self.recv_slots.shape[0]})"


class ShardExchange:
    """The precomputed packed boundary-exchange tables of one shard.

    ``int_slots``/``int_src`` cover the interior deliveries (both local to
    the shard's own arc range: inbox slot position and source arc position);
    ``peers`` holds one :class:`PeerExchange` per other shard that sends
    into this one.  Together they enumerate every inbox slot of the shard
    exactly once, so a worker's per-round gather touches only active slots
    plus these O(boundary) tables — never a full-length arc array of another
    shard.
    """

    __slots__ = ("shard_index", "int_slots", "int_src", "peers")

    def __init__(self, shard_index: int, int_slots, int_src, peers) -> None:
        self.shard_index = shard_index
        self.int_slots = int_slots
        self.int_src = int_src
        self.peers = tuple(peers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardExchange(shard={self.shard_index}, "
            f"interior={self.int_src.shape[0]}, peers={len(self.peers)})"
        )


class ShardPlan:
    """A contiguous node-range partition of a :class:`CsrArrays` snapshot.

    Parameters
    ----------
    csr:
        The numpy CSR view (:meth:`IndexedGraph.to_arrays`).
    node_starts:
        Monotone cut points of the node space: shard ``s`` owns nodes
        ``node_starts[s]..node_starts[s+1]-1``.  Must start at 0, end at
        ``num_nodes`` and be strictly increasing — a zero-range shard would
        be a worker process with no work and no owned arena segment, so
        empty shards are refused.  Build balanced plans with
        :meth:`balanced`.
    """

    __slots__ = (
        "csr",
        "num_shards",
        "node_starts",
        "arc_starts",
        "shard_of_node",
        "_boundary_arc_mask",
        "_boundary_out",
        "_interior_inbox",
        "_exchange",
    )

    def __init__(self, csr, node_starts) -> None:
        import numpy as np

        starts = np.asarray(node_starts, dtype=np.int64)
        if starts.ndim != 1 or starts.shape[0] < 2:
            raise GraphError("node_starts must hold at least [0, num_nodes]")
        if starts[0] != 0 or starts[-1] != csr.num_nodes:
            raise GraphError(
                f"node_starts must span [0, {csr.num_nodes}], got {starts.tolist()}"
            )
        if csr.num_nodes and np.any(np.diff(starts) <= 0):
            raise GraphError(
                "node_starts must be strictly increasing (every shard owns at "
                f"least one node), got {starts.tolist()}"
            )
        self.csr = csr
        self.num_shards = int(starts.shape[0] - 1)
        self.node_starts = starts
        #: Arc-slot cut points: shard s owns slots arc_starts[s]:arc_starts[s+1].
        self.arc_starts = csr.indptr[starts]
        #: Per node index, the shard that owns it.
        self.shard_of_node = (
            np.searchsorted(starts, np.arange(csr.num_nodes), side="right") - 1
        )
        self._boundary_arc_mask = None
        self._boundary_out: Dict[int, object] = {}
        self._interior_inbox: Dict[int, object] = {}
        self._exchange: Dict[int, ShardExchange] = {}

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def balanced(cls, csr, num_shards: int) -> "ShardPlan":
        """Cut the node space into ``num_shards`` arc-balanced contiguous ranges.

        Cut points are chosen so every shard owns roughly ``num_arcs /
        num_shards`` CSR slots (per-round work is proportional to arc slots,
        not nodes).  ``num_shards`` is clamped to ``[1, num_nodes]`` so every
        shard owns at least one node.
        """
        import numpy as np

        n = csr.num_nodes
        s = max(1, min(int(num_shards), n)) if n else 1
        starts = [0]
        for k in range(1, s):
            target = k * csr.num_arcs / s
            cut = int(np.searchsorted(csr.indptr, target, side="left"))
            cut = min(max(cut, starts[-1] + 1), n - (s - k))
            starts.append(cut)
        starts.append(n)
        return cls(csr, starts)

    @classmethod
    def single(cls, csr) -> "ShardPlan":
        """The trivial one-shard plan (whole graph)."""
        return cls(csr, [0, csr.num_nodes])

    # ------------------------------------------------------------------ #
    # Shard access
    # ------------------------------------------------------------------ #
    def shard(self, s: int) -> Shard:
        if not 0 <= s < self.num_shards:
            raise GraphError(f"shard {s} out of range (plan has {self.num_shards})")
        return Shard(
            s,
            int(self.node_starts[s]),
            int(self.node_starts[s + 1]),
            int(self.arc_starts[s]),
            int(self.arc_starts[s + 1]),
        )

    def __len__(self) -> int:
        return self.num_shards

    def __iter__(self) -> Iterator[Shard]:
        return (self.shard(s) for s in range(self.num_shards))

    # ------------------------------------------------------------------ #
    # Boundary classification and delivery tables
    # ------------------------------------------------------------------ #
    @property
    def boundary_arc_mask(self):
        """Boolean per arc slot: the reverse arc is owned by another shard.

        An arc ``p`` (``i -> j``) is *boundary* iff ``i`` and ``j`` live in
        different shards — equivalently ``rev[p]`` lies outside the owner's
        slot range.  Interior arcs never leave their shard's private buffers.
        """
        mask = self._boundary_arc_mask
        if mask is None:
            csr = self.csr
            mask = (
                self.shard_of_node[csr.arc_owner] != self.shard_of_node[csr.indices]
            )
            self._boundary_arc_mask = mask
        return mask

    def boundary_out(self, s: int):
        """Global ids of shard ``s``'s *boundary send* slots (ascending).

        These are the only payload slots shard ``s`` must publish to shared
        memory each round; all its other sends are delivered shard-locally.
        """
        import numpy as np

        table = self._boundary_out.get(s)
        if table is None:
            lo, hi = int(self.arc_starts[s]), int(self.arc_starts[s + 1])
            table = lo + np.flatnonzero(self.boundary_arc_mask[lo:hi])
            self._boundary_out[s] = table
        return table

    def inbox_sources(self, s: int):
        """Per inbox slot of shard ``s``, the global source arc (``rev`` slice).

        The message delivered into slot ``q`` (``arc_lo <= q < arc_hi``) was
        sent on arc ``rev[q]``; this is the precomputed rev-gather table the
        sharded engine reads delivered traffic through.
        """
        lo, hi = int(self.arc_starts[s]), int(self.arc_starts[s + 1])
        return self.csr.rev[lo:hi]

    def interior_inbox(self, s: int):
        """Boolean per inbox slot of shard ``s``: the source arc is shard-local."""
        table = self._interior_inbox.get(s)
        if table is None:
            src = self.inbox_sources(s)
            lo, hi = int(self.arc_starts[s]), int(self.arc_starts[s + 1])
            table = (src >= lo) & (src < hi)
            self._interior_inbox[s] = table
        return table

    def exchange(self, s: int) -> ShardExchange:
        """The packed boundary-exchange tables of shard ``s`` (cached).

        Splits the shard's inbox slots into the interior part (source arc is
        shard-local) and one :class:`PeerExchange` per sending peer shard.
        Foreign source arcs are resolved to their position inside the peer's
        packed :meth:`boundary_out` array, so a per-round gather reads only
        packed boundary words — the publish/gather copies of the sharded
        engine never touch a whole-length value array.
        """
        import numpy as np

        table = self._exchange.get(s)
        if table is None:
            lo = int(self.arc_starts[s])
            sources = self.inbox_sources(s)
            interior = self.interior_inbox(s)
            slots = np.arange(sources.shape[0], dtype=np.int64)
            int_slots = slots[interior]
            int_src = sources[interior] - lo
            foreign_slots = slots[~interior]
            foreign_src = sources[~interior]
            owners = self.shard_of_node[self.csr.arc_owner[foreign_src]]
            peers = []
            for t in np.unique(owners):
                t = int(t)
                sel = owners == t
                src_t = foreign_src[sel]
                # Every foreign source is a boundary arc of its owner, so the
                # searchsorted lookup into the peer's packed table is exact.
                packed = np.searchsorted(self.boundary_out(t), src_t)
                peers.append(
                    PeerExchange(
                        t,
                        foreign_slots[sel],
                        src_t - int(self.arc_starts[t]),
                        packed,
                    )
                )
            table = ShardExchange(s, int_slots, int_src, peers)
            self._exchange[s] = table
        return table

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def num_boundary_arcs(self) -> int:
        return int(self.boundary_arc_mask.sum())

    @property
    def boundary_fraction(self) -> float:
        """Fraction of arc slots whose payload crosses a shard boundary."""
        if self.csr.num_arcs == 0:
            return 0.0
        return self.num_boundary_arcs / self.csr.num_arcs

    def describe(self) -> Dict[str, object]:
        """Summary dict for logs and benchmark records."""
        return {
            "num_shards": self.num_shards,
            "node_starts": [int(x) for x in self.node_starts],
            "arcs_per_shard": [
                int(self.arc_starts[s + 1] - self.arc_starts[s])
                for s in range(self.num_shards)
            ],
            "boundary_arcs": self.num_boundary_arcs,
            "boundary_fraction": round(self.boundary_fraction, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardPlan(shards={self.num_shards}, n={self.csr.num_nodes})"
