"""Whole-round protocol kernels for the vectorized CONGEST tier.

The scalar engines (``legacy``, ``fast``) call one Python method per node per
round.  The kernel tier replaces that inner loop entirely: a protocol is
expressed as a :class:`RoundKernel` whose state is a dict of per-node/per-arc
numpy vectors and whose ``round`` function transforms a whole round's
delivered traffic — packed arrays keyed by dense CSR arc slot — with
segmented reductions (min/sum over each node's inbox slice).  No Python loop
runs over nodes or messages inside a round.

Data flow of one round (driven by :func:`repro.congest.engine.run_vectorized`):

1. the previous round's :class:`PackedSends` (an arc-slot send mask plus one
   value array per :class:`~repro.congest.message.PayloadSchema` field) is
   *delivered* by gathering through ``csr.rev`` — the message sent on arc
   ``p`` (``i -> j``) lands in receiver-side slot ``rev[p]``;
2. the kernel's ``round(state, inbox, senders, csr)`` is called with the
   delivered slots grouped by receiver (ascending arc slot order, i.e. CSR
   segment order) and returns the next :class:`PackedSends`;
3. the engine accounts messages/words/per-edge bandwidth from the send mask
   with ``bincount`` over ``csr.arc_edge_ids`` — O(#messages) array work,
   with ``payload_size_words`` O(1) per message via the schema.

State vectors are indexed directly by the CSR snapshot's node indices and
arc slots: a per-node vector has ``csr.num_nodes`` rows, a per-arc vector
``csr.num_arcs``.

Kernels must be *bit-for-bit* equivalent to the scalar protocol they
accelerate: identical rounds, outputs, ``messages_sent``, ``words_sent``,
``max_words_per_edge_round`` and ``max_message_words`` on every instance
(enforced by ``tests/test_engine_equivalence.py`` across the three
synchronous tiers; the fourth, ``async`` tier runs the *scalar* protocol on
the event-driven scheduler — ``tests/test_async_scheduler.py`` — and matches
the same ledger, so kernels and scheduler certify each other through it).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.congest.message import PayloadSchema, payload_size_words
from repro.errors import SimulationError

NodeId = Hashable

def vectorized_available() -> bool:
    """Return ``True`` when numpy is importable (vectorized tier usable)."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is baked into the CI image
        return False
    return True


def array_tier() -> str:
    """The tier an engine-measured kernel protocol runs on: ``"vectorized"``
    when numpy imports, ``"fast"`` otherwise.  Both measure the same rounds,
    and neither warns."""
    return "vectorized" if vectorized_available() else "fast"


class PackedSends:
    """One round's outgoing traffic as preallocated arc-slot arrays.

    Attributes
    ----------
    mask:
        Boolean array over the arc slots: ``mask[p]`` means the owner of arc
        ``p`` sends one message to the neighbour at ``p`` this round.
    values:
        ``field name -> array`` (``num_arcs`` long, schema dtype); only
        masked slots are meaningful.  Kernels hand back the same
        preallocated buffers (:meth:`PayloadSchema.alloc`) every round: the
        engine gathers the delivered slots before the next ``round`` call,
        so in-place reuse is safe and no per-round allocation happens.
    words:
        Optional per-arc-slot word sizes for schemas whose payloads reference
        a finite set of precomputed objects of varying size (e.g. label
        chunks).  ``None`` means every message costs ``schema.size_words``.
    """

    __slots__ = ("mask", "values", "words")

    def __init__(self, mask, values: Mapping[str, Any], words=None) -> None:
        self.mask = mask
        self.values = dict(values)
        self.words = words


class PackedInbox:
    """One round's delivered traffic, grouped by receiver in CSR slot order.

    ``arcs`` are the receiver-side arc slots that hold mail, ascending —
    because CSR slots of one node are contiguous, ascending order *is*
    receiver-grouped order, so segmented reductions need no sort.  Each value
    array is parallel to ``arcs``, as is the ``inbox_senders`` array the
    engine passes alongside (sender node indices, ``csr.indices[arcs]``).
    Mapping-style access (``inbox["dist"]``) returns the value array of one
    schema field.
    """

    __slots__ = ("arcs", "values")

    def __init__(self, arcs, values: Mapping[str, Any]) -> None:
        self.arcs = arcs
        self.values = dict(values)

    def __getitem__(self, field: str):
        return self.values[field]

    def __len__(self) -> int:
        return int(self.arcs.shape[0])

    def segment_starts(self, csr) -> Tuple[Any, Any]:
        """Return ``(starts, receivers)`` for per-receiver reductions.

        ``starts`` indexes the first entry of each receiver's run inside the
        parallel arrays (usable with ``np.minimum.reduceat`` etc.);
        ``receivers`` holds the corresponding node indices.
        """
        import numpy as np

        recv = csr.arc_owner[self.arcs]
        if recv.shape[0] == 0:
            return np.empty(0, dtype=np.int64), recv
        starts = np.flatnonzero(np.r_[True, recv[1:] != recv[:-1]])
        return starts, recv[starts]


class RoundKernel:
    """Base class for whole-round vectorized protocol kernels.

    Subclasses define:

    * ``schema`` — the :class:`PayloadSchema` of every message they send;
    * ``event_driven`` — same contract as
      :attr:`~repro.congest.node.NodeAlgorithm.event_driven` (only used for
      trace statistics; the kernel itself is invoked every round);
    * :meth:`init` — allocate the per-node (``csr.num_nodes`` rows) and
      per-arc (``csr.num_arcs`` rows) state vectors and return the round-0
      sends;
    * :meth:`round` — consume one round's inbox arrays, update state, return
      the next sends;
    * :meth:`outputs` — per-node outputs after termination, keyed by original
      node id (must equal the scalar protocol's outputs exactly).

    The engine reads ``state["halted"]`` (boolean per-node vector, optional —
    absent means no node ever halts) for its termination condition.
    """

    schema: PayloadSchema
    event_driven = False

    def init(self, state: Dict[str, Any], csr) -> Optional[PackedSends]:
        """Fill ``state`` with the kernel's vectors; return the round-0 sends."""
        raise NotImplementedError

    def round(self, state: Dict[str, Any], inbox: PackedInbox,
              inbox_senders, csr) -> Optional[PackedSends]:
        """Execute one synchronous round as array operations."""
        raise NotImplementedError

    def outputs(self, state: Dict[str, Any], csr) -> Dict[NodeId, Any]:
        """Collect per-node outputs (same values as the scalar protocol)."""
        raise NotImplementedError


def _run_starts(keys):
    """Boolean mask of the first entry of every run of equal values in ``keys``."""
    import numpy as np

    flags = np.empty(keys.shape[0], dtype=bool)
    flags[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=flags[1:])
    return flags


class FloodingKernel(RoundKernel):
    """Whole-round pipelined chunk flooding — the kernel of
    :class:`~repro.congest.primitives.ChunkFloodNode` / ``flood_chunks``.

    Bit-for-bit equivalent to the scalar transport.  The ``C`` chunks are a
    finite table precomputed at ``init``, so a message is packed as one int64
    *chunk index* per arc slot and ``payload_size_words`` is an O(1) table
    lookup (``chunk_words``).

    The kernel keeps no queues; it rests on one invariant of the synchronous
    flood.  A node at hop distance ``d`` from the root learns chunk ``k`` in
    round ``d + k``, and learns nothing else in that round.  By induction on
    ``d``: the root holds every chunk and sends chunk ``r`` on all its arcs
    in round ``r``.  A node at distance ``d ≥ 1`` hears only from
    neighbours at distance ``d - 1``, ``d`` and ``d + 1``.  Those at
    ``d - 1`` learn chunk ``k`` in round ``d - 1 + k`` and forward it at
    once, so it arrives in round ``d + k``, and no neighbour can deliver it
    earlier.  Those at distance ``d`` and ``d + 1`` forward, in that round,
    chunks ``k - 1`` and ``k - 2``, which the node already holds.  So every
    non-root scalar queue holds at most the one chunk learned this round,
    drained in the same round, and the root's queue sends chunk ``r`` in
    round ``r``.  The state is therefore:

    * ``learned`` — per node, how many chunks it holds (the root holds all
      ``C``).  A delivery of chunk ``learned[u]`` to ``u`` is new, a smaller
      one is a duplicate, and a larger one breaks the invariant: it raises
      :class:`~repro.errors.SimulationError` instead of being queued;
    * the reused send buffers (chunk index, mask and word size per arc).

    A learner forwards its new chunk in the same round on every out-arc but
    the one to its *teacher*: the lowest-index sender that delivered the
    chunk, the first hit of the scalar inbox scan (inboxes list senders in
    ascending index).  A node halts in the round it learns chunk ``C - 1``;
    the root halts in the round it sends chunk ``C - 1``, or at init when
    ``C ≤ 1`` or it has no arcs — the scalar ``_finish_if_complete`` after
    a drain.  With ``C = 0`` only the root halts.  A round costs
    O(arcs + n + deliveries) array work, independent of ``C``.

    Subclasses override :meth:`_chunk_table` (the wire chunks, each starting
    with ``(k, total)``) and :meth:`outputs` — see
    :class:`~repro.labeling.sssp.LabelBroadcastKernel`, mirroring how the
    scalar ``LabelBroadcastNode`` subclasses ``ChunkFloodNode``.
    """

    schema = PayloadSchema(fields=(("chunk", "i8"),))
    event_driven = False

    def __init__(self, root: NodeId, chunks: Sequence[Any] = ()) -> None:
        self.root = root
        self.source_chunks = tuple(chunks)
        self.chunks: List[Any] = []
        self.chunk_words = None

    # -- subclass hooks -------------------------------------------------- #
    def _chunk_table(self) -> List[Any]:
        """Return the root's wire chunks, each starting with ``(k, total)``."""
        total = len(self.source_chunks)
        return [(k, total, payload) for k, payload in enumerate(self.source_chunks)]

    def outputs(self, state: Dict[str, Any], csr) -> Dict[NodeId, Any]:
        halted = state["halted"]
        payload = tuple(chunk[2] for chunk in self.chunks)
        return {
            u: (payload if halted[i] else None) for i, u in enumerate(csr.node_ids)
        }

    # -- shared transport mechanics -------------------------------------- #
    def init(self, state: Dict[str, Any], csr) -> Optional[PackedSends]:
        import numpy as np

        table = self._chunk_table()
        c = len(table)
        # One trailing zero: chunk index -1 marks "no send" and costs nothing.
        chunk_words = np.zeros(c + 1, dtype=np.int64)
        for chunk in table:
            chunk_words[chunk[0]] = payload_size_words(chunk)
        self.chunks = list(table)
        self.chunk_words = chunk_words

        n, m = csr.num_nodes, csr.num_arcs
        state["halted"] = np.zeros(n, dtype=bool)
        state["learned"] = np.zeros(n, dtype=np.int64)
        # Preallocated round buffers, reused every round: the chunk each
        # node sends (-1 for none), the chunk-index payload array, the send
        # mask and the per-arc word sizes.
        state["out"] = np.full(n, -1, dtype=np.int64)
        state["send"] = self.schema.alloc(m)
        state["send_mask"] = np.zeros(m, dtype=bool)
        state["send_words"] = np.zeros(m, dtype=np.int64)
        # Teacher tie-break key of each receiver-side slot, sender index
        # first: the minimum over one node's deliveries is its lowest-index
        # sender, and that key modulo ``m`` is the node's arc back to it.
        self._sender_key = csr.indices * m + np.arange(m, dtype=np.int64)
        self._empty = np.empty(0, dtype=np.int64)
        state["root_next"] = 0

        src = csr.index_of.get(self.root)
        self._root = -1 if src is None else src
        if src is None:
            return None
        state["learned"][src] = c
        if c == 0 or csr.indptr[src + 1] == csr.indptr[src]:
            state["halted"][src] = True
            return None
        return self._sends(state, csr, self._empty, self._empty, self._empty)

    def _sends(self, state, csr, learners, ks, teacher_arcs) -> Optional[PackedSends]:
        """This round's traffic: the root's next chunk on each of its arcs
        until it halts, and each learner's new chunk on each of its arcs but
        the one back to its teacher."""
        import numpy as np

        root = self._root
        root_sends = root >= 0 and not state["halted"][root]
        if not root_sends and learners.shape[0] == 0:
            return None
        out = state["out"]
        out.fill(-1)
        out[learners] = ks
        if root_sends:
            r = state["root_next"]
            out[root] = r
            state["root_next"] = r + 1
            if r + 1 == len(self.chunks):
                state["halted"][root] = True
        chunk = state["send"]["chunk"]
        out.take(csr.arc_owner, out=chunk)
        mask = state["send_mask"]
        np.greater_equal(chunk, 0, out=mask)
        mask[teacher_arcs] = False
        self.chunk_words.take(chunk, out=state["send_words"])
        return PackedSends(mask, state["send"], words=state["send_words"])

    def round(self, state: Dict[str, Any], inbox: PackedInbox,
              inbox_senders, csr) -> Optional[PackedSends]:
        import numpy as np

        learners = kw = teacher_arcs = self._empty
        if len(inbox):
            ks = inbox["chunk"]
            arcs = inbox.arcs
            recv = csr.arc_owner[arcs]
            learned = state["learned"]
            have = learned[recv]
            ahead = ks > have
            if ahead.any():
                i = int(ahead.argmax())
                raise SimulationError(
                    f"chunk flood delivered chunk {int(ks[i])} to node "
                    f"{csr.node_ids[int(recv[i])]!r}, which holds only "
                    f"{int(have[i])} chunks: a synchronous flood delivers "
                    "chunk k to a node only in the round after it learned "
                    "chunk k - 1"
                )
            fresh = (ks == have).nonzero()[0]
            if fresh.shape[0]:
                # Every new delivery to one node carries the same chunk,
                # learned[u]; the minimum sender key of its run names the
                # teacher's arc.
                rw = recv[fresh]
                starts = _run_starts(rw).nonzero()[0]
                teacher_arcs = np.minimum.reduceat(
                    self._sender_key[arcs[fresh]], starts
                )
                teacher_arcs %= csr.num_arcs
                learners = rw[starts]
                kw = learned[learners]
                learned[learners] = kw + 1
                state["halted"][learners] = kw == len(self.chunks) - 1
        return self._sends(state, csr, learners, kw, teacher_arcs)


class BFSTreeKernel(RoundKernel):
    """Whole-round BFS-tree construction — the kernel of
    :class:`~repro.congest.primitives.BFSTreeNode` / ``build_bfs_tree``.

    Bit-for-bit equivalent to the scalar protocol: the root halts at init
    and floods ``("bfs", 0)``; an undiscovered node adopts the minimum
    ``(depth, sender)`` offer of its inbox — the scalar inbox scan compares
    senders by their *original ids*, so the kernel precomputes a rank table
    of the node ids under ``<`` (ids that are not mutually comparable are
    refused at init, where the scalar tie-break would raise mid-run) — then
    halts and forwards ``depth + 1`` on every arc except the one back to
    its parent.  A BFS wavefront delivers one depth value per round, so the
    rank only breaks ties between equal-depth offers, exactly like the
    scalar scan.

    Like Bellman-Ford it is a dense-round flood (whole frontiers per round),
    the round shape the kernel tier exists for.
    """

    schema = PayloadSchema(fields=(("depth", "i8"),), tag="bfs")
    event_driven = True

    def __init__(self, root: NodeId) -> None:
        self.root = root
        self._rank = None
        self._unrank = None

    def init(self, state: Dict[str, Any], csr) -> Optional[PackedSends]:
        import numpy as np

        # Sender tie-break ranks.
        try:
            order = sorted(range(csr.num_nodes), key=lambda i: csr.node_ids[i])
        except TypeError as exc:
            # The scalar protocol compares (depth, sender-id) tuples, so ids
            # that are not mutually comparable would make its tie-break
            # raise; refuse up front rather than silently producing parents
            # the scalar tiers could never output.
            raise SimulationError(
                "BFSTreeKernel requires mutually comparable node ids for the "
                f"sender tie-break ({exc}); run engine='fast' instead"
            ) from None
        unrank = np.asarray(order, dtype=np.int64)
        rank = np.empty(csr.num_nodes, dtype=np.int64)
        rank[unrank] = np.arange(csr.num_nodes, dtype=np.int64)
        self._rank = rank
        self._unrank = unrank

        n, m = csr.num_nodes, csr.num_arcs
        state["depth"] = np.full(n, -1, dtype=np.int64)
        state["parent"] = np.full(n, -1, dtype=np.int64)
        state["halted"] = np.zeros(n, dtype=bool)
        state["send"] = self.schema.alloc(m)
        state["send_mask"] = np.zeros(m, dtype=bool)

        src = csr.index_of.get(self.root)
        if src is None:
            return None
        state["depth"][src] = 0
        state["halted"][src] = True
        lo, hi = int(csr.indptr[src]), int(csr.indptr[src + 1])
        if hi == lo:
            return None
        mask = state["send_mask"]
        mask[lo:hi] = True
        state["send"]["depth"][lo:hi] = 0
        return PackedSends(mask, state["send"])

    def round(self, state: Dict[str, Any], inbox: PackedInbox,
              inbox_senders, csr) -> Optional[PackedSends]:
        import numpy as np

        mask = state["send_mask"]
        mask[:] = False
        if len(inbox) == 0:
            return None
        depth = state["depth"]
        starts, receivers = inbox.segment_starts(csr)
        fresh = depth[receivers] < 0
        if not fresh.any():
            return None
        # Minimum (depth, sender rank) offer per receiver, as one int64 key.
        n = csr.num_nodes
        key = inbox["depth"] * n + self._rank[inbox_senders]
        win = np.minimum.reduceat(key, starts)[fresh]
        new_depth = win // n + 1
        new_parent = self._unrank[win % n]
        new_nodes = receivers[fresh]
        depth[new_nodes] = new_depth
        state["parent"][new_nodes] = new_parent
        state["halted"][new_nodes] = True

        deg = csr.indptr[new_nodes + 1] - csr.indptr[new_nodes]
        arc_pos = ragged_slices(csr.indptr[new_nodes], deg)
        state["send"]["depth"][arc_pos] = np.repeat(new_depth, deg)
        keep = arc_pos[csr.indices[arc_pos] != np.repeat(new_parent, deg)]
        if keep.shape[0] == 0:
            return None
        mask[keep] = True
        return PackedSends(mask, state["send"])

    def outputs(self, state: Dict[str, Any], csr) -> Dict[NodeId, Any]:
        node_ids = csr.node_ids
        depth = state["depth"]
        parent = state["parent"]
        out: Dict[NodeId, Any] = {}
        for i, u in enumerate(node_ids):
            d = depth[i]
            if d < 0:
                out[u] = None
            elif parent[i] < 0:
                out[u] = (None, int(d))
            else:
                out[u] = (node_ids[int(parent[i])], int(d))
        return out


class LeaderElectionKernel(RoundKernel):
    """Whole-round minimum-identifier leader election — the kernel of
    :class:`~repro.congest.primitives.LeaderElectionNode` / ``elect_leader``.

    Identifiers compare exactly as the scalar protocol compares them: by the
    ``f"{type(x).__name__}:{x!r}"`` key string, which is defined for every
    hashable id (so, unlike :class:`BFSTreeKernel`, no id family has to be
    refused).  Init ranks all ids by that key into a dense ``int64`` table;
    messages then carry one rank word, and the ledger still charges
    :func:`~repro.congest.message.payload_size_words` of the *identifier*
    behind each rank (the scalar sends the raw id object) through a
    per-rank word table passed as the ``words`` override.

    Round structure mirrors the scalar flood bit for bit: every node sends
    its own id on all arcs at init and stays running; each round, a node
    adopts the minimum delivered rank iff it strictly beats its current
    best and re-floods the improvement on *all* its arcs, and every node
    that saw no improvement halts — including nodes with no mail at all,
    which the scalar worklist still invokes because the protocol is not
    event-driven.  A node that improves *after* halting (a smaller id
    arriving over a longer path) updates its output and re-floods but
    never un-halts, exactly like the scalar ``on_round``.
    """

    schema = PayloadSchema(fields=(("rank", "i8"),))
    event_driven = False

    def init(self, state: Dict[str, Any], csr) -> Optional[PackedSends]:
        import numpy as np

        from repro.congest.primitives import LeaderElectionNode

        key = LeaderElectionNode._key
        node_ids = csr.node_ids
        # Rank ids by the scalar comparison key.  Keys are distinct per
        # node (ids are unique and ``repr`` is injective on them within one
        # type name), so the rank order is the scalar's total order.
        order = sorted(range(csr.num_nodes), key=lambda i: key(node_ids[i]))
        unrank = np.asarray(order, dtype=np.int64)
        rank = np.empty(csr.num_nodes, dtype=np.int64)
        rank[unrank] = np.arange(csr.num_nodes, dtype=np.int64)
        self._rank = rank
        self._unrank = unrank
        #: ledger words of the identifier behind each rank — what the
        #: scalar protocol is charged for shipping the raw id object.
        self._rank_words = np.asarray(
            [payload_size_words(node_ids[i]) for i in order], dtype=np.int64
        )

        m = csr.num_arcs
        state["best"] = rank.copy()
        state["halted"] = np.zeros(csr.num_nodes, dtype=bool)
        state["send"] = self.schema.alloc(m)
        state["send_mask"] = np.zeros(m, dtype=bool)
        state["send_words"] = np.zeros(m, dtype=np.int64)
        if m == 0:
            return None
        own_rank = rank[csr.arc_owner]
        mask = state["send_mask"]
        mask[:] = True
        state["send"]["rank"][:] = own_rank
        state["send_words"][:] = self._rank_words[own_rank]
        return PackedSends(mask, state["send"], words=state["send_words"])

    def round(self, state: Dict[str, Any], inbox: PackedInbox,
              inbox_senders, csr) -> Optional[PackedSends]:
        import numpy as np

        best = state["best"]
        halted = state["halted"]
        mask = state["send_mask"]
        mask[:] = False
        if len(inbox) == 0:
            # A mail-less round: every node runs the scalar's empty inbox,
            # sees no improvement, and halts (halting twice is a no-op).
            halted[:] = True
            return None
        starts, receivers = inbox.segment_starts(csr)
        seg_min = np.minimum.reduceat(inbox["rank"], starts)
        improved = seg_min < best[receivers]
        imp_nodes = receivers[improved]
        new_best = seg_min[improved]
        best[imp_nodes] = new_best
        # Everyone without an improvement halts this round (mail or not);
        # improvers keep their halted status — a halted improver re-floods
        # below but stays halted, like the scalar.
        keep = np.zeros(csr.num_nodes, dtype=bool)
        keep[imp_nodes] = True
        halted[~keep] = True
        if imp_nodes.shape[0] == 0:
            return None
        deg = csr.indptr[imp_nodes + 1] - csr.indptr[imp_nodes]
        arc_pos = ragged_slices(csr.indptr[imp_nodes], deg)
        if arc_pos.shape[0] == 0:
            return None
        rep = np.repeat(new_best, deg)
        state["send"]["rank"][arc_pos] = rep
        state["send_words"][arc_pos] = self._rank_words[rep]
        mask[arc_pos] = True
        return PackedSends(mask, state["send"], words=state["send_words"])

    def outputs(self, state: Dict[str, Any], csr) -> Dict[NodeId, Any]:
        node_ids = csr.node_ids
        best = state["best"]
        unrank = self._unrank
        return {
            u: node_ids[int(unrank[best[i]])] for i, u in enumerate(node_ids)
        }


class ConvergecastKernel(RoundKernel):
    """Whole-round tree aggregation — the kernel of
    :class:`~repro.congest.primitives.ConvergecastNode` /
    ``convergecast_sum`` with the default summing combiner.

    ``convergecast_sum`` attaches it only when the combiner is the module
    default ``a + b`` and every tree value is a plain number (``int``
    within ±2**31, or ``float``), so the vectorized fold is exact: the
    accumulator dtype is ``i8`` when all values are ints and ``f8``
    otherwise, and each round's reports fold into their receivers in
    ascending ``(receiver, sender index)`` order through an unbuffered
    ``np.add.at`` — the same left-to-right association as the scalar inbox
    scan, so even float sums are bit-for-bit.

    Leaves report at init; an internal node counts down its children and,
    in the round the last one reports, halts and ships its accumulator one
    hop up (bare numbers are one ledger word, matching the scalar's raw
    payloads, so the schema tuple's packed size is overridden with a
    ``words`` table of ones).  Nodes outside the tree halt silently at init
    and output ``None``.  A parent entry that is not a graph neighbour is
    refused at init with the engine's non-neighbour error (the scalar
    raises the same error from ``collect`` in whichever round that node
    completes).
    """

    event_driven = True

    def __init__(self, parent: Mapping[NodeId, Optional[NodeId]],
                 values: Mapping[NodeId, Any]) -> None:
        self.parent = dict(parent)
        self.values = dict(values)
        counts: Dict[NodeId, int] = {u: 0 for u in self.parent}
        for u, p in self.parent.items():
            if p is not None and p in counts:
                counts[p] += 1
        self._children_count = counts
        self._dtype = (
            "f8"
            if any(isinstance(self.values.get(u, 0), float) for u in self.parent)
            else "i8"
        )
        self.schema = PayloadSchema(fields=(("value", self._dtype),))

    def init(self, state: Dict[str, Any], csr) -> Optional[PackedSends]:
        import numpy as np

        n, m = csr.num_nodes, csr.num_arcs
        acc = state["acc"] = np.zeros(n, dtype=self._dtype)
        pending = state["pending"] = np.zeros(n, dtype=np.int64)
        in_tree = state["in_tree"] = np.zeros(n, dtype=bool)
        # Non-tree nodes are silent halted stubs.
        halted = state["halted"] = np.ones(n, dtype=bool)
        parent_arc = np.full(n, -1, dtype=np.int64)
        index_of = csr.index_of
        indptr = csr.indptr
        indices = csr.indices
        for u, pv in self.parent.items():
            i = index_of.get(u)
            if i is None:
                continue
            in_tree[i] = True
            halted[i] = False
            acc[i] = self.values.get(u, 0)
            pending[i] = self._children_count[u]
            if pv is None:
                continue
            pj = index_of.get(pv)
            arc = -1
            if pj is not None:
                for pos in range(int(indptr[i]), int(indptr[i + 1])):
                    if indices[pos] == pj:
                        arc = pos
                        break
            if arc < 0:
                raise SimulationError(
                    f"node {u!r} attempted to message non-neighbour {pv!r}"
                )
            parent_arc[i] = arc
        state["parent_arc"] = parent_arc
        state["send"] = self.schema.alloc(m)
        state["send_mask"] = np.zeros(m, dtype=bool)
        # Scalar payloads are bare numbers: one ledger word per report.
        state["send_words"] = np.ones(m, dtype=np.int64)
        return self._complete(state, np.flatnonzero(in_tree))

    def _complete(self, state: Dict[str, Any], candidates):
        """Halt candidates with no outstanding children; report upward."""
        if candidates.shape[0] == 0:
            return None
        pending = state["pending"]
        halted = state["halted"]
        done = candidates[(pending[candidates] == 0) & ~halted[candidates]]
        if done.shape[0] == 0:
            return None
        halted[done] = True
        pa = state["parent_arc"][done]
        has_parent = pa >= 0
        senders = done[has_parent]
        if senders.shape[0] == 0:  # the root completed
            return None
        arcs = pa[has_parent]
        state["send"]["value"][arcs] = state["acc"][senders]
        mask = state["send_mask"]
        mask[arcs] = True
        return PackedSends(mask, state["send"], words=state["send_words"])

    def round(self, state: Dict[str, Any], inbox: PackedInbox,
              inbox_senders, csr) -> Optional[PackedSends]:
        import numpy as np

        state["send_mask"][:] = False
        if len(inbox) == 0:
            return None
        recv = csr.arc_owner[inbox.arcs]
        # Fold in ascending (receiver, sender index) order: the scalar fast
        # tier's inbox arrives sorted by sender index, and ``np.add.at``
        # accumulates unbuffered in argument order, so the float sums
        # associate identically.
        order = np.lexsort((inbox_senders, recv))
        rl = recv[order]
        np.add.at(state["acc"], rl, inbox["value"][order])
        np.subtract.at(state["pending"], rl, 1)
        return self._complete(state, np.unique(rl))

    def outputs(self, state: Dict[str, Any], csr) -> Dict[NodeId, Any]:
        acc = state["acc"]
        halted = state["halted"]
        in_tree = state["in_tree"]
        conv = float if self._dtype == "f8" else int
        return {
            u: conv(acc[i]) if (in_tree[i] and halted[i]) else None
            for i, u in enumerate(csr.node_ids)
        }


def ragged_slices(starts, counts):
    """Concatenate ``range(starts[i], starts[i] + counts[i])`` as one array.

    The standard trick for expanding CSR slices of many nodes at once (used
    by kernels to touch all arc slots of a set of nodes without a Python
    loop).
    """
    import numpy as np

    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + offsets
