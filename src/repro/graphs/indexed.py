"""Indexed CSR (compressed sparse row) view of a :class:`~repro.graphs.graph.Graph`.

The adjacency-set :class:`~repro.graphs.graph.Graph` is convenient for
construction and for the decomposition algorithms, but it is a poor substrate
for the hot loop of the CONGEST simulator: every round-level operation pays
for hashing arbitrary node ids and for rebuilding neighbour sets.

:class:`IndexedGraph` freezes a graph into flat arrays:

* nodes are renumbered to contiguous integers ``0..n-1`` (in ``graph.nodes()``
  insertion order, so results stay deterministic);
* the adjacency structure is CSR — ``indptr``/``indices`` — with neighbours
  sorted by ``str(node_id)``, matching the neighbour order the simulator
  exposes to protocols;
* every undirected edge gets a dense integer *edge id* in ``0..m-1`` (in
  first-encounter order), and each CSR arc position carries its edge id in
  ``arc_edge_ids`` so per-edge statistics (e.g. words per edge per round)
  index a flat array.

The view is a snapshot: mutating the source graph afterwards does not update
the view.  :meth:`Graph.to_indexed` caches the view and invalidates the cache
when the graph is mutated.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

NodeId = Hashable


class IndexedGraph:
    """A frozen CSR snapshot of an undirected graph.

    Attributes
    ----------
    node_ids:
        ``idx -> original node id`` (insertion order of the source graph).
    index_of:
        ``original node id -> idx``.
    indptr / indices:
        CSR adjacency: the neighbours of node ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]`` (as indices), sorted by
        ``str(original id)``.
    neighbor_ids:
        Per node, the tuple of neighbours as *original* ids in the same order
        as ``indices`` (what the simulator exposes as ``ctx.neighbors``;
        immutable so a protocol cannot corrupt the shared snapshot).
    arc_edge_ids:
        Parallel to ``indices``: the undirected edge id of each arc (both
        arcs of an edge share one id).
    """

    __slots__ = (
        "node_ids",
        "index_of",
        "indptr",
        "indices",
        "neighbor_ids",
        "arc_edge_ids",
        "_neighbor_maps",
        "_csr_arrays",
        "num_nodes",
        "num_edges",
    )

    def __init__(self, graph) -> None:
        node_ids: List[NodeId] = graph.nodes()
        index_of: Dict[NodeId, int] = {u: i for i, u in enumerate(node_ids)}
        n = len(node_ids)

        indptr: List[int] = [0] * (n + 1)
        indices: List[int] = []
        neighbor_ids: List[Tuple[NodeId, ...]] = []
        arc_edge_ids: List[int] = []
        # The id of each edge whose first arc (i -> j) is listed and whose
        # reverse arc is not yet, keyed by that first arc.
        pending: Dict[Tuple[int, int], int] = {}
        num_edges = 0

        for i, u in enumerate(node_ids):
            nbrs = tuple(sorted(graph.neighbors(u), key=str))
            neighbor_ids.append(nbrs)
            for v in nbrs:
                j = index_of[v]
                indices.append(j)
                eid = pending.pop((j, i), None)
                if eid is None:
                    eid = num_edges
                    num_edges += 1
                    pending[(i, j)] = eid
                arc_edge_ids.append(eid)
            indptr[i + 1] = len(indices)

        self.node_ids = node_ids
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        self.neighbor_ids = neighbor_ids
        self.arc_edge_ids = arc_edge_ids
        self._neighbor_maps = None
        self._csr_arrays = None
        self.num_nodes = n
        self.num_edges = num_edges

    @property
    def neighbor_maps(self) -> List[Dict[NodeId, Tuple[int, int]]]:
        """Per node index: ``original neighbour id -> (neighbour index, edge id)``.

        The O(1) outbox-validation/edge-lookup tables of the simulation fast
        path; built lazily once per snapshot and shared by every network over
        the same graph.
        """
        maps = self._neighbor_maps
        if maps is None:
            indices = self.indices
            arc_edge_ids = self.arc_edge_ids
            node_ids = self.node_ids
            maps = []
            for i in range(self.num_nodes):
                lo, hi = self.indptr[i], self.indptr[i + 1]
                maps.append(
                    {
                        node_ids[indices[pos]]: (indices[pos], arc_edge_ids[pos])
                        for pos in range(lo, hi)
                    }
                )
            self._neighbor_maps = maps
        return maps

    def to_arrays(self) -> "CsrArrays":
        """Return (and cache) the numpy mirror of this snapshot.

        The :class:`CsrArrays` view is what the vectorized simulation tier
        operates on: every per-round operation is an array op over dense arc
        positions.  Requires numpy; raises ``ImportError`` where it is
        unavailable (callers fall back to the scalar fast path).
        """
        arrays = self._csr_arrays
        if arrays is None:
            arrays = CsrArrays(self)
            self._csr_arrays = arrays
        return arrays

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedGraph(n={self.num_nodes}, m={self.num_edges})"


class CsrArrays:
    """numpy mirror of an :class:`IndexedGraph`, shared by vectorized kernels.

    Every undirected edge contributes two *arcs* (CSR positions); a message
    from node ``i`` to its neighbour ``j`` occupies the arc position ``p`` in
    ``i``'s CSR slice with ``indices[p] == j``, and is delivered into the
    receiver-side slot ``rev[p]`` (the reverse arc, ``j``'s slice position
    pointing back at ``i``).  Kernels index their per-arc state and send
    buffers by these positions and their per-node state by node index.

    Attributes
    ----------
    indptr / indices:
        CSR adjacency as ``int64`` arrays (see :class:`IndexedGraph`).
    arc_owner:
        Per arc position, the node index owning the slice it lives in.
    rev:
        Per arc position ``p`` (``i -> j``), the position of the reverse arc
        (``j -> i``).  An involution: ``rev[rev[p]] == p``.
    arc_edge_ids:
        Per arc position, the dense undirected edge id (both directions of an
        edge share one id, so a per-edge ``bincount`` sums both directions).
    """

    __slots__ = ("indexed", "num_nodes", "num_arcs", "num_edges",
                 "indptr", "indices", "arc_owner", "rev", "arc_edge_ids")

    def __init__(self, indexed: IndexedGraph) -> None:
        import numpy as np

        n = indexed.num_nodes
        indptr = np.asarray(indexed.indptr, dtype=np.int64)
        indices = np.asarray(indexed.indices, dtype=np.int64)
        num_arcs = int(indices.shape[0])
        arc_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        # Reverse-arc table: the arc (i -> j) keyed as i*n + j is found at
        # the sorted position of its flipped key j*n + i (arc keys of a
        # simple graph are unique, so searchsorted is an exact lookup).
        keys = arc_owner * n + indices
        order = np.argsort(keys)
        rev = order[np.searchsorted(keys[order], indices * n + arc_owner)]
        self.indexed = indexed
        self.num_nodes = n
        self.num_arcs = num_arcs
        self.num_edges = indexed.num_edges
        self.indptr = indptr
        self.indices = indices
        self.arc_owner = arc_owner
        self.rev = rev
        self.arc_edge_ids = np.asarray(indexed.arc_edge_ids, dtype=np.int64)

    # Convenience passthroughs used by kernels.
    @property
    def node_ids(self):
        return self.indexed.node_ids

    @property
    def index_of(self):
        return self.indexed.index_of

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CsrArrays(n={self.num_nodes}, arcs={self.num_arcs})"
