"""CSR-packed distance labels: the query-serving form of a labeling.

:class:`~repro.labeling.labels.DistanceLabeling` is the construction-side
representation — one Python dict pair per vertex, ideal for the recursive
build, and hopeless for serving
sustained query traffic (every ``decode_distance`` walks two dicts).
:class:`PackedLabeling` is the serving-side twin: the same labels packed
into four flat arrays in the ``PayloadSchema`` spirit (preallocated typed
columns keyed by dense offsets, no per-entry objects):

``offsets``
    ``int64[n + 1]`` — vertex ``i``'s label occupies the half-open segment
    ``[offsets[i], offsets[i + 1])`` of the three entry arrays.
``hubs``
    ``int64[E]`` — hub ids as indices into the shared vertex/hub table,
    **sorted ascending within every segment** (the invariant every query
    path relies on).
``to_hub`` / ``from_hub``
    ``float64[E]`` — ``d(u, s)`` / ``d(s, u)`` per entry; ``inf`` marks an
    unreachable hub *and* a hub the dict form stored on one side only, so
    packing the union of the two key sets is decode-exact (an ``inf``
    summand can never win the minimum).

Queries
-------
``distance(u, v)`` answers one pair with a sorted two-pointer merge of the
two segments, each read once as Python lists — the packed mirror of the
scalar decoder.  ``query(us, vs)`` answers a whole batch with one
vectorized kernel call that intersects every pair's two hub lists in one
merge, the way hub-labeling query engines do (Abraham, Delling, Goldberg
and Werneck, SEA 2011).  The u-side and v-side segments are flattened
and given composite ``pair * stride + hub`` keys; each side's key array
is already globally sorted (segments are pair-major and hub-sorted), so
one stable ``argsort`` of the two concatenated runs merges them.  A
shared hub is then two adjacent equal keys, a u entry followed by a v
entry.  The sort must be stable: of two equal keys it keeps the lower
index first, and u entries precede v entries in the concatenation.  A
segmented ``minimum.reduceat`` folds the matched sums per pair.
Without numpy the same API serves a pure-python two-pointer fallback
(``backend="pure"``), so the packed form works on every CI configuration.

File format (version 1)
-----------------------
``save``/``load`` round-trip a versioned little-endian binary file built
for memory mapping: concurrent server workers map the same file and share
its pages, so a corpus of labelings costs one copy of physical memory no
matter how many processes serve it.

============  ======================  =========================================
section       layout                  contents
============  ======================  =========================================
header        ``<4s I Q Q Q Q``       magic ``b"RPLB"``, format version ``1``,
                                      ``num_nodes``, table length ``T``,
                                      ``num_entries``, id-blob byte length
id blob       pickle                  the vertex/hub id table (``T`` ids; the
                                      first ``num_nodes`` are the labelled
                                      vertices in segment order)
padding       zeros                   to the next 64-byte boundary
``offsets``   ``<i8 × (num_nodes+1)``
``hubs``      ``<i8 × num_entries``
``to_hub``    ``<f8 × num_entries``
``from_hub``  ``<f8 × num_entries``
============  ======================  =========================================

``load(path)`` maps the file once, read-only, and takes the four arrays
as plain read-only ``numpy.ndarray`` views of that mapping at their
recorded offsets (zero copies; ``is_memory_mapped`` reports it and
:meth:`stats` accounts ``copied_label_bytes == 0``).  The views are not
``np.memmap`` objects on purpose: ``np.memmap`` runs Python-level hooks
(``__getitem__`` on every element read, ``__array_wrap__`` and
``__array_finalize__`` on every array operation), which cost a point
decode several times its merge.  ``load(path, mmap=False)`` or
``backend="pure"`` reads heap copies instead.  Unknown magic, an
unsupported version, or a truncated file raise
:class:`~repro.errors.LabelingError` before any array is touched.
"""

from __future__ import annotations

import io
import math
import mmap as mmap_mod
import pickle
import struct
import sys
from itertools import chain
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.errors import LabelingError
from repro.labeling.labels import DistanceLabel, DistanceLabeling

NodeId = Hashable
INF = math.inf

#: File magic + supported format version.
MAGIC = b"RPLB"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQQQ")
#: Array sections start on this alignment so memory-mapped views are
#: naturally aligned for their 8-byte dtypes.
_ALIGN = 64

_BACKENDS = ("auto", "numpy", "pure")


def numpy_or_none():
    """numpy when importable, else ``None`` (the pure-python fallback)."""
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is baked into CI images
        return None
    return np


def _resolve_backend(backend: str):
    """Map a ``backend=`` argument to the numpy module or ``None`` (pure)."""
    if backend not in _BACKENDS:
        raise LabelingError(
            f"unknown packed-labeling backend {backend!r}; expected one of "
            f"{_BACKENDS}"
        )
    if backend == "pure":
        return None
    np = numpy_or_none()
    if backend == "numpy" and np is None:
        raise LabelingError("backend='numpy' requires numpy to be importable")
    return np


def _label_query_batch(offsets, hubs, to_hub, from_hub, u_idx, v_idx):
    """Batched distance decode over the CSR-packed arrays (numpy only).

    Pair i's answer is the min over hubs s common to segments ``u_idx[i]``
    and ``v_idx[i]`` of ``to_hub[u entry of s] + from_hub[v entry of s]``
    (``inf`` when the segments share no hub), with 0.0 forced for
    ``u_idx[i] == v_idx[i]``.  Returns ``float64[len(u_idx)]``.

    The intersection is one merge.  Every queried entry gets the composite
    key ``pair * stride + hub``; the u-side keys, then the v-side keys,
    are each globally sorted (segments are pair-major and hub-ascending),
    so one stable argsort of the two runs merges them.  A shared hub is
    two adjacent equal keys, a u entry then a v entry: the sort must be
    stable so that the u entry of a tie, the lower index, comes first.
    Both sides of a match are checked, so a malformed segment (a repeated
    hub) cannot pair two entries of one side.  The matches come out
    pair-major and hub-ascending, and ``minimum.reduceat`` folds each
    pair's run of sums.
    """
    import numpy as np

    num_pairs = u_idx.shape[0]
    out = np.full(num_pairs, np.inf, dtype=np.float64)
    if num_pairs == 0:
        return out
    seg = np.concatenate((u_idx, v_idx))
    start = offsets[seg]
    cnt = offsets[seg + 1] - start
    end = np.cumsum(cnt)
    total_u, total = int(end[num_pairs - 1]), int(end[-1])
    if total_u and total > total_u:
        # Flat CSR gather over the u segments, then the v segments: the
        # position in `hubs` of every queried entry (u entries come first,
        # at indices below total_u), and its composite key.
        pos = np.arange(total, dtype=np.int64) + np.repeat(start - (end - cnt), cnt)
        keys = hubs[pos]
        stride = int(keys.max()) + 1
        pair_key = np.arange(num_pairs, dtype=np.int64) * stride
        keys += np.repeat(np.concatenate((pair_key, pair_key)), cnt)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        tie = np.flatnonzero(keys[1:] == keys[:-1])
        first, second = order[tie], order[tie + 1]
        match = (first < total_u) & (second >= total_u)
        sums = to_hub[pos[first[match]]] + from_hub[pos[second[match]]]
        if sums.shape[0]:
            pair_hit = keys[tie[match]] // stride
            run_start = np.ones(pair_hit.shape[0], dtype=bool)
            np.not_equal(pair_hit[1:], pair_hit[:-1], out=run_start[1:])
            run_starts = np.flatnonzero(run_start)
            out[pair_hit[run_starts]] = np.minimum.reduceat(sums, run_starts)
    out[u_idx == v_idx] = 0.0
    return out


class PackedLabeling:
    """A :class:`DistanceLabeling` packed into flat CSR arrays for serving.

    Build one with :meth:`from_labeling`, persist with :meth:`save`, and
    reopen zero-copy with :meth:`load`.  All query entry points
    (:meth:`distance`, :meth:`query`) are exact mirrors of
    :func:`~repro.labeling.labels.decode_distance`.
    """

    __slots__ = (
        "ids",
        "index",
        "num_nodes",
        "offsets",
        "hubs",
        "to_hub",
        "from_hub",
        "_np",
        "_mapped",
    )

    def __init__(self, ids, num_nodes, offsets, hubs, to_hub, from_hub,
                 np_module, mapped=False) -> None:
        self.ids: Tuple[NodeId, ...] = tuple(ids)
        self.index: Dict[NodeId, int] = {v: i for i, v in enumerate(self.ids)}
        self.num_nodes = int(num_nodes)
        self.offsets = offsets
        self.hubs = hubs
        self.to_hub = to_hub
        self.from_hub = from_hub
        self._np = np_module
        self._mapped = bool(mapped)

    # ------------------------------------------------------------------ #
    # Construction / conversion
    # ------------------------------------------------------------------ #
    @classmethod
    def from_labeling(
        cls, labeling: DistanceLabeling, backend: str = "auto"
    ) -> "PackedLabeling":
        """Pack a dict-form labeling.

        The labelled vertices become table slots ``0 .. n-1`` in
        deterministic ``str`` order; hubs that are not labelled vertices
        (possible for synthetic/restricted labels) extend the table.  Each
        vertex's segment packs the **union** of its to/from hub sets —
        a side the dict form did not store becomes ``inf``, which is
        decode-equivalent (see the module docstring).
        """
        np = _resolve_backend(backend)
        vertices = sorted(labeling.vertices(), key=str)
        index: Dict[NodeId, int] = {v: i for i, v in enumerate(vertices)}
        extras: List[NodeId] = []
        for v in vertices:
            for s in labeling.label(v).sorted_hubs():
                if s not in index:
                    index[s] = len(vertices) + len(extras)
                    extras.append(s)
        ids = vertices + extras

        offsets: List[int] = [0]
        hub_rows: List[int] = []
        to_rows: List[float] = []
        from_rows: List[float] = []
        for v in vertices:
            lab = labeling.label(v)
            entries = sorted(index[s] for s in lab.sorted_hubs())
            for h in entries:
                s = ids[h]
                hub_rows.append(h)
                to_rows.append(float(lab.to_dist.get(s, INF)))
                from_rows.append(float(lab.from_dist.get(s, INF)))
            offsets.append(len(hub_rows))

        if np is not None:
            return cls(
                ids, len(vertices),
                np.asarray(offsets, dtype=np.int64),
                np.asarray(hub_rows, dtype=np.int64),
                np.asarray(to_rows, dtype=np.float64),
                np.asarray(from_rows, dtype=np.float64),
                np,
            )
        return cls(ids, len(vertices), offsets, hub_rows, to_rows, from_rows, None)

    def to_labeling(self) -> DistanceLabeling:
        """Unpack back to the dict form.

        Entries the packing stored as one-sided ``inf`` (a hub the original
        label carried on only one side) come back as explicit ``inf``
        values — a decode-equivalent labeling, and an exact round trip
        whenever the original to/from key sets matched (the invariant of
        every labeling the construction produces).
        """
        labels: Dict[NodeId, DistanceLabel] = {}
        for i in range(self.num_nodes):
            v = self.ids[i]
            lab = DistanceLabel(v)
            for e in range(int(self.offsets[i]), int(self.offsets[i + 1])):
                lab.set_entry(
                    self.ids[int(self.hubs[e])],
                    float(self.to_hub[e]),
                    float(self.from_hub[e]),
                )
            labels[v] = lab
        return DistanceLabeling(labels)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, v: NodeId) -> bool:
        i = self.index.get(v)
        return i is not None and i < self.num_nodes

    def vertices(self) -> Tuple[NodeId, ...]:
        return self.ids[: self.num_nodes]

    @property
    def total_entries(self) -> int:
        return len(self.hubs)

    @property
    def max_entries(self) -> int:
        if self.num_nodes == 0:
            return 0
        return max(
            int(self.offsets[i + 1]) - int(self.offsets[i])
            for i in range(self.num_nodes)
        )

    @property
    def is_memory_mapped(self) -> bool:
        """Whether the entry arrays are read-only views of a mapped file."""
        return self._mapped

    @property
    def array_bytes(self) -> int:
        """Total bytes of the four packed arrays (mapped or heap)."""
        n, e = self.num_nodes, len(self.hubs)
        return 8 * (n + 1) + 8 * e + 8 * e + 8 * e

    def stats(self) -> Dict[str, object]:
        """Size/residency accounting: array bytes, and how many are mapped
        from the store file rather than copied onto the heap."""
        return {
            "num_nodes": self.num_nodes,
            "table_len": len(self.ids),
            "total_entries": self.total_entries,
            "array_bytes": self.array_bytes,
            "mapped_bytes": self.array_bytes if self._mapped else 0,
            "copied_label_bytes": 0 if self._mapped else self.array_bytes,
            "backend": "numpy" if self._np is not None else "pure",
        }

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _vertex_index(self, v: NodeId) -> int:
        try:
            i = self.index.get(v)
        except TypeError:  # an unhashable id names no vertex
            i = None
        if i is None or i >= self.num_nodes:
            raise LabelingError(f"no label for vertex {v!r}")
        return i

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Exact d_G(u, v) from the packed segments (one sorted merge).

        The merge runs over Python lists: each segment's hub and distance
        columns are read once (``tolist()`` on numpy), so the loop reads no
        numpy scalars.
        """
        ui = self._vertex_index(u)
        vi = self._vertex_index(v)
        if ui == vi:
            return 0.0
        offsets = self.offsets
        u_lo, u_hi = offsets[ui], offsets[ui + 1]
        v_lo, v_hi = offsets[vi], offsets[vi + 1]
        u_hubs, to_u = self.hubs[u_lo:u_hi], self.to_hub[u_lo:u_hi]
        v_hubs, from_v = self.hubs[v_lo:v_hi], self.from_hub[v_lo:v_hi]
        if self._np is not None:
            u_hubs, to_u = u_hubs.tolist(), to_u.tolist()
            v_hubs, from_v = v_hubs.tolist(), from_v.tolist()
        a_hi, b_hi = len(u_hubs), len(v_hubs)
        a = b = 0
        best = INF
        while a < a_hi and b < b_hi:
            ha = u_hubs[a]
            hb = v_hubs[b]
            if ha == hb:
                total = to_u[a] + from_v[b]
                if total < best:
                    best = total
                a += 1
                b += 1
            elif ha < hb:
                a += 1
            else:
                b += 1
        return best

    def query(self, us: Sequence[NodeId], vs: Sequence[NodeId]):
        """Batched exact distances for the pairs ``zip(us, vs)``.

        One vectorized kernel call on the numpy backend (a ``float64``
        array comes back); a python merge loop on the pure backend (a list
        of floats).  The numpy backend resolves every id in one
        ``dict.get`` pass; an unknown, unhashable or hub-only id raises
        :class:`~repro.errors.LabelingError` naming the first such id.
        """
        if len(us) != len(vs):
            raise LabelingError(
                f"query needs pairs: got {len(us)} sources, {len(vs)} targets"
            )
        np = self._np
        if np is None:
            return [self.distance(u, v) for u, v in zip(us, vs)]
        n = len(us)
        try:
            idx = np.fromiter(
                map(self.index.get, chain(us, vs)), dtype=np.int64, count=2 * n
            )
        except TypeError:  # None for an unknown id, or an unhashable id
            idx = None
        if idx is None or (n and int(idx.max()) >= self.num_nodes):
            # Some id names no vertex (slots from num_nodes on are hub-only
            # table entries): resolve one at a time to raise on the first.
            for v in chain(us, vs):
                self._vertex_index(v)
        return _label_query_batch(
            self.offsets, self.hubs, self.to_hub, self.from_hub, idx[:n], idx[n:]
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def _array_bytes_le(self, arr, typecode: str) -> bytes:
        """Serialize one column little-endian regardless of backend/host."""
        np = self._np
        if np is not None:
            dtype = "<i8" if typecode == "q" else "<f8"
            return np.ascontiguousarray(arr, dtype=dtype).tobytes()
        import array as array_mod

        a = array_mod.array(typecode, arr)
        if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
            a.byteswap()
        return a.tobytes()

    def save(self, path) -> int:
        """Write the versioned binary file; returns the bytes written."""
        id_blob = pickle.dumps(list(self.ids), protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.num_nodes, len(self.ids),
            len(self.hubs), len(id_blob),
        )
        data_start = _aligned(_HEADER.size + len(id_blob))
        buf = io.BytesIO()
        buf.write(header)
        buf.write(id_blob)
        buf.write(b"\x00" * (data_start - _HEADER.size - len(id_blob)))
        buf.write(self._array_bytes_le(self.offsets, "q"))
        buf.write(self._array_bytes_le(self.hubs, "q"))
        buf.write(self._array_bytes_le(self.to_hub, "d"))
        buf.write(self._array_bytes_le(self.from_hub, "d"))
        payload = buf.getvalue()
        with open(path, "wb") as fh:
            fh.write(payload)
        return len(payload)

    @classmethod
    def load(cls, path, mmap: bool = True, backend: str = "auto") -> "PackedLabeling":
        """Open a saved packed labeling.

        With numpy and ``mmap=True`` (the default) the file is mapped once,
        read-only, and the four arrays are plain read-only ``numpy.ndarray``
        views of that mapping — concurrent processes opening the same file
        share its physical pages, which is the zero-copy contract
        :class:`~repro.serving.store.LabelStore` is built on.  They are not
        ``np.memmap`` objects, whose Python-level element and array hooks
        would dominate a point decode (see the module docstring).
        """
        np = _resolve_backend(backend)
        with open(path, "rb") as fh:
            raw_header = fh.read(_HEADER.size)
            if len(raw_header) != _HEADER.size:
                raise LabelingError(f"truncated packed-labeling file {path!r}")
            magic, version, num_nodes, table_len, num_entries, blob_len = (
                _HEADER.unpack(raw_header)
            )
            if magic != MAGIC:
                raise LabelingError(
                    f"{path!r} is not a packed-labeling file "
                    f"(magic {magic!r}, expected {MAGIC!r})"
                )
            if version != FORMAT_VERSION:
                raise LabelingError(
                    f"unsupported packed-labeling format version {version} "
                    f"in {path!r} (supported: {FORMAT_VERSION})"
                )
            id_blob = fh.read(blob_len)
            if len(id_blob) != blob_len:
                raise LabelingError(f"truncated packed-labeling file {path!r}")
            ids = pickle.loads(id_blob)
            if len(ids) != table_len:
                raise LabelingError(
                    f"corrupt packed-labeling file {path!r}: id table length "
                    f"{len(ids)} != recorded {table_len}"
                )
            data_start = _aligned(_HEADER.size + blob_len)
            sections = [
                ("q", num_nodes + 1),
                ("q", num_entries),
                ("d", num_entries),
                ("d", num_entries),
            ]
            total = data_start + 8 * sum(count for _, count in sections)
            fh.seek(0, 2)
            if fh.tell() < total:
                raise LabelingError(f"truncated packed-labeling file {path!r}")

            if np is not None and mmap:
                mapping = mmap_mod.mmap(
                    fh.fileno(), 0, access=mmap_mod.ACCESS_READ
                )
                arrays = []
                offset = data_start
                for typecode, count in sections:
                    dtype = "<i8" if typecode == "q" else "<f8"
                    arrays.append(
                        np.frombuffer(
                            mapping, dtype=dtype, count=count, offset=offset
                        )
                    )
                    offset += 8 * count
                return cls(ids, num_nodes, *arrays, np, mapped=True)

            fh.seek(data_start)
            arrays = []
            for typecode, count in sections:
                chunk = fh.read(8 * count)
                if np is not None:
                    dtype = "<i8" if typecode == "q" else "<f8"
                    arrays.append(
                        np.frombuffer(chunk, dtype=dtype).astype(
                            np.int64 if typecode == "q" else np.float64
                        )
                    )
                else:
                    import array as array_mod

                    a = array_mod.array(typecode)
                    a.frombytes(chunk)
                    if sys.byteorder == "big":  # pragma: no cover
                        a.byteswap()
                    arrays.append(a.tolist())
            return cls(ids, num_nodes, *arrays, np, mapped=False)


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN
