"""Oracle-exactness and round-trip suite for :mod:`repro.labeling.packed`.

The packed form is only allowed to exist because it is *bit-for-bit* the
dict decoder: every test here pins some packed query path (scalar merge,
batched kernel, pure-python fallback, memory-mapped reload) against
:func:`~repro.labeling.labels.decode_distance` on the same labels.  The
label corpus is deliberately hostile — the ~30 seeded graph families of
the engine-equivalence harness with synthetic labels whose to/from key
sets *disagree* (one-sided hubs pack as ``inf``), explicit ``inf``
entries, and real built labelings including directed-unreachable (``inf``)
pairs and labels repacked after ``DistanceLabeling.set_entry`` writes.
"""

from __future__ import annotations

import math
import mmap
import random
import re
import struct

import pytest

from repro.errors import LabelingError
from repro.graphs import generators
from repro.labeling.construction import build_distance_labeling
from repro.labeling.labels import DistanceLabel, DistanceLabeling, decode_distance
from repro.labeling.packed import (
    FORMAT_VERSION,
    MAGIC,
    PackedLabeling,
    _label_query_batch,
    numpy_or_none,
)
from test_engine_equivalence import FAMILIES, _pseudo_labeling

INF = math.inf
HAS_NUMPY = numpy_or_none() is not None


# --------------------------------------------------------------------------- #
# Corpus helpers
# --------------------------------------------------------------------------- #
def _asymmetric_labeling(graph, rng) -> DistanceLabeling:
    """A synthetic labeling whose to/from key sets disagree.

    The construction never produces one-sided entries, but the packed form
    promises exactness for *any* labeling, so the suite manufactures every
    shape the union-packing must absorb: to-only hubs, from-only hubs, and
    explicit ``inf`` distances (unreachable hubs).
    """
    nodes = graph.nodes()
    hubs = rng.sample(nodes, min(len(nodes), rng.randint(2, 6)))
    labels = {}
    for u in nodes:
        lab = DistanceLabel(u)
        for s in hubs:
            r = rng.random()
            if r < 0.50:
                lab.set_entry(s, float(rng.randint(0, 40)), float(rng.randint(0, 40)))
            elif r < 0.65:
                lab.to_dist[s] = float(rng.randint(0, 40))
            elif r < 0.80:
                lab.from_dist[s] = float(rng.randint(0, 40))
            elif r < 0.90:
                lab.set_entry(s, INF, float(rng.randint(0, 40)))
        labels[u] = lab
    return DistanceLabeling(labels)


def _sample_pairs(vertices, count, rng):
    """Seeded query pairs, always including identity pairs (the 0.0 path)."""
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(count)]
    pairs.extend((v, v) for v in vertices[: min(5, len(vertices))])
    return pairs


def _assert_oracle_exact(packed: PackedLabeling, labeling: DistanceLabeling, pairs):
    """Every packed query path equals ``decode_distance`` on these pairs."""
    expected = [
        decode_distance(labeling.label(u), labeling.label(v)) for u, v in pairs
    ]
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    # Batched (kernel on numpy, merge loop on pure), at every batch size:
    # the whole batch, and 1- and 4-pair batches.
    assert list(packed.query(us, vs)) == expected
    for size in (1, 4):
        assert list(packed.query(us[:size], vs[:size])) == expected[:size]
    # Scalar two-pointer merge.
    for (u, v), want in list(zip(pairs, expected))[:40]:
        assert packed.distance(u, v) == want


def _mapping_of(arr):
    """The object at the end of ``arr``'s ``.base`` / ``memoryview.obj`` chain."""
    obj = arr
    while True:
        nxt = obj.obj if isinstance(obj, memoryview) else getattr(obj, "base", None)
        if nxt is None:
            return obj
        obj = nxt


def assert_plain_mapped_views(packed: PackedLabeling) -> None:
    """The zero-copy contract on the arrays themselves.

    All four arrays are plain read-only ``numpy.ndarray`` views (not
    ``np.memmap``, whose Python-level hooks a point decode would pay on
    every read) of one ``mmap.mmap`` of the file.
    """
    import numpy as np

    assert packed.is_memory_mapped
    arrays = (packed.offsets, packed.hubs, packed.to_hub, packed.from_hub)
    for arr in arrays:
        assert type(arr) is np.ndarray
        assert not arr.flags.writeable
        assert isinstance(_mapping_of(arr), mmap.mmap)
    assert len({id(_mapping_of(arr)) for arr in arrays}) == 1


@pytest.fixture(params=[name for name, _ in FAMILIES])
def family_graph(request, master_seed):
    name = request.param
    builder = dict(FAMILIES)[name]
    graph = builder(master_seed + len(name))
    assert graph.num_nodes() > 0
    return graph


# --------------------------------------------------------------------------- #
# Oracle exactness across the graph families
# --------------------------------------------------------------------------- #
class TestOracleExactness:
    def test_pseudo_labeling_exact(self, family_graph, master_seed):
        labeling = _pseudo_labeling(family_graph, random.Random(master_seed + 1))
        packed = PackedLabeling.from_labeling(labeling)
        pairs = _sample_pairs(
            list(packed.vertices()), 120, random.Random(master_seed + 2)
        )
        _assert_oracle_exact(packed, labeling, pairs)

    def test_asymmetric_labels_exact_and_backend_parity(
        self, family_graph, master_seed
    ):
        labeling = _asymmetric_labeling(family_graph, random.Random(master_seed + 3))
        packed = PackedLabeling.from_labeling(labeling)
        pairs = _sample_pairs(
            list(packed.vertices()), 120, random.Random(master_seed + 4)
        )
        _assert_oracle_exact(packed, labeling, pairs)
        # The pure-python backend answers the identical floats.
        pure = PackedLabeling.from_labeling(labeling, backend="pure")
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        assert pure.query(us, vs) == list(packed.query(us, vs))

    def test_round_trip_through_to_labeling(self, family_graph, master_seed):
        labeling = _pseudo_labeling(family_graph, random.Random(master_seed + 5))
        packed = PackedLabeling.from_labeling(labeling)
        back = packed.to_labeling()
        # The pseudo labeling stores matching key sets, so the round trip is
        # exact label-for-label (DistanceLabel equality ignores the hub-order
        # cache).
        assert set(back.vertices()) == set(labeling.vertices())
        for v in labeling.vertices():
            assert back.label(v) == labeling.label(v)

    def test_asymmetric_round_trip_is_decode_equivalent(self, master_seed):
        graph = generators.partial_k_tree(20, 2, seed=master_seed)
        labeling = _asymmetric_labeling(graph, random.Random(master_seed + 6))
        back = PackedLabeling.from_labeling(labeling).to_labeling()
        # One-sided hubs come back as explicit inf on the missing side: the
        # key sets grow to the union, but every decoded distance is equal.
        for v in labeling.vertices():
            orig, rt = labeling.label(v), back.label(v)
            assert set(rt.to_dist) == set(orig.to_dist) | set(orig.from_dist)
            assert set(rt.to_dist) == set(rt.from_dist)
        for u in labeling.vertices():
            for v in labeling.vertices():
                assert back.distance(u, v) == labeling.distance(u, v)


# --------------------------------------------------------------------------- #
# Real built labelings and inf pairs
# --------------------------------------------------------------------------- #
class TestBuiltLabelings:
    def _instance(self, master_seed, orientation="asymmetric"):
        graph = generators.partial_k_tree(24, 3, 0.6, seed=master_seed)
        return generators.to_directed_instance(
            graph, weight_range=(1, 9), orientation=orientation,
            seed=master_seed + 1,
        )

    def test_built_labeling_all_pairs_exact(self, master_seed):
        instance = self._instance(master_seed)
        labeling = build_distance_labeling(instance).labeling
        packed = PackedLabeling.from_labeling(labeling)
        vertices = list(packed.vertices())
        pairs = [(u, v) for u in vertices for v in vertices]
        _assert_oracle_exact(packed, labeling, pairs)

    def test_directed_unreachable_pairs_pack_as_inf(self, master_seed):
        # Random orientation keeps the underlying topology connected (so the
        # decomposition build succeeds) but leaves directed-unreachable
        # pairs; the packed form must answer inf exactly where the dict
        # decoder does.
        instance = self._instance(master_seed, orientation="random")
        labeling = build_distance_labeling(instance).labeling
        packed = PackedLabeling.from_labeling(labeling)
        vertices = list(packed.vertices())
        inf_pairs = 0
        for u in vertices:
            for v in vertices:
                want = labeling.distance(u, v)
                assert packed.distance(u, v) == want
                inf_pairs += want == INF
        assert inf_pairs > 0, "random orientation produced no unreachable pair"
        pairs = [(u, v) for u in vertices[:8] for v in vertices]
        _assert_oracle_exact(packed, labeling, pairs)

    @pytest.mark.parametrize("kind", ["lower", "raise", "inf", "new_hub"])
    def test_repack_after_set_entry(self, kind, master_seed):
        # DistanceLabeling.set_entry is the labeling's one write path; a
        # repack after such writes must decode exactly as the dicts do and
        # carry the updated entry counts.  The first pack warms every cached
        # hub order and entry count that the writes must invalidate.
        instance = self._instance(master_seed)
        labeling = build_distance_labeling(instance).labeling
        first = PackedLabeling.from_labeling(labeling)
        assert first.total_entries == labeling.total_entries()
        rng = random.Random(master_seed + 7)
        vertices = list(labeling.vertices())
        smallest = sorted(vertices, key=lambda v: labeling.label(v).num_entries())
        for u in smallest[:4]:
            label = labeling.label(u)
            if kind == "new_hub":
                hub = rng.choice([v for v in vertices if v not in label.to_dist])
                new = (float(rng.randint(1, 9)), float(rng.randint(1, 9)))
            else:
                hub = rng.choice(label.sorted_hubs())
                to_hub, from_hub = label.to_dist[hub], label.from_dist[hub]
                new = {
                    "lower": (to_hub / 2, from_hub / 2),
                    "raise": (to_hub + 17.0, from_hub + 17.0),
                    "inf": (INF, INF),
                }[kind]
            labeling.set_entry(u, hub, *new)
        packed = PackedLabeling.from_labeling(labeling)
        assert packed.max_entries == labeling.max_entries()
        assert packed.total_entries == labeling.total_entries()
        pairs = _sample_pairs(vertices, 150, random.Random(master_seed + 8))
        _assert_oracle_exact(packed, labeling, pairs)


# --------------------------------------------------------------------------- #
# Persistence: save/load parity and format validation
# --------------------------------------------------------------------------- #
class TestPersistence:
    def _packed(self, master_seed):
        graph = generators.grid_graph(4, 5)
        labeling = _asymmetric_labeling(graph, random.Random(master_seed + 9))
        return PackedLabeling.from_labeling(labeling), labeling

    def test_save_load_parity_across_backends(self, tmp_path, master_seed):
        packed, labeling = self._packed(master_seed)
        path = tmp_path / "labels.rplb"
        written = packed.save(path)
        assert written == path.stat().st_size

        loaded = [PackedLabeling.load(path, backend="pure")]
        assert not loaded[0].is_memory_mapped
        if HAS_NUMPY:
            mapped = PackedLabeling.load(path)
            heap = PackedLabeling.load(path, mmap=False)
            assert mapped.is_memory_mapped and not heap.is_memory_mapped
            assert mapped.stats()["copied_label_bytes"] == 0
            assert mapped.stats()["mapped_bytes"] == mapped.array_bytes
            assert heap.stats()["mapped_bytes"] == 0
            loaded += [mapped, heap]

        pairs = _sample_pairs(
            list(packed.vertices()), 60, random.Random(master_seed + 10)
        )
        for reopened in loaded:
            assert reopened.vertices() == packed.vertices()
            assert reopened.total_entries == packed.total_entries
            assert reopened.max_entries == packed.max_entries
            _assert_oracle_exact(reopened, labeling, pairs)

    def test_mapped_load_is_plain_views_answering_bit_identically(
        self, tmp_path, master_seed
    ):
        pytest.importorskip("numpy")
        # Random orientation leaves directed-unreachable (inf) pairs.
        instance = generators.to_directed_instance(
            generators.partial_k_tree(24, 3, 0.6, seed=master_seed),
            weight_range=(1, 9), orientation="random", seed=master_seed + 1,
        )
        labeling = build_distance_labeling(instance).labeling
        path = tmp_path / "built.rplb"
        PackedLabeling.from_labeling(labeling).save(path)
        mapped = PackedLabeling.load(path)
        assert_plain_mapped_views(mapped)

        vertices = list(mapped.vertices())
        pairs = [(u, v) for u in vertices for v in vertices]
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        want = [
            decode_distance(labeling.label(u), labeling.label(v)).hex()
            for u, v in pairs
        ]
        assert "inf" in want
        loads = {
            "mapped": mapped,
            "heap": PackedLabeling.load(path, mmap=False),
            "pure": PackedLabeling.load(path, backend="pure"),
        }
        for name, packed in loads.items():
            assert [packed.distance(u, v).hex() for u, v in pairs] == want, name
            assert [float(x).hex() for x in packed.query(us, vs)] == want, name

    def test_pure_save_reloads_identically(self, tmp_path, master_seed):
        graph = generators.cycle_graph(9)
        labeling = _pseudo_labeling(graph, random.Random(master_seed + 11))
        pure = PackedLabeling.from_labeling(labeling, backend="pure")
        path = tmp_path / "pure.rplb"
        pure.save(path)
        back = PackedLabeling.load(path, backend="pure")
        for v in labeling.vertices():
            assert back.to_labeling().label(v) == pure.to_labeling().label(v)

    def test_bad_magic_rejected(self, tmp_path, master_seed):
        packed, _ = self._packed(master_seed)
        path = tmp_path / "bad.rplb"
        packed.save(path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(LabelingError, match="magic"):
            PackedLabeling.load(path)

    def test_unsupported_version_rejected(self, tmp_path, master_seed):
        packed, _ = self._packed(master_seed)
        path = tmp_path / "vnext.rplb"
        packed.save(path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(LabelingError, match="version"):
            PackedLabeling.load(path)

    def test_truncated_file_rejected(self, tmp_path, master_seed):
        packed, _ = self._packed(master_seed)
        path = tmp_path / "trunc.rplb"
        packed.save(path)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        for cut in (3, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(LabelingError, match="truncated"):
                PackedLabeling.load(path)

    def test_unknown_backend_rejected(self, master_seed):
        _, labeling = self._packed(master_seed)
        with pytest.raises(LabelingError, match="backend"):
            PackedLabeling.from_labeling(labeling, backend="fortran")


# --------------------------------------------------------------------------- #
# The batched kernel on hand-computed and random arrays
# --------------------------------------------------------------------------- #
def _merge_reference(offsets, hubs, to_hub, from_hub, u_idx, v_idx):
    """Pair by pair, the scalar two-pointer merge that the kernel batches."""
    offsets, hubs = offsets.tolist(), hubs.tolist()
    to_hub, from_hub = to_hub.tolist(), from_hub.tolist()
    out = []
    for u, v in zip(u_idx.tolist(), v_idx.tolist()):
        if u == v:
            out.append(0.0)
            continue
        best = INF
        a, a_hi = offsets[u], offsets[u + 1]
        b, b_hi = offsets[v], offsets[v + 1]
        while a < a_hi and b < b_hi:
            if hubs[a] == hubs[b]:
                total = to_hub[a] + from_hub[b]
                if total < best:
                    best = total
                a += 1
                b += 1
            elif hubs[a] < hubs[b]:
                a += 1
            else:
                b += 1
        out.append(best)
    return out


def _random_segments(np, rng, num_nodes, table_len, max_entries, hub_pool=None):
    """Seeded CSR arrays: every fourth segment empty, sorted hub ids drawn
    from the whole table (slots from ``num_nodes`` on are hub-only), and
    distances that are ``inf``, 0.0 or fractional.
    ``hub_pool(i)``, when given, is the set vertex ``i`` draws its hubs from.
    """
    offsets, hubs, to_hub, from_hub = [0], [], [], []

    def dist():
        r = rng.random()
        return INF if r < 0.15 else 0.0 if r < 0.3 else rng.random() * 50.0

    for i in range(num_nodes):
        pool = range(table_len) if hub_pool is None else hub_pool(i)
        k = 0 if i % 4 == 1 else rng.randint(1, min(max_entries, len(pool)))
        for h in sorted(rng.sample(pool, k)):
            hubs.append(h)
            to_hub.append(dist())
            from_hub.append(dist())
        offsets.append(len(hubs))
    return (
        np.array(offsets, dtype=np.int64),
        np.array(hubs, dtype=np.int64),
        np.array(to_hub, dtype=np.float64),
        np.array(from_hub, dtype=np.float64),
    )


def _random_batch(np, rng, vertices, size):
    """``size`` seeded pairs over ``vertices``: every 7th an identity pair,
    every 11th a repeat of an earlier pair."""
    us = [rng.choice(vertices) for _ in range(size)]
    vs = [rng.choice(vertices) for _ in range(size)]
    for i in range(0, size, 7):
        vs[i] = us[i]
    for i in range(5, size, 11):
        j = rng.randrange(i)
        us[i], vs[i] = us[j], vs[j]
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


class TestQueryKernel:
    def test_label_query_batch(self):
        np = pytest.importorskip("numpy")
        # Three labels over hub table {0, 1, 2}:
        #   vertex 0: hubs {0, 1}  to (1, 5)   from (2, 1)
        #   vertex 1: hubs {1, 2}  to (3, inf) from (4, 7)
        #   vertex 2: hubs {}      (empty label)
        offsets = np.array([0, 2, 4, 4], dtype=np.int64)
        hubs = np.array([0, 1, 1, 2], dtype=np.int64)
        to_hub = np.array([1.0, 5.0, 3.0, INF], dtype=np.float64)
        from_hub = np.array([2.0, 1.0, 4.0, 7.0], dtype=np.float64)
        u_idx = np.array([0, 1, 0, 2, 1], dtype=np.int64)
        v_idx = np.array([1, 0, 0, 1, 2], dtype=np.int64)
        out = _label_query_batch(offsets, hubs, to_hub, from_hub, u_idx, v_idx)
        # (0→1): only shared hub 1, 5 + 4 = 9.  (1→0): hub 1, 3 + 1 = 4.
        # (0→0): identity 0.  (2→1): no shared hub → inf.  (1→2): empty → inf.
        assert out.tolist() == [9.0, 4.0, 0.0, INF, INF]

    @pytest.mark.parametrize(
        "num_nodes, table_len, max_entries",
        [(30, 45, 8), (400, 520, 40)],
        ids=["small", "wide"],
    )
    @pytest.mark.parametrize("size", [0, 1, 1500])
    def test_matches_scalar_merge_on_random_segments(
        self, num_nodes, table_len, max_entries, size, master_seed
    ):
        np = pytest.importorskip("numpy")
        rng = random.Random(master_seed * 7 + num_nodes + size)
        arrays = _random_segments(np, rng, num_nodes, table_len, max_entries)
        assert int(arrays[1].max()) >= num_nodes, "no hub-only table slot"
        u_idx, v_idx = _random_batch(np, rng, range(num_nodes), size)
        out = _label_query_batch(*arrays, u_idx, v_idx)
        want = np.array(
            _merge_reference(*arrays, u_idx, v_idx), dtype=np.float64
        )
        assert out.dtype == np.float64 and out.shape == (size,)
        assert out.tobytes() == want.tobytes()
        if size > 1:
            # The batch covers every shape: a finite sum, inf (one side
            # inf or no shared hub) and identity zeros.
            others = want[u_idx != v_idx]
            assert np.isfinite(others).any() and np.isinf(others).any()
            assert (u_idx == v_idx).any()

    def test_batch_where_no_pair_shares_a_hub(self, master_seed):
        np = pytest.importorskip("numpy")
        rng = random.Random(master_seed + 29)
        # Even vertices draw even hubs, odd vertices odd hubs, and every pair
        # joins an even vertex to an odd one.
        arrays = _random_segments(
            np, rng, 60, 90, 12, hub_pool=lambda i: range(i % 2, 90, 2)
        )
        us = np.array([rng.randrange(0, 60, 2) for _ in range(500)], dtype=np.int64)
        vs = np.array([rng.randrange(1, 60, 2) for _ in range(500)], dtype=np.int64)
        for u_idx, v_idx in ((us, vs), (vs, us)):
            out = _label_query_batch(*arrays, u_idx, v_idx)
            want = np.array(_merge_reference(*arrays, u_idx, v_idx))
            assert np.isinf(want).all()
            assert out.tobytes() == want.tobytes()


# --------------------------------------------------------------------------- #
# API edges
# --------------------------------------------------------------------------- #
class TestApiEdges:
    def test_unknown_vertex_raises(self, master_seed):
        graph = generators.path_graph(6)
        labeling = _pseudo_labeling(graph, random.Random(master_seed + 12))
        packed = PackedLabeling.from_labeling(labeling)
        v = next(iter(packed.vertices()))
        with pytest.raises(LabelingError, match="no label"):
            packed.distance(v, "missing")
        with pytest.raises(LabelingError, match="no label"):
            packed.query([v] * 6, ["missing"] * 6)
        # An unhashable id names no vertex either.
        with pytest.raises(LabelingError, match="no label"):
            packed.distance(v, [1])
        with pytest.raises(LabelingError, match="no label"):
            packed.query([v] * 6, [[1]] * 6)

    def test_mismatched_batch_lengths_raise(self, master_seed):
        graph = generators.path_graph(4)
        packed = PackedLabeling.from_labeling(
            _pseudo_labeling(graph, random.Random(master_seed + 13))
        )
        v = next(iter(packed.vertices()))
        with pytest.raises(LabelingError, match="pairs"):
            packed.query([v, v], [v])

    def test_non_vertex_hubs_extend_the_table(self):
        lab = DistanceLabel("b")
        lab.set_entry("hub-only", 3.0, 4.0)
        labeling = DistanceLabeling({"a": DistanceLabel("a"), "b": lab})
        labeling.set_entry("a", "hub-only", 1.0, 2.0)
        packed = PackedLabeling.from_labeling(labeling)
        assert packed.num_nodes == 2
        assert len(packed.ids) == 3
        assert "hub-only" in packed.ids
        assert "hub-only" not in packed  # hubs are not queryable vertices
        assert packed.distance("a", "b") == 1.0 + 4.0
        assert decode_distance(labeling.label("a"), labeling.label("b")) == 5.0

    def test_mapped_query_rejects_ids_with_no_label(self, tmp_path):
        pytest.importorskip("numpy")
        lab = DistanceLabel("b")
        lab.set_entry("hub-only", 3.0, 4.0)
        labeling = DistanceLabeling({"a": DistanceLabel("a"), "b": lab})
        labeling.set_entry("a", "hub-only", 1.0, 2.0)
        path = tmp_path / "hubs.rplb"
        PackedLabeling.from_labeling(labeling).save(path)
        packed = PackedLabeling.load(path)
        assert packed.is_memory_mapped and "hub-only" in packed.ids
        # An unknown id, an unhashable id and a hub-only table slot, on
        # either side of the batch: the error names the offending id.
        for bad in ("missing", [1], "hub-only"):
            msg = re.escape(f"no label for vertex {bad!r}")
            for us, vs in (([bad, "a"], ["a", "b"]), (["a", "b"], ["b", bad])):
                with pytest.raises(LabelingError, match=msg):
                    packed.query(us, vs)
        out = packed.query(["a", "b"], ["b", "a"])
        assert out.dtype == "float64" and out.tolist() == [5.0, 5.0]

    def test_empty_labeling(self, tmp_path):
        packed = PackedLabeling.from_labeling(DistanceLabeling({}))
        assert len(packed) == 0
        assert packed.max_entries == 0 and packed.total_entries == 0
        assert list(packed.query([], [])) == []
        path = tmp_path / "empty.rplb"
        packed.save(path)
        assert len(PackedLabeling.load(path)) == 0


# --------------------------------------------------------------------------- #
# The batch kernel against the dict decoder at serving scale
# --------------------------------------------------------------------------- #
@pytest.mark.scale
def test_mapped_queries_match_decode_at_serving_scale(tmp_path, master_seed):
    """A 5×200 grid with asymmetric weights 1–9, the shape of the repo
    benchmark's ``grid5x200`` serving corpus: 20,000 seeded pairs through the
    mapped store, in one call and in 256-pair batches, each answer equal to
    ``decode_distance`` by ``float.hex``."""
    pytest.importorskip("numpy")
    instance = generators.to_directed_instance(
        generators.grid_graph(5, 200), weight_range=(1, 9),
        orientation="asymmetric", seed=master_seed,
    )
    labeling = build_distance_labeling(instance).labeling
    path = tmp_path / "grid5x200.rplb"
    PackedLabeling.from_labeling(labeling).save(path)
    packed = PackedLabeling.load(path)
    assert packed.is_memory_mapped
    pairs = _sample_pairs(list(packed.vertices()), 20_000, random.Random(master_seed))
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    want = [
        decode_distance(labeling.label(u), labeling.label(v)).hex()
        for u, v in pairs
    ]
    assert [d.hex() for d in packed.query(us, vs).tolist()] == want
    batched = []
    for lo in range(0, len(pairs), 256):
        batched.extend(packed.query(us[lo:lo + 256], vs[lo:lo + 256]).tolist())
    assert [d.hex() for d in batched] == want
