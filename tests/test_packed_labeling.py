"""Oracle-exactness and round-trip suite for :mod:`repro.labeling.packed`.

The packed form is only allowed to exist because it is *bit-for-bit* the
dict decoder: every test here pins some packed query path (scalar merge,
batched kernel, pure-python fallback, memory-mapped reload) against
:func:`~repro.labeling.labels.decode_distance` on the same labels.  The
label corpus is deliberately hostile — the ~30 seeded graph families of
the engine-equivalence harness with synthetic labels whose to/from key
sets *disagree* (one-sided hubs pack as ``inf``), explicit ``inf``
entries, real built labelings including directed-unreachable (``inf``)
pairs, and labels repacked after ``apply_edge_update`` churn.
"""

from __future__ import annotations

import math
import random
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
# Real built labelings, inf pairs, and post-update repacks
# --------------------------------------------------------------------------- #
class TestBuiltLabelings:
    def _instance(self, master_seed, orientation="asymmetric", n=24):
        graph = generators.partial_k_tree(n, 3, 0.6, seed=master_seed)
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

    def test_repack_after_edge_update(self, master_seed):
        instance = self._instance(master_seed, n=18)
        labeling = build_distance_labeling(instance).labeling
        labeling.attach_instance(instance)
        rng = random.Random(master_seed + 7)
        arcs = [(e.tail, e.head) for e in instance.edges() if e.tail != e.head]
        for weight in (0.5, 17.0, INF):
            tail, head = rng.choice(arcs)
            labeling.apply_edge_update(tail, head, weight)
            packed = PackedLabeling.from_labeling(labeling)
            vertices = list(packed.vertices())
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
# The batched kernel on hand-computed arrays
# --------------------------------------------------------------------------- #
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

    def test_empty_labeling(self, tmp_path):
        packed = PackedLabeling.from_labeling(DistanceLabeling({}))
        assert len(packed) == 0
        assert packed.max_entries == 0 and packed.total_entries == 0
        assert list(packed.query([], [])) == []
        path = tmp_path / "empty.rplb"
        packed.save(path)
        assert len(PackedLabeling.load(path)) == 0
