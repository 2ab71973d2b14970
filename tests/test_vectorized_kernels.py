"""Unit tests for the vectorized-tier plumbing.

The randomized three-tier equivalence harness lives in
``test_engine_equivalence.py``; this file covers the building blocks in
isolation — :class:`PayloadSchema` packing, the numpy CSR arc-slot view,
the graceful capability fallback, the pipelined chunk-flood primitive, and
the engine-measured BCT broadcast of the labeling construction.
"""

from __future__ import annotations

import math

import pytest

from repro.congest.engine import _deliver_order
from repro.congest.message import PayloadSchema, payload_size_words
from repro.congest.network import CongestNetwork
from repro.congest.node import BroadcastAll
from repro.congest.primitives import flood_chunks
from repro.errors import SimulationError
from repro.graphs import generators
from repro.labeling.construction import build_distance_labeling


class TestPayloadSchema:
    def test_pack_unpack_roundtrip_with_tag(self):
        schema = PayloadSchema(fields=(("dist", "f8"),), tag="dist")
        payload = schema.pack(3.5)
        assert payload == ("dist", 3.5)
        assert schema.unpack(payload) == (3.5,)

    def test_size_words_matches_freeform_accounting(self):
        schema = PayloadSchema(fields=(("dist", "f8"),), tag="dist")
        assert schema.size_words == payload_size_words(("dist", 3.5))
        untagged = PayloadSchema(fields=(("a", "i8"), ("b", "f8")))
        assert untagged.size_words == payload_size_words((1, 2.0))

    def test_alloc_shapes_and_dtypes(self):
        np = pytest.importorskip("numpy")
        schema = PayloadSchema(fields=(("a", "i8"), ("b", "f8")))
        arrays = schema.alloc(7)
        assert set(arrays) == {"a", "b"}
        assert arrays["a"].dtype == np.int64 and arrays["a"].shape == (7,)
        assert arrays["b"].dtype == np.float64

    def test_mismatched_values_rejected(self):
        schema = PayloadSchema(fields=(("dist", "f8"),), tag="dist")
        with pytest.raises(ValueError):
            schema.pack(1.0, 2.0)
        with pytest.raises(ValueError):
            schema.unpack(("other", 1.0))


class TestCsrArrays:
    def test_rev_is_involution_and_edge_ids_symmetric(self, master_seed):
        np = pytest.importorskip("numpy")
        graph = generators.partial_k_tree(30, 3, seed=master_seed)
        csr = graph.to_indexed().to_arrays()
        assert np.array_equal(csr.rev[csr.rev], np.arange(csr.num_arcs))
        # The reverse arc crosses the same undirected edge...
        assert np.array_equal(csr.arc_edge_ids[csr.rev], csr.arc_edge_ids)
        # ...and goes back to the arc's owner.
        assert np.array_equal(csr.indices[csr.rev], csr.arc_owner)
        # Each undirected edge id is carried by exactly two arcs.
        assert np.array_equal(
            np.bincount(csr.arc_edge_ids, minlength=csr.num_edges),
            np.full(csr.num_edges, 2),
        )

    def test_arrays_cached_per_snapshot(self):
        pytest.importorskip("numpy")
        graph = generators.grid_graph(4, 4)
        idx = graph.to_indexed()
        assert idx.to_arrays() is idx.to_arrays()


class TestDeliverOrder:
    def test_reverse_slots_sorted_with_senders_and_permutation(self):
        np = pytest.importorskip("numpy")
        rev = np.array([3, 2, 5, 0, 4, 1])
        indices = np.array([10, 11, 12, 13, 14, 15])
        pending = np.array([2, 0, 3])
        arcs, senders, perm = _deliver_order(rev, indices, pending)
        assert arcs.tolist() == [0, 3, 5]
        assert senders.tolist() == [10, 13, 15]
        assert perm.tolist() == [3, 0, 2]


class TestGracefulFallback:
    def test_vectorized_without_kernel_runs_fast(self, master_seed):
        graph = generators.cycle_graph(9)
        net = CongestNetwork(graph, engine="vectorized")
        result = net.run(lambda u: BroadcastAll(value=u))
        assert result.engine == "fast"
        assert result.halted

    def test_unknown_engine_rejected(self):
        graph = generators.cycle_graph(5)
        with pytest.raises(SimulationError):
            CongestNetwork(graph, engine="warp")
        net = CongestNetwork(graph)
        with pytest.raises(SimulationError):
            net.run(lambda u: BroadcastAll(value=u), engine="warp")


class TestChunkFlood:
    def test_all_nodes_reassemble_in_pipelined_rounds(self, master_seed):
        graph = generators.grid_graph(5, 6)
        root = (0, 0)
        chunks = [("row", i, i * 1.5) for i in range(12)]
        net = CongestNetwork(graph, words_per_message=8)
        received, sim = flood_chunks(net, root, chunks)
        assert sim.halted
        assert set(received) == set(graph.nodes())
        assert all(out == tuple(chunks) for out in received.values())
        # Pipelining: O(D + C), far below the naive D * C sequential bound.
        d = 5 + 6 - 2
        assert sim.rounds <= d * 2 + len(chunks) + 2

    def test_single_node_root_halts_immediately(self):
        graph = generators.path_graph(1)
        net = CongestNetwork(graph)
        received, sim = flood_chunks(net, 0, [("only", 1)])
        assert sim.halted
        assert received[0] == (("only", 1),)
        assert sim.messages_sent == 0


class TestMeasuredBctBroadcast:
    def test_measured_construction_same_labels_engine_rounds(self, rng, config):
        graph = generators.partial_k_tree(24, 2, seed=rng.randrange(1 << 30))
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 9), orientation="both", seed=rng.randrange(1 << 30)
        )
        modeled = build_distance_labeling(instance, config=config)
        measured = build_distance_labeling(
            instance, config=config, measured_broadcast=True
        )
        assert modeled.measured_broadcast_rounds is None
        assert measured.measured_broadcast_rounds
        # The engine-measured broadcasts are charged to the ledger per level.
        for depth, rounds in measured.measured_broadcast_rounds.items():
            key = f"distance_labeling/level_{depth}/broadcast[measured]"
            assert measured.ledger[key] == rounds
        # Labels are identical either way (accounting only differs).
        for u in instance.nodes():
            for v in instance.nodes():
                assert measured.labeling.distance(u, v) == modeled.labeling.distance(u, v)

    def test_measured_engines_agree(self, rng, config):
        from repro.congest.engine import sharded_available
        from repro.congest.kernels import vectorized_available

        graph = generators.partial_k_tree(18, 2, seed=rng.randrange(1 << 30))
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 5), orientation="asymmetric", seed=rng.randrange(1 << 30)
        )
        engines = ["fast", "legacy"]
        if vectorized_available():
            engines.append("vectorized")  # runs the FloodingKernel per level
        if sharded_available():
            engines.append("sharded")  # same kernel across worker processes
        by_engine = {
            engine: build_distance_labeling(
                instance, config=config, measured_broadcast=True, broadcast_engine=engine
            ).measured_broadcast_rounds
            for engine in engines
        }
        for engine in engines[1:]:
            assert by_engine[engine] == by_engine["fast"], engine
