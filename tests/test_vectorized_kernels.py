"""Unit tests for the vectorized-tier plumbing.

The randomized three-tier equivalence harness lives in
``test_engine_equivalence.py``; this file covers the building blocks in
isolation — :class:`PayloadSchema` packing, the numpy CSR arc-slot view,
the graceful capability fallback, the pipelined chunk-flood primitive, and
the engine-measured BCT broadcast of the labeling construction.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.congest.engine import EngineFallbackWarning, _deliver_order
from repro.congest.kernels import FloodingKernel
from repro.congest.message import PayloadSchema, payload_size_words
from repro.congest.network import CongestNetwork
from repro.congest.node import BroadcastAll
from repro.congest.primitives import flood_chunks
from repro.errors import LabelingError, SimulationError
from repro.graphs import generators
from repro.labeling import construction
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
    """Engine-tier fallbacks emit exactly one EngineFallbackWarning naming
    the reason."""

    def _run(self, engine):
        net = CongestNetwork(generators.cycle_graph(9))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            result = net.run(lambda u: BroadcastAll(value=u), engine=engine)
        return result, [w for w in rec if issubclass(w.category, EngineFallbackWarning)]

    def test_vectorized_without_kernel_runs_fast(self, master_seed):
        graph = generators.cycle_graph(9)
        net = CongestNetwork(graph)
        result = net.run(lambda u: BroadcastAll(value=u), engine="vectorized")
        assert result.engine == "fast"
        assert result.halted

    def test_vectorized_without_kernel_warns_exactly_once(self):
        result, fallbacks = self._run("vectorized")
        assert result.engine == "fast"
        assert len(fallbacks) == 1
        assert "no RoundKernel" in str(fallbacks[0].message)
        assert "engine='fast'" in str(fallbacks[0].message)

    def test_fast_and_legacy_do_not_warn(self):
        for engine in ("fast", "legacy"):
            result, fallbacks = self._run(engine)
            assert result.engine == engine
            assert fallbacks == []

    def test_vectorized_request_attaches_protocol_kernels(self):
        """A kernel-tier request through a helper function must get the
        protocol kernel the helper attaches — no spurious fallback
        warning."""
        pytest.importorskip("numpy")
        net = CongestNetwork(generators.grid_graph(4, 4))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            _, result = flood_chunks(
                net, (0, 0), [("c", 1), ("c", 2)], engine="vectorized"
            )
        fallbacks = [w for w in rec if issubclass(w.category, EngineFallbackWarning)]
        assert result.engine == "vectorized"
        assert fallbacks == []

    def test_unknown_engine_rejected(self):
        graph = generators.cycle_graph(5)
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

    def test_append_orders_each_arcs_entries_by_sender(self):
        """Entries appended to one arc in one call land after its tail in
        ascending sender index, whatever their order in the call."""
        np = pytest.importorskip("numpy")
        state = {
            "queue": np.zeros((3, 4), dtype="i1"),
            "tail": np.array([1, 0, 0], dtype="i1"),
        }
        FloodingKernel._append(
            state,
            arcs=np.array([2, 0, 0, 2]),
            senders=np.array([5, 3, 1, 0]),
            chunks=np.array([7, 8, 9, 6]),
            n=6,
        )
        assert state["tail"].tolist() == [3, 0, 2]
        assert state["queue"][0, 1:3].tolist() == [9, 8]
        assert state["queue"][2, :2].tolist() == [6, 7]

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

    @pytest.mark.parametrize("engine", ["fast", "vectorized"])
    def test_unreached_part_raises(self, engine, monkeypatch):
        """A part the flood cannot cover (here {0, 1} and {4, 5} of a
        6-path, disconnected once 2 and 3 are left out) must not be charged
        as a complete broadcast."""
        from repro.congest import kernels

        if engine == "vectorized":
            pytest.importorskip("numpy")
        else:
            monkeypatch.setattr(kernels, "vectorized_available", lambda: False)
        with pytest.raises(LabelingError, match="4 vertices left 2 of them unreached"):
            construction._measured_bct_broadcast(
                generators.path_graph(6),
                frozenset({0, 1, 4, 5}),
                [("v", 0), ("v", 1), ("e", 0, 1, 1.0)],
            )

    def test_default_engine_is_array_tier_without_fallback(self, rng, config, monkeypatch):
        """The measured broadcast floods on ``vectorized`` when numpy is
        importable and on ``fast`` when it is not, warning in neither case,
        and both measure the same rounds."""
        import warnings

        from repro.congest import kernels
        from repro.congest.engine import EngineFallbackWarning

        graph = generators.partial_k_tree(24, 2, seed=rng.randrange(1 << 30))
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 9), orientation="both", seed=rng.randrange(1 << 30)
        )
        engines = []

        def spy(*args, **kwargs):
            received, sim = flood_chunks(*args, **kwargs)
            engines.append(sim.engine)
            return received, sim

        def measure():
            engines.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", EngineFallbackWarning)
                result = build_distance_labeling(
                    instance, config=config, measured_broadcast=True
                )
            return set(engines), result.measured_broadcast_rounds

        monkeypatch.setattr(construction, "flood_chunks", spy)
        with_numpy = measure() if kernels.vectorized_available() else None
        monkeypatch.setattr(kernels, "vectorized_available", lambda: False)
        without_numpy = measure()
        assert without_numpy[0] == {"fast"}
        assert without_numpy[1]
        if with_numpy is not None:
            assert with_numpy == ({"vectorized"}, without_numpy[1])
