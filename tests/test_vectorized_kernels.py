"""Unit tests for the vectorized-tier plumbing.

The randomized three-tier equivalence harness lives in
``test_engine_equivalence.py``; this file covers the building blocks in
isolation — :class:`PayloadSchema` packing, the numpy CSR arc-slot view,
the graceful capability fallback, the pipelined chunk-flood primitive, the
engine-measured BCT broadcast of the labeling construction, and the tier of
SSSP's measured label broadcast.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.congest.engine import EngineFallbackWarning, SimulationTrace, _deliver_order
from repro.congest.kernels import FloodingKernel, PackedInbox
from repro.congest.message import PayloadSchema, payload_size_words
from repro.congest.network import CongestNetwork
from repro.congest.node import BroadcastAll
from repro.congest.primitives import flood_chunks
from repro.errors import LabelingError, SimulationError
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.labeling import construction
from repro.labeling.construction import build_distance_labeling
from repro.labeling.sssp import single_source_shortest_paths


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

    @staticmethod
    def _step(kernel, state, csr, sends):
        """Deliver ``sends`` the way the engine does and run one round."""
        np = pytest.importorskip("numpy")
        pending = np.flatnonzero(sends.mask)
        arcs, senders, perm = _deliver_order(csr.rev, csr.indices, pending)
        inbox = PackedInbox(arcs, {"chunk": sends.values["chunk"][perm]})
        return kernel.round(state, inbox, senders, csr)

    def test_delivery_ahead_of_the_learned_chunks_raises(self):
        """A synchronous flood delivers chunk k to a node only after it
        learned chunks 0..k-1; a crafted inbox that breaks this fails loudly
        instead of being queued."""
        np = pytest.importorskip("numpy")
        csr = generators.path_graph(3).to_indexed().to_arrays()
        kernel = FloodingKernel(0, ["a", "b", "c"])
        state = {}
        sends = self._step(kernel, state, csr, kernel.init(state, csr))
        assert state["learned"].tolist() == [3, 1, 0]
        slot = int(csr.rev[csr.indptr[0]])  # node 1's arc from the root
        inbox = PackedInbox(np.array([slot]), {"chunk": np.array([2])})
        with pytest.raises(SimulationError, match="delivered chunk 2 to node 1"):
            kernel.round(state, inbox, np.array([0]), csr)

    def test_teacher_is_the_lowest_index_sender(self):
        """Diamond 0-{9, 10}-3: node 3 gets each chunk from 9 and 10 in the
        same round and excludes only its teacher, the lower-index sender 9
        (the second of its CSR slots, which list neighbours in ``str``
        order).  The arc back to 10 still carries the chunk, and the
        traces match ``fast``."""
        pytest.importorskip("numpy")
        graph = Graph()
        for u in (0, 9, 10, 3):
            graph.add_node(u)
        for u, v in ((0, 9), (0, 10), (9, 3), (10, 3)):
            graph.add_edge(u, v)
        csr = graph.to_indexed().to_arrays()
        assert csr.node_ids == [0, 9, 10, 3]
        kernel = FloodingKernel(0, ["a", "b"])
        state = {}
        sends = kernel.init(state, csr)
        sends = self._step(kernel, state, csr, sends)  # 9 and 10 learn "a"
        sends = self._step(kernel, state, csr, sends)  # 3 learns "a" from both
        lo = int(csr.indptr[3])
        out_arcs = dict(zip(csr.indices[lo:lo + 2].tolist(), range(lo, lo + 2)))
        assert bool(sends.mask[out_arcs[2]]) and sends.values["chunk"][out_arcs[2]] == 0
        assert not sends.mask[out_arcs[1]]

        runs, traces = {}, {}
        for engine in ("fast", "vectorized"):
            traces[engine] = SimulationTrace()
            runs[engine] = flood_chunks(
                CongestNetwork(graph), 0, ["a", "b"], engine=engine, trace=traces[engine]
            )
        assert runs["vectorized"][1].engine == "vectorized"
        assert runs["vectorized"][0] == runs["fast"][0]
        assert traces["vectorized"].as_dicts() == traces["fast"].as_dicts()
        # Per chunk: the root's 2 sends, 9 -> 3, 10 -> 3 and 3 -> 10.
        assert runs["fast"][1].messages_sent == runs["vectorized"][1].messages_sent == 10

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


class TestMeasuredSsspBroadcast:
    def test_runs_on_the_array_tier_with_identical_results(self, rng, config, monkeypatch):
        """``single_source_shortest_paths(network=...)`` broadcasts la(s) on
        ``vectorized`` when numpy is importable and on ``fast`` when it is
        not, with the same rounds, traffic and decoded distances."""
        from repro.congest import kernels

        graph = generators.partial_k_tree(30, 2, seed=rng.randrange(1 << 30))
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 9), orientation="asymmetric", seed=rng.randrange(1 << 30)
        )
        labeling = build_distance_labeling(instance, config=config).labeling
        source = instance.nodes()[0]
        net = CongestNetwork(graph, words_per_message=8)

        def measure():
            with warnings.catch_warnings():
                warnings.simplefilter("error", EngineFallbackWarning)
                return single_source_shortest_paths(labeling, source, network=net)

        with_numpy = measure() if kernels.vectorized_available() else None
        monkeypatch.setattr(kernels, "vectorized_available", lambda: False)
        without_numpy = measure()
        assert without_numpy.simulation.engine == "fast"
        assert without_numpy.simulation.halted
        if with_numpy is None:
            return
        a, b = with_numpy.simulation, without_numpy.simulation
        assert a.engine == "vectorized"
        assert (a.rounds, a.messages_sent, a.words_sent, a.max_words_per_edge_round) == (
            b.rounds, b.messages_sent, b.words_sent, b.max_words_per_edge_round
        )
        assert a.outputs == b.outputs
        assert with_numpy.rounds == without_numpy.rounds == a.rounds
        assert with_numpy.distances == without_numpy.distances
