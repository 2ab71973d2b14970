"""Unit tests for the sharded-execution plumbing.

The randomized four-tier equivalence harness lives in
``test_engine_equivalence.py``; this file covers the building blocks in
isolation — :class:`ShardPlan` geometry (contiguous ranges, boundary
classification, packed exchange tables), the worker's masked boundary
scatter, the :class:`StateSchema` shard-local allocation mode and
per-shard arena segments, the per-shard run-header slices
(``RoundKernel.slice_for_shard``), the persistent :class:`ShardPool`
(reuse, resize, crash recovery, lifecycle), shared-memory hygiene under
hard worker kills, the single-warning graceful fallback ladder (including
the shard-aware-init requirement and num_shards clamping), custom shard
plans, and worker failure propagation.
"""

from __future__ import annotations

import warnings

import pytest

from repro.congest.engine import (
    EngineFallbackWarning,
    default_num_shards,
    run_sharded,
    sharded_available,
)
from repro.congest.kernels import (
    FloodingKernel,
    PackedInbox,
    StateSchema,
    StateVector,
    vectorized_available,
)
from repro.congest.network import CongestNetwork
from repro.congest.node import BroadcastAll
from repro.errors import GraphError, SimulationError
from repro.graphs import generators
from repro.graphs.sharding import Shard, ShardPlan

needs_numpy = pytest.mark.skipif(not vectorized_available(), reason="numpy unavailable")
needs_sharded = pytest.mark.skipif(
    not sharded_available(), reason="numpy/shared-memory unavailable"
)


class ExplodingKernel(FloodingKernel):
    """Raises inside a worker round (module-level: sharded kernels ship to
    the pool workers by pickle, so they must not be test-local classes)."""

    def round(self, state, inbox, inbox_senders, csr, shard):
        raise RuntimeError("boom in shard worker")


class SuicidalKernel(FloodingKernel):
    """Hard-kills the shard-1 worker mid-round (simulates a crash with no
    cleanup path at all — not even an exception handler runs)."""

    def round(self, state, inbox, inbox_senders, csr, shard):
        if shard.index == 1:
            import os
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        return super().round(state, inbox, inbox_senders, csr, shard)


def _bf_instance(master_seed, n):
    graph = generators.partial_k_tree(n, 3, seed=master_seed)
    return generators.to_directed_instance(
        graph, weight_range=(1, 9), orientation="asymmetric", seed=master_seed
    )


@needs_numpy
class TestShardPlanGeometry:
    def _csr(self, master_seed, n=40, k=3):
        graph = generators.partial_k_tree(n, k, seed=master_seed)
        return graph.to_indexed().to_arrays()

    def test_balanced_partition_covers_and_is_contiguous(self, master_seed):
        import numpy as np

        csr = self._csr(master_seed)
        for num_shards in (1, 2, 3, 5, 8):
            plan = ShardPlan.balanced(csr, num_shards)
            assert plan.num_shards == num_shards
            assert plan.node_starts[0] == 0 and plan.node_starts[-1] == csr.num_nodes
            # Every node in exactly one shard; arc ranges are the CSR slices.
            seen_nodes = 0
            seen_arcs = 0
            for shard in plan:
                assert shard.num_nodes >= 1  # balanced() never makes empty shards
                assert shard.arc_lo == int(csr.indptr[shard.node_lo])
                assert shard.arc_hi == int(csr.indptr[shard.node_hi])
                seen_nodes += shard.num_nodes
                seen_arcs += shard.num_arcs
                assert np.all(plan.shard_of_node[shard.node_slice] == shard.index)
            assert seen_nodes == csr.num_nodes
            assert seen_arcs == csr.num_arcs

    def test_balanced_is_arc_balanced(self, master_seed):
        csr = self._csr(master_seed, n=120, k=3)
        plan = ShardPlan.balanced(csr, 4)
        sizes = [shard.num_arcs for shard in plan]
        # No shard more than ~2x the ideal quota (contiguity + degree
        # granularity allow some slack, but the cuts must track the quota).
        assert max(sizes) <= 2 * (csr.num_arcs / 4) + max(
            int(csr.indptr[i + 1] - csr.indptr[i]) for i in range(csr.num_nodes)
        )

    def test_num_shards_clamped_to_nodes(self, master_seed):
        csr = generators.path_graph(3).to_indexed().to_arrays()
        plan = ShardPlan.balanced(csr, 12)
        assert plan.num_shards == 3
        assert all(shard.num_nodes == 1 for shard in plan)

    def test_boundary_classification_matches_rev(self, master_seed):
        import numpy as np

        csr = self._csr(master_seed)
        plan = ShardPlan.balanced(csr, 4)
        mask = plan.boundary_arc_mask
        # Boundary is symmetric: an arc and its reverse cross together.
        assert np.array_equal(mask[csr.rev], mask)
        for shard in plan:
            out = plan.boundary_out(shard.index)
            # Published slots are exactly the owned arcs whose reverse arc
            # lies outside the shard's slot range.
            rev_out = csr.rev[out]
            assert np.all((out >= shard.arc_lo) & (out < shard.arc_hi))
            assert np.all((rev_out < shard.arc_lo) | (rev_out >= shard.arc_hi))
            # The rev-gather table is the rev slice of the owned slots, and
            # its interior flags complement the foreign sources.
            sources = plan.inbox_sources(shard.index)
            assert np.array_equal(sources, csr.rev[shard.arc_slice])
            interior = plan.interior_inbox(shard.index)
            foreign = sources[~interior]
            assert np.all((foreign < shard.arc_lo) | (foreign >= shard.arc_hi))
            assert np.all(
                (sources[interior] >= shard.arc_lo) & (sources[interior] < shard.arc_hi)
            )
        # Every foreign source of shard s is some other shard's boundary slot.
        published = np.concatenate(
            [plan.boundary_out(s) for s in range(plan.num_shards)]
        )
        gathered = np.concatenate(
            [
                plan.inbox_sources(s)[~plan.interior_inbox(s)]
                for s in range(plan.num_shards)
            ]
        )
        assert np.array_equal(np.sort(published), np.sort(gathered))

    def test_single_and_full_shard(self, master_seed):
        csr = self._csr(master_seed)
        plan = ShardPlan.single(csr)
        assert plan.num_shards == 1
        shard = plan.shard(0)
        full = Shard.full(csr)
        assert (shard.node_lo, shard.node_hi) == (full.node_lo, full.node_hi)
        assert (shard.arc_lo, shard.arc_hi) == (full.arc_lo, full.arc_hi)
        assert plan.num_boundary_arcs == 0
        assert plan.boundary_fraction == 0.0

    def test_describe_and_validation(self, master_seed):
        csr = self._csr(master_seed)
        plan = ShardPlan.balanced(csr, 3)
        desc = plan.describe()
        assert desc["num_shards"] == 3
        assert sum(desc["arcs_per_shard"]) == csr.num_arcs
        assert 0.0 <= desc["boundary_fraction"] <= 1.0
        with pytest.raises(GraphError):
            ShardPlan(csr, [0, csr.num_nodes + 1])
        with pytest.raises(GraphError):
            ShardPlan(csr, [0, 5, 3, csr.num_nodes])
        with pytest.raises(GraphError):
            # A zero-range shard (worker with no nodes) is refused outright.
            ShardPlan(csr, [0, 5, 5, csr.num_nodes])
        with pytest.raises(GraphError):
            plan.shard(3)

    def test_exchange_tables_cover_every_inbox_slot(self, master_seed):
        """The packed exchange tables partition each shard's inbox slots into
        interior + per-peer groups, and the peer lookups resolve to exactly
        the source arc's position inside the peer's packed boundary table."""
        import numpy as np

        csr = self._csr(master_seed)
        plan = ShardPlan.balanced(csr, 4)
        for shard in plan:
            ex = plan.exchange(shard.index)
            lo = shard.arc_lo
            sources = plan.inbox_sources(shard.index)
            covered = [ex.int_slots]
            # Interior entries point at shard-local source arcs.
            assert np.array_equal(sources[ex.int_slots] - lo, ex.int_src)
            for p in ex.peers:
                assert p.peer != shard.index
                covered.append(p.recv_slots)
                src_global = sources[p.recv_slots]
                t_lo = int(plan.arc_starts[p.peer])
                assert np.array_equal(src_global - t_lo, p.src_local)
                # Packed positions index the peer's boundary_out table.
                bout = plan.boundary_out(p.peer)
                assert np.array_equal(bout[p.src_packed], src_global)
            covered = np.sort(np.concatenate(covered))
            assert np.array_equal(covered, np.arange(shard.num_arcs))


@needs_numpy
class TestShardViews:
    def test_packed_inbox_shard_views_partition_global_inbox(self, master_seed):
        import numpy as np

        csr = generators.grid_graph(5, 5).to_indexed().to_arrays()
        plan = ShardPlan.balanced(csr, 3)
        arcs = np.arange(0, csr.num_arcs, 2, dtype=np.int64)  # every other slot
        inbox = PackedInbox(arcs, {"x": arcs.astype(np.float64)})
        pieces = [inbox.shard_view(shard) for shard in plan]
        assert np.array_equal(np.concatenate([p.arcs for p in pieces]), arcs)
        assert np.array_equal(
            np.concatenate([p["x"] for p in pieces]), inbox["x"]
        )
        # Each piece lies inside its shard's slot range.
        for shard, piece in zip(plan, pieces):
            if len(piece):
                assert piece.arcs.min() >= shard.arc_lo
                assert piece.arcs.max() < shard.arc_hi

    def test_packed_exchange_gather_matches_global_delivery(self, master_seed):
        """Simulate one round's sends with a random mask and payload, gather
        each shard's inbox through the packed exchange tables (the worker's
        per-round procedure), and check it equals the global rev-delivery —
        i.e. each shard's :meth:`PackedInbox.shard_view` of the full round."""
        import numpy as np
        import random

        csr = generators.grid_graph(6, 6, diagonal=True).to_indexed().to_arrays()
        plan = ShardPlan.balanced(csr, 3)
        rng = random.Random(master_seed)
        rng2 = np.random.default_rng(master_seed)
        mask = rng2.random(csr.num_arcs) < 0.4
        payload = rng2.integers(0, 1 << 30, csr.num_arcs)

        # Global reference delivery: message on arc p lands in slot rev[p].
        sent = np.flatnonzero(mask)
        slots = np.sort(csr.rev[sent])
        global_inbox = PackedInbox(slots, {"x": payload[csr.rev[slots]]})

        for shard in plan:
            ex = plan.exchange(shard.index)
            lo = shard.arc_lo
            hitbuf = np.zeros(shard.num_arcs, dtype=bool)
            gather = np.empty(shard.num_arcs, dtype=payload.dtype)
            # Interior: read from the shard's own (local) send buffers.
            my_mask = mask[shard.arc_slice]
            my_vals = payload[shard.arc_slice]
            got = my_mask[ex.int_src]
            hitbuf[ex.int_slots[got]] = True
            gather[ex.int_slots[got]] = my_vals[ex.int_src[got]]
            # Foreign: read from each peer's packed boundary arrays.
            for p in ex.peers:
                t = plan.shard(p.peer)
                peer_mask = mask[t.arc_slice]
                packed_vals = payload[plan.boundary_out(p.peer)]
                pg = peer_mask[p.src_local]
                hitbuf[p.recv_slots[pg]] = True
                gather[p.recv_slots[pg]] = packed_vals[p.src_packed[pg]]
            hit = np.flatnonzero(hitbuf)
            expected = global_inbox.shard_view(shard)
            assert np.array_equal(lo + hit, expected.arcs)
            assert np.array_equal(gather[hit], expected["x"])

    def test_state_schema_validation(self):
        with pytest.raises(ValueError):
            StateVector("x", "edge", "f8")
        with pytest.raises(ValueError):
            StateSchema(StateVector("x", "node", "f8"), StateVector("x", "arc", "f8"))
        schema = StateSchema(
            StateVector("a", "node", "f8"), StateVector("b", "arc", "i8", cols=2)
        )
        assert schema.names() == ("a", "b")
        assert len(schema) == 2

    def test_shard_local_allocation_mode(self, master_seed):
        """StateVector.allocate(shard) covers only the shard's rows; the
        per-shard allocations of a plan tile the whole-graph allocation."""
        import numpy as np

        csr = generators.grid_graph(5, 5).to_indexed().to_arrays()
        plan = ShardPlan.balanced(csr, 3)
        schema = StateSchema(
            StateVector("a", "node", "f8"),
            StateVector("b", "arc", "i8", cols=2),
            StateVector("c", "node", "?"),
        )
        full = Shard.full(csr)
        total = schema.local_nbytes(full)
        per_shard = [schema.local_nbytes(shard) for shard in plan]
        assert sum(per_shard) == total
        assert max(per_shard) < total
        for shard in plan:
            state = schema.allocate(shard)
            assert state["a"].shape == (shard.num_nodes,)
            assert state["b"].shape == (shard.num_arcs, 2)
            assert state["c"].dtype == np.bool_
        # Whole-graph shard: the legacy full-length allocation.
        state = schema.allocate(full)
        assert state["a"].shape == (csr.num_nodes,)
        assert state["b"].shape == (csr.num_arcs, 2)


class TestBoundaryHits:
    def test_masked_scatter_collects_slots_in_order(self):
        np = pytest.importorskip("numpy")
        from repro.congest.engine import _boundary_hits

        mask = np.array([True, False, True, False])
        src_idx = np.array([0, 1, 2, 3, 0])
        slots_tab = np.array([4, 5, 6, 7, 8])
        val_idx_tab = np.array([0, 1, 2, 3, 4])
        hitbuf = np.zeros(10, dtype=bool)
        slots, val_idx = _boundary_hits(
            mask, src_idx, slots_tab, val_idx_tab, hitbuf
        )
        assert slots.tolist() == [4, 6, 8]
        assert val_idx.tolist() == [0, 2, 4]
        assert np.flatnonzero(hitbuf).tolist() == [4, 6, 8]


class TestGracefulFallbackWarnings:
    """Engine-tier fallbacks emit exactly one EngineFallbackWarning naming
    the reason (and the silent-degradation path is gone)."""

    def _run(self, engine, graph=None, **kwargs):
        net = CongestNetwork(graph if graph is not None else generators.cycle_graph(9))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            result = net.run(lambda u: BroadcastAll(value=u), engine=engine, **kwargs)
        return result, [w for w in rec if issubclass(w.category, EngineFallbackWarning)]

    def test_vectorized_without_kernel_warns_exactly_once(self):
        result, fallbacks = self._run("vectorized")
        assert result.engine == "fast"
        assert len(fallbacks) == 1
        assert "no RoundKernel" in str(fallbacks[0].message)
        assert "engine='fast'" in str(fallbacks[0].message)

    def test_sharded_without_kernel_warns_exactly_once(self):
        result, fallbacks = self._run("sharded", num_shards=2)
        assert result.engine == "fast"
        assert len(fallbacks) == 1
        assert "engine='sharded' unavailable" in str(fallbacks[0].message)
        assert "no RoundKernel" in str(fallbacks[0].message)

    @needs_sharded
    def test_sharded_with_legacy_init_falls_back_to_vectorized(self):
        """A kernel with the pre-shard whole-graph ``init(state, csr)``
        signature still runs on the vectorized tier through the compat shim,
        but a sharded request falls back (one warning naming the reason)."""
        from repro.congest.primitives import ChunkFloodNode

        class LegacyInitKernel(FloodingKernel):
            def init(self, state, csr):  # legacy 2-arg signature
                from repro.graphs.sharding import Shard

                return super().init(state, csr, Shard.full(csr))

        graph = generators.grid_graph(4, 4)
        net = CongestNetwork(graph)
        root = (0, 0)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            result = net.run(
                lambda u: ChunkFloodNode(u, root, [("c", 0)]),
                engine="sharded",
                kernel=LegacyInitKernel(root, [("c", 0)]),
            )
        fallbacks = [w for w in rec if issubclass(w.category, EngineFallbackWarning)]
        assert result.engine == "vectorized"
        assert len(fallbacks) == 1
        assert "not shard-aware" in str(fallbacks[0].message)
        # The shim result is bit-for-bit the scalar run.
        ref = net.run(lambda u: ChunkFloodNode(u, root, [("c", 0)]), engine="fast")
        assert result.outputs == ref.outputs
        assert result.rounds == ref.rounds
        assert result.words_sent == ref.words_sent

    @needs_sharded
    def test_oversized_num_shards_clamped_with_warning(self):
        """num_shards beyond the node count is clamped (no empty shards) and
        announced by exactly one EngineFallbackWarning; the run still
        executes sharded and matches the fast tier."""
        from repro.congest.primitives import flood_chunks

        graph = generators.cycle_graph(9)
        net = CongestNetwork(graph)
        ref_received, ref = flood_chunks(net, 0, [("c", 1), ("c", 2)], engine="fast")
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            received, result = flood_chunks(
                net, 0, [("c", 1), ("c", 2)], engine="sharded", num_shards=50
            )
        fallbacks = [w for w in rec if issubclass(w.category, EngineFallbackWarning)]
        assert len(fallbacks) == 1
        assert "clamped" in str(fallbacks[0].message)
        # The message contract: the warning names the requested tier and the
        # tier that actually runs, not just the clamp reason.
        assert "engine='sharded'" in str(fallbacks[0].message)
        assert "still running engine='sharded'" in str(fallbacks[0].message)
        assert result.engine == "sharded"
        assert result.shard_stats["num_shards"] == 9
        assert received == ref_received
        assert result.rounds == ref.rounds
        assert result.words_sent == ref.words_sent

    @needs_sharded
    def test_sharded_without_schema_falls_back_to_vectorized(self):
        class SchemaLess(FloodingKernel):
            def state_schema(self, csr):
                return None

        graph = generators.grid_graph(4, 4)
        net = CongestNetwork(graph)
        root = (0, 0)
        kernel = SchemaLess(root, [("c", 0)])
        from repro.congest.primitives import ChunkFloodNode

        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            result = net.run(
                lambda u: ChunkFloodNode(u, root, [("c", 0)]),
                engine="sharded",
                kernel=kernel,
            )
        fallbacks = [w for w in rec if issubclass(w.category, EngineFallbackWarning)]
        assert result.engine == "vectorized"
        assert len(fallbacks) == 1
        assert "declares no StateSchema" in str(fallbacks[0].message)

    def test_fast_and_legacy_do_not_warn(self):
        for engine in ("fast", "legacy"):
            result, fallbacks = self._run(engine)
            assert result.engine == engine
            assert fallbacks == []

    @needs_sharded
    def test_network_default_engine_attaches_protocol_kernels(self):
        """A network whose *default* engine is a kernel tier must get the
        protocol kernel from the helper functions — no explicit ``engine=``
        argument, no spurious fallback warning."""
        from repro.congest.primitives import flood_chunks

        graph = generators.grid_graph(4, 4)
        for default in ("vectorized", "sharded"):
            net = CongestNetwork(graph, engine=default)
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                _, result = flood_chunks(net, (0, 0), [("c", 1), ("c", 2)])
            fallbacks = [
                w for w in rec if issubclass(w.category, EngineFallbackWarning)
            ]
            assert result.engine == default
            assert fallbacks == []


@needs_sharded
class TestRunSharded:
    def test_custom_skewed_plan_matches_fast(self, master_seed):
        from repro.congest.bellman_ford import (
            BellmanFordKernel,
            BellmanFordNode,
            distributed_bellman_ford,
        )

        graph = generators.partial_k_tree(30, 3, seed=master_seed)
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 9), orientation="asymmetric", seed=master_seed
        )
        source = min(graph.nodes(), key=str)
        ref = distributed_bellman_ford(instance, source, engine="fast")

        comm = instance.underlying_graph()
        network = CongestNetwork(comm)
        local_inputs = {
            u: [(e.head, e.weight) for e in instance.out_edges(u)]
            for u in instance.nodes()
        }
        csr = network.indexed.to_arrays()
        n = csr.num_nodes
        plan = ShardPlan(csr, [0, 1, n - 1, n])  # deliberately unbalanced
        result = run_sharded(
            network,
            BellmanFordKernel(source, local_inputs),
            max_rounds=4 * n + 16,
            plan=plan,
        )
        assert result.engine == "sharded"
        assert result.rounds == ref.rounds
        assert result.outputs == ref.simulation.outputs
        assert result.words_sent == ref.simulation.words_sent
        assert result.max_words_per_edge_round == ref.simulation.max_words_per_edge_round

    def test_kernel_without_schema_rejected(self, master_seed):
        class SchemaLess(FloodingKernel):
            def state_schema(self, csr):
                return None

        network = CongestNetwork(generators.cycle_graph(9))
        with pytest.raises(SimulationError, match="StateSchema"):
            run_sharded(network, SchemaLess(0, [("c", 1)]), num_shards=2)

    def test_convergence_error_terminates_workers(self, master_seed):
        """max_rounds exhaustion must stop the workers cleanly (no deadlock
        on the stop barrier) and raise the same ConvergenceError as the
        single-process tiers."""
        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.errors import ConvergenceError

        graph = generators.path_graph(20)
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 5), orientation="both", seed=master_seed
        )
        for engine in ("fast", "sharded"):
            with pytest.raises(ConvergenceError):
                distributed_bellman_ford(
                    instance, 0, engine=engine, max_rounds=3, num_shards=2
                )

    def test_worker_failure_propagates(self, master_seed):
        network = CongestNetwork(generators.cycle_graph(12))
        with pytest.raises(SimulationError, match="boom in shard worker"):
            run_sharded(network, ExplodingKernel(0, [("c", 1)]), num_shards=2)

    def test_default_num_shards_bounds(self):
        assert default_num_shards(1) == 1
        assert 1 <= default_num_shards(10_000) <= 8
        assert default_num_shards(3) <= 3


@needs_sharded
class TestShardLocalArena:
    """The memory contract of the refactored tier: declared state is owned by
    shards (per-worker O((n+m)/num_shards)), and only packed boundary words
    are exchanged."""

    def _run(self, master_seed, num_shards, n=48):
        from repro.congest.bellman_ford import distributed_bellman_ford

        graph = generators.partial_k_tree(n, 3, seed=master_seed)
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 9), orientation="asymmetric", seed=master_seed
        )
        source = min(graph.nodes(), key=str)
        return distributed_bellman_ford(
            instance, source, engine="sharded", num_shards=num_shards
        )

    def test_declared_state_is_shard_local(self, master_seed):
        """Per-shard declared-state arena segments tile the whole-graph
        allocation: they sum to the one-shard total and each is a fraction
        of it — the per-worker memory drop the refactor exists for."""
        single = self._run(master_seed, 1).simulation.shard_stats
        total = sum(single["declared_state_bytes"])
        for shards in (2, 4):
            stats = self._run(master_seed, shards).simulation.shard_stats
            per_shard = stats["declared_state_bytes"]
            assert len(per_shard) == shards
            assert sum(per_shard) == total  # exact tiling, no replication
            # Arc-balanced plan: no segment above ~2x the ideal quota.
            assert max(per_shard) <= 2 * total / shards

    def test_boundary_words_counter(self, master_seed):
        """boundary_words_published counts exactly the words whose arc
        crosses a shard boundary: zero for one shard, bounded by total words
        otherwise, and consistent with the plan's boundary fraction."""
        one = self._run(master_seed, 1)
        assert one.simulation.shard_stats["boundary_words_published"] == 0
        assert one.simulation.shard_stats["boundary_messages_published"] == 0
        for shards in (2, 4):
            run = self._run(master_seed, shards)
            stats = run.simulation.shard_stats
            words = run.simulation.words_sent
            msgs = run.simulation.messages_sent
            assert 0 < stats["boundary_words_published"] < words
            assert 0 < stats["boundary_messages_published"] < msgs

    def test_arena_specs_are_per_shard_segments(self, master_seed):
        """The arena layout itself holds one state segment per shard with
        shard-local shapes (not num_shards full-length copies)."""
        import numpy as np

        from repro.congest.bellman_ford import BellmanFordKernel
        from repro.congest.engine import _arena_layout, _sharded_specs

        graph = generators.partial_k_tree(30, 3, seed=master_seed)
        csr = graph.to_indexed().to_arrays()
        plan = ShardPlan.balanced(csr, 3)
        kernel = BellmanFordKernel(0, {})
        schema = kernel.state_schema(csr)
        specs, state_bytes, exchange_bytes = _sharded_specs(
            plan, kernel.schema, schema, csr
        )
        layout, total = _arena_layout(specs)
        for shard in plan:
            s = shard.index
            assert layout[f"state:{s}:dist"][1] == (shard.num_nodes,)
            assert layout[f"state:{s}:w_arc"][1] == (shard.num_arcs,)
            boundary = int(plan.boundary_out(s).shape[0])
            for bank in (0, 1):
                assert layout[f"bvalue:{s}:dist:{bank}"][1] == (boundary,)
        assert sum(state_bytes) == schema.local_nbytes(Shard.full(csr))


@needs_sharded
class TestRunHeaderIngest:
    """The O(m/num_shards) ingest fix: ``RoundKernel.slice_for_shard`` ships
    each Bellman-Ford worker only its owned adjacency, so the per-shard
    header suffix shrinks as ~1/num_shards instead of replicating the whole
    edge payload to every worker."""

    # Fixed pickle framing overhead per suffix (class path, tuple shells,
    # shard index) that does not scale with the graph.
    SLACK = 600

    def _header(self, instance, source, shards):
        from repro.congest.bellman_ford import distributed_bellman_ford

        run = distributed_bellman_ford(
            instance, source, engine="sharded", num_shards=shards
        )
        stats = run.simulation.shard_stats
        assert stats["num_shards"] == shards
        return run, stats["run_header_bytes"]

    def test_per_shard_header_bytes_shrink(self, master_seed):
        from repro.congest.bellman_ford import distributed_bellman_ford

        instance = _bf_instance(master_seed, n=120)
        source = min(instance.nodes(), key=str)
        ref = distributed_bellman_ford(instance, source, engine="fast")
        _, single = self._header(instance, source, 1)
        whole = single["per_shard"][0]
        assert len(single["per_shard"]) == 1
        prev_max = whole + 1
        for shards in (2, 4):
            run, header = self._header(instance, source, shards)
            per_shard = header["per_shard"]
            assert len(per_shard) == shards
            # The regression the fix exists for: each worker's suffix is a
            # ~1/num_shards slice of the whole-kernel payload, not a copy.
            assert max(per_shard) <= whole / shards + self.SLACK, (
                shards, whole, per_shard,
            )
            assert max(per_shard) < prev_max
            prev_max = max(per_shard)
            # The common blob is pickled once, not per worker, and the
            # sliced kernels still produce the exact fast-tier answer.
            assert header["common"] > 0
            assert run.distances == ref.distances

    def test_slice_for_shard_defaults_to_identity(self, master_seed):
        """Kernels that don't override the hook ship unchanged."""
        from repro.congest.kernels import RoundKernel

        csr = generators.grid_graph(5, 5).to_indexed().to_arrays()
        plan = ShardPlan.balanced(csr, 3)
        kernel = FloodingKernel(root=(0, 0), chunks=[("c", 1)])
        for shard in plan:
            assert kernel.slice_for_shard(shard, csr) is kernel
        assert RoundKernel.slice_for_shard is not None

    def test_bellman_ford_slice_owns_only_shard_nodes(self, master_seed):
        from repro.congest.bellman_ford import BellmanFordKernel

        instance = _bf_instance(master_seed, n=60)
        comm = instance.underlying_graph()
        csr = comm.to_indexed().to_arrays()
        source = min(instance.nodes(), key=str)
        local_inputs = {
            u: [(e.head, e.weight) for e in instance.out_edges(u)]
            for u in instance.nodes()
        }
        kernel = BellmanFordKernel(source, local_inputs)
        plan = ShardPlan.balanced(csr, 4)
        index_of = csr.index_of
        seen = set()
        for shard in plan:
            sliced = kernel.slice_for_shard(shard, csr)
            assert type(sliced) is BellmanFordKernel
            assert sliced.source == source
            for u in sliced.local_inputs:
                assert shard.owns_node(index_of[u])
                assert sliced.local_inputs[u] == local_inputs[u]
                seen.add(u)
        # The slices tile the original inputs (restricted to graph nodes).
        assert seen == {u for u in local_inputs if u in index_of}
        # A whole-graph shard keeps the original instance (no copy churn).
        single = ShardPlan.single(csr)
        assert kernel.slice_for_shard(single.shard(0), csr) is kernel


@needs_sharded
class TestShardPool:
    def test_pool_reuse_is_bit_for_bit(self, master_seed):
        """Two consecutive sharded runs on one pool reuse the same worker
        processes and match fresh-pool and single-process runs exactly
        (results, accounting, traces)."""
        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.congest.engine import ShardPool, SimulationTrace

        instance = _bf_instance(master_seed, n=30)
        source = min(instance.nodes(), key=str)
        ref_trace = SimulationTrace()
        ref = distributed_bellman_ford(instance, source, engine="fast", trace=ref_trace)
        fresh = distributed_bellman_ford(
            instance, source, engine="sharded", num_shards=2
        )
        with ShardPool(num_shards=2) as pool:
            runs = []
            traces = []
            for _ in range(2):
                trace = SimulationTrace()
                runs.append(
                    distributed_bellman_ford(
                        instance, source, engine="sharded", shard_pool=pool, trace=trace
                    )
                )
                traces.append(trace)
            # Same worker processes served both runs; no respawn happened,
            # and the second run hit the worker-side graph cache (the helper
            # reuses one underlying-graph snapshot per instance, so the
            # cache key is stable across calls).
            assert pool.workers_started == 2
            assert pool.runs_dispatched == 2
            pids = [r.simulation.shard_stats["worker_pids"] for r in runs]
            assert pids[0] == pids[1]
            assert instance.underlying_graph() is instance.underlying_graph()
            for run, trace in zip(runs, traces):
                assert run.simulation.engine == "sharded"
                assert run.distances == ref.distances == fresh.distances
                assert run.parents == ref.parents == fresh.parents
                assert run.simulation.rounds == ref.simulation.rounds
                assert run.simulation.messages_sent == ref.simulation.messages_sent
                assert run.simulation.words_sent == ref.simulation.words_sent
                assert (
                    run.simulation.max_words_per_edge_round
                    == ref.simulation.max_words_per_edge_round
                )
                assert (
                    run.simulation.max_message_words
                    == ref.simulation.max_message_words
                )
                assert trace.as_dicts() == ref_trace.as_dicts()
        assert pool.num_workers == 0  # context manager closed the pool

    def test_pool_reuse_across_protocols_and_graphs(self, master_seed):
        """One pool serves different kernels and graphs back to back; the
        worker-side graph cache re-ships the snapshot only when it changes."""
        from repro.congest.engine import ShardPool
        from repro.congest.primitives import build_bfs_tree, flood_chunks

        g1 = generators.grid_graph(5, 5)
        g2 = generators.cycle_graph(18)
        with ShardPool(num_shards=2) as pool:
            net1 = CongestNetwork(g1, words_per_message=8)
            net2 = CongestNetwork(g2, words_per_message=8)
            ref_flood, _ = flood_chunks(net1, (0, 0), [("c", 1)], engine="fast")
            got_flood, res = flood_chunks(
                net1, (0, 0), [("c", 1)], engine="sharded", shard_pool=pool
            )
            assert res.engine == "sharded" and got_flood == ref_flood
            p_ref, d_ref, _ = build_bfs_tree(net2, 0, engine="fast")
            p_got, d_got, res2 = build_bfs_tree(
                net2, 0, engine="sharded", shard_pool=pool
            )
            assert res2.engine == "sharded"
            assert (p_got, d_got) == (p_ref, d_ref)
            assert pool.workers_started == 2  # still the original workers

    def test_pool_resize_restarts_workers(self, master_seed):
        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.congest.engine import ShardPool

        instance = _bf_instance(master_seed, n=30)
        source = min(instance.nodes(), key=str)
        with ShardPool() as pool:
            a = distributed_bellman_ford(
                instance, source, engine="sharded", num_shards=2, shard_pool=pool
            )
            assert pool.workers_started == 2
            b = distributed_bellman_ford(
                instance, source, engine="sharded", num_shards=3, shard_pool=pool
            )
            assert pool.workers_started == 5  # resize restarted the pool
            assert a.distances == b.distances
            # An implicit-size run now follows the live worker count (3),
            # not the constructor hint — no restart thrash.
            c = distributed_bellman_ford(instance, source, engine="sharded",
                                         shard_pool=pool)
            assert c.simulation.shard_stats["num_shards"] == 3
            assert pool.workers_started == 5

    def test_pool_recovers_after_worker_failure(self, master_seed):
        """A failed run discards the worker generation; the same pool then
        transparently restarts workers and produces correct results."""
        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.congest.engine import ShardPool

        instance = _bf_instance(master_seed, n=30)
        source = min(instance.nodes(), key=str)
        network = CongestNetwork(generators.cycle_graph(12))
        with ShardPool(num_shards=2) as pool:
            with pytest.raises(SimulationError, match="boom in shard worker"):
                run_sharded(network, ExplodingKernel(0, [("c", 1)]), pool=pool)
            assert pool.num_workers == 0  # generation discarded
            result = distributed_bellman_ford(
                instance, source, engine="sharded", shard_pool=pool
            )
            ref = distributed_bellman_ford(instance, source, engine="fast")
            assert result.distances == ref.distances
            assert result.simulation.words_sent == ref.simulation.words_sent

    def test_convergence_error_keeps_pool_warm(self, master_seed):
        """max_rounds exhaustion ends with the clean STOP handshake, so the
        pool's workers survive and the next run reuses them."""
        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.congest.engine import ShardPool
        from repro.errors import ConvergenceError

        graph = generators.path_graph(20)
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 5), orientation="both", seed=master_seed
        )
        with ShardPool(num_shards=2) as pool:
            with pytest.raises(ConvergenceError):
                distributed_bellman_ford(
                    instance, 0, engine="sharded", max_rounds=3, shard_pool=pool
                )
            assert pool.num_workers == 2  # workers parked, not discarded
            pids = pool.worker_pids()
            ref = distributed_bellman_ford(instance, 0, engine="fast")
            run = distributed_bellman_ford(
                instance, 0, engine="sharded", shard_pool=pool
            )
            assert run.distances == ref.distances
            assert pool.worker_pids() == pids
            assert pool.workers_started == 2

    def test_closed_pool_rejects_runs(self):
        from repro.congest.engine import ShardPool

        pool = ShardPool(num_shards=2)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(SimulationError, match="closed"):
            pool.ensure(2)

    def test_busy_pool_rejects_concurrent_runs(self):
        """A pool serves one sharded run at a time: a second entry while a
        run is in flight fails cleanly instead of corrupting the lockstep."""
        from repro.congest.engine import ShardPool

        pool = ShardPool(num_shards=2)
        pool._busy = True  # what a run in flight sets
        with pytest.raises(SimulationError, match="one sharded run at a time"):
            pool.ensure(2)
        pool._busy = False
        pool.close()

    def test_network_owns_pool_lifecycle(self, master_seed):
        """CongestNetwork(shard_pool=...) adopts the pool: sharded runs use
        it without a per-call argument and the network context closes it."""
        from repro.congest.engine import ShardPool
        from repro.congest.primitives import flood_chunks

        graph = generators.grid_graph(4, 4)
        pool = ShardPool(num_shards=2)
        with CongestNetwork(graph, words_per_message=8, shard_pool=pool) as net:
            ref, _ = flood_chunks(net, (0, 0), [("c", 1)], engine="fast")
            for _ in range(2):
                got, res = flood_chunks(net, (0, 0), [("c", 1)], engine="sharded")
                assert res.engine == "sharded"
                assert got == ref
            assert pool.runs_dispatched == 2
            assert pool.workers_started == 2
        assert pool._closed
        assert net.shard_pool is None


@needs_sharded
class TestShardedHygiene:
    """Shared-memory hygiene: a worker hard-killed mid-run must not leak the
    arena, and the pool must recover."""

    def test_killed_worker_cleans_arena_and_pool_recovers(self, master_seed):
        import os

        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.congest.engine import ShardPool

        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):
            pytest.skip("no /dev/shm on this platform")

        def _arenas():
            # Only multiprocessing.shared_memory segments: unrelated
            # processes may create other /dev/shm entries concurrently.
            return {n for n in os.listdir(shm_dir) if n.startswith("psm_")}

        before = _arenas()

        network = CongestNetwork(generators.cycle_graph(12))
        with ShardPool(num_shards=2) as pool:
            with pytest.raises(SimulationError, match="failed or timed out"):
                run_sharded(
                    network,
                    SuicidalKernel(0, [("c", 1)]),
                    pool=pool,
                    barrier_timeout=5.0,
                )
            # The arena was closed and unlinked despite the hard kill.
            assert _arenas() - before == set()
            # And the pool restarts cleanly on the next run.
            instance = generators.to_directed_instance(
                generators.cycle_graph(12), weight_range=(1, 5),
                orientation="both", seed=master_seed,
            )
            result = distributed_bellman_ford(
                instance, 0, engine="sharded", shard_pool=pool
            )
            ref = distributed_bellman_ford(instance, 0, engine="fast")
            assert result.distances == ref.distances
        assert _arenas() - before == set()
