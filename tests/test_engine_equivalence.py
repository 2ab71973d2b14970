"""Randomized equivalence harness across all four execution tiers.

Runs real protocols (flooding, BFS tree, broadcast, convergecast, leader
election, Bellman-Ford, pipelined chunk flood / label broadcast) on ~30
seeded random graph families and asserts the four execution tiers of
:class:`CongestNetwork` (``legacy`` ≡ ``fast`` ≡ ``vectorized`` ≡
``sharded``) produce *identical* ``rounds``, ``outputs``, ``messages_sent``,
``words_sent``, ``max_words_per_edge_round``, ``max_message_words`` and
round traces — i.e. full bandwidth-accounting parity.  Protocols with a
:class:`~repro.congest.kernels.RoundKernel` (Bellman-Ford, BFS tree, chunk
flood, label broadcast) genuinely execute on the vectorized and sharded
tiers (asserted via the result's ``engine`` field) — the sharded tier at
every shard count in ``{1, 2, 4, 7}``, including repeat runs on a
persistent :class:`~repro.congest.engine.ShardPool` (worker reuse +
shard-local init) — while the rest exercise the graceful fallback.  All
instances derive from the session ``--seed``, so any failure is
reproducible from the command line.
"""

from __future__ import annotations

import random

import pytest

from repro.congest.bellman_ford import distributed_bellman_ford
from repro.congest.engine import SimulationTrace, sharded_available
from repro.congest.kernels import vectorized_available
from repro.congest.network import CongestNetwork
from repro.congest.node import BroadcastAll
from repro.congest.primitives import (
    broadcast,
    build_bfs_tree,
    convergecast_sum,
    elect_leader,
    flood_chunks,
)
from repro.errors import BandwidthExceededError
from repro.graphs import generators
from repro.labeling.labels import DistanceLabel, DistanceLabeling
from repro.labeling.sssp import measured_label_broadcast

#: Shard counts every kernel protocol must be invariant under.
SHARD_COUNTS = (1, 2, 4, 7)

#: Dense families for long chunk floods: high-degree roots, and (diagonal
#: grid, k-trees) nodes that get each chunk from several senders at once.
DEEP_QUEUE_FAMILIES = ("complete_7", "grid_diag_5x5", "star_15", "k_tree_0", "k_tree_1")

# --------------------------------------------------------------------------- #
# ~30 seeded graph families: (name, builder(rng) -> Graph)
# --------------------------------------------------------------------------- #


def _families():
    fams = [
        ("path_12", lambda r: generators.path_graph(12)),
        ("path_40", lambda r: generators.path_graph(40)),
        ("cycle_9", lambda r: generators.cycle_graph(9)),
        ("cycle_30", lambda r: generators.cycle_graph(30)),
        ("star_15", lambda r: generators.star_graph(15)),
        ("grid_4x5", lambda r: generators.grid_graph(4, 5)),
        ("grid_6x7", lambda r: generators.grid_graph(6, 7)),
        ("grid_diag_5x5", lambda r: generators.grid_graph(5, 5, diagonal=True)),
        ("cylinder_4x6", lambda r: generators.cylinder_graph(4, 6)),
        ("caterpillar_8x2", lambda r: generators.caterpillar_graph(8, 2)),
        ("complete_7", lambda r: generators.complete_graph(7)),
    ]
    for i in range(4):
        fams.append(
            (f"random_tree_{i}", lambda r, i=i: generators.random_tree(20 + 7 * i, seed=r))
        )
    for i, (n, k) in enumerate([(20, 2), (30, 3), (40, 3), (50, 4)]):
        fams.append(
            (
                f"partial_k_tree_{i}",
                lambda r, n=n, k=k: generators.partial_k_tree(n, k, seed=r),
            )
        )
    for i, (n, k) in enumerate([(15, 2), (25, 3)]):
        fams.append((f"k_tree_{i}", lambda r, n=n, k=k: generators.k_tree(n, k, seed=r)))
    for i in range(3):
        fams.append(
            (
                f"series_parallel_{i}",
                lambda r, i=i: generators.series_parallel_graph(15 + 10 * i, seed=r),
            )
        )
    for i in range(3):
        fams.append(
            (
                f"cycle_chords_{i}",
                lambda r, i=i: generators.cycle_with_chords(18 + 8 * i, 3 + i, seed=r),
            )
        )
    for i in range(2):
        fams.append(
            (
                f"banded_bipartite_{i}",
                lambda r, i=i: generators.random_banded_bipartite(
                    10 + 5 * i, 12 + 5 * i, band=2 + i, seed=r
                ),
            )
        )
    # Low-treewidth gluings: two partial k-trees sharing a small cut.
    def glued(r, n=18, k=2):
        from repro.graphs.graph import Graph

        rng = random.Random(r)
        a = generators.partial_k_tree(n, k, seed=rng.randrange(1 << 30))
        b = generators.partial_k_tree(n, k, seed=rng.randrange(1 << 30))
        g = Graph()
        for u, v, w in a.weighted_edges():
            g.add_edge(("a", u), ("a", v), weight=w)
        for u, v, w in b.weighted_edges():
            g.add_edge(("b", u), ("b", v), weight=w)
        for i in range(k + 1):
            g.add_edge(("a", i), ("b", i))
        return g

    for i in range(3):
        fams.append((f"glued_{i}", lambda r, i=i: glued(r + i)))
    return fams


FAMILIES = _families()


def _assert_identical(*results):
    """Assert full result + bandwidth-accounting parity across tiers."""
    ref = results[0]
    for other in results[1:]:
        assert ref.rounds == other.rounds
        assert ref.outputs == other.outputs
        assert ref.messages_sent == other.messages_sent
        assert ref.words_sent == other.words_sent
        assert ref.max_words_per_edge_round == other.max_words_per_edge_round
        assert ref.max_message_words == other.max_message_words
        assert ref.halted == other.halted


def _pseudo_labeling(graph, rng) -> DistanceLabeling:
    """A seeded synthetic labeling: the broadcast transport doesn't care
    whether the distances are real, so equivalence can be exercised on every
    family without building a tree decomposition."""
    nodes = graph.nodes()
    hubs = rng.sample(nodes, min(len(nodes), rng.randint(2, 6)))
    labels = {}
    for u in nodes:
        lab = DistanceLabel(u)
        for s in hubs:
            if rng.random() < 0.8:
                lab.set_entry(s, float(rng.randint(0, 40)), float(rng.randint(0, 40)))
        labels[u] = lab
    return DistanceLabeling(labels)


@pytest.fixture(params=[name for name, _ in FAMILIES])
def family_graph(request, master_seed):
    name = request.param
    builder = dict(FAMILIES)[name]
    graph = builder(master_seed + len(name))
    assert graph.num_nodes() > 0
    return graph


class TestEngineEquivalence:
    """legacy ≡ fast on every family; ``vectorized`` requests on protocols
    without a kernel must gracefully fall back to fast with identical
    results."""

    def test_flooding_broadcast_all(self, family_graph):
        net = CongestNetwork(family_graph)
        fast = net.run(lambda u: BroadcastAll(value=u), engine="fast")
        legacy = net.run(lambda u: BroadcastAll(value=u), engine="legacy")
        fallback = net.run(lambda u: BroadcastAll(value=u), engine="vectorized")
        assert fallback.engine == "fast"  # no kernel: graceful fallback
        _assert_identical(fast, legacy, fallback)

    def test_bfs_tree(self, family_graph):
        net = CongestNetwork(family_graph)
        root = min(family_graph.nodes(), key=str)
        p_fast, d_fast, fast = build_bfs_tree(net, root, engine="fast")
        p_leg, d_leg, legacy = build_bfs_tree(net, root, engine="legacy")
        _assert_identical(fast, legacy)
        assert p_fast == p_leg
        assert d_fast == d_leg
        # BFS depths must equal the graph's hop distances.
        assert d_fast == family_graph.bfs_layers(root)

    def test_broadcast_and_convergecast(self, family_graph):
        net = CongestNetwork(family_graph)
        root = min(family_graph.nodes(), key=str)
        vals_fast, fast = broadcast(net, root, ("payload", 1), engine="fast")
        vals_leg, legacy = broadcast(net, root, ("payload", 1), engine="legacy")
        _assert_identical(fast, legacy)
        assert vals_fast == vals_leg

        parent = family_graph.spanning_tree(root)
        values = {u: 1 for u in parent}
        total_fast, cfast = convergecast_sum(net, parent, values, engine="fast")
        total_leg, cleg = convergecast_sum(net, parent, values, engine="legacy")
        _assert_identical(cfast, cleg)
        assert total_fast == total_leg == len(parent)

    def test_leader_election(self, family_graph):
        if not family_graph.is_connected():
            pytest.skip("leader election requires a connected graph")
        net = CongestNetwork(family_graph)
        leader_fast, fast = elect_leader(net, engine="fast")
        leader_leg, legacy = elect_leader(net, engine="legacy")
        _assert_identical(fast, legacy)
        assert leader_fast == leader_leg

    def test_bellman_ford(self, family_graph, master_seed):
        instance = generators.to_directed_instance(
            family_graph,
            weight_range=(1, 9),
            orientation="asymmetric",
            seed=master_seed,
        )
        source = min(family_graph.nodes(), key=str)
        fast = distributed_bellman_ford(instance, source, engine="fast")
        legacy = distributed_bellman_ford(instance, source, engine="legacy")
        _assert_identical(fast.simulation, legacy.simulation)
        assert fast.rounds == legacy.rounds
        assert fast.distances == legacy.distances
        assert fast.parents == legacy.parents


@pytest.mark.skipif(not vectorized_available(), reason="numpy unavailable")
class TestVectorizedKernelEquivalence:
    """Protocols with a RoundKernel: the vectorized tier genuinely runs
    (``engine == "vectorized"``) and is bit-for-bit identical to both scalar
    tiers, round traces included."""

    def test_bellman_ford_three_tiers(self, family_graph, master_seed):
        instance = generators.to_directed_instance(
            family_graph,
            weight_range=(1, 9),
            orientation="asymmetric",
            seed=master_seed,
        )
        source = min(family_graph.nodes(), key=str)
        traces = {e: SimulationTrace() for e in ("fast", "legacy", "vectorized")}
        runs = {
            e: distributed_bellman_ford(instance, source, engine=e, trace=traces[e])
            for e in traces
        }
        assert runs["vectorized"].simulation.engine == "vectorized"
        _assert_identical(*(r.simulation for r in runs.values()))
        assert runs["fast"].distances == runs["vectorized"].distances
        assert runs["fast"].parents == runs["vectorized"].parents
        assert traces["fast"].as_dicts() == traces["legacy"].as_dicts()
        assert traces["fast"].as_dicts() == traces["vectorized"].as_dicts()

    def test_bfs_tree_three_tiers(self, family_graph, master_seed):
        """The BFSTreeKernel genuinely runs vectorized and matches both
        scalar tiers bit-for-bit — parents/depths, accounting and traces."""
        net = CongestNetwork(family_graph)
        root = min(family_graph.nodes(), key=str)
        traces = {e: SimulationTrace() for e in ("fast", "legacy", "vectorized")}
        runs = {
            e: build_bfs_tree(net, root, engine=e, trace=traces[e]) for e in traces
        }
        assert runs["vectorized"][2].engine == "vectorized"
        _assert_identical(*(r[2] for r in runs.values()))
        assert runs["fast"][0] == runs["legacy"][0] == runs["vectorized"][0]
        assert runs["fast"][1] == runs["legacy"][1] == runs["vectorized"][1]
        assert runs["fast"][1] == family_graph.bfs_layers(root)
        assert traces["fast"].as_dicts() == traces["legacy"].as_dicts()
        assert traces["fast"].as_dicts() == traces["vectorized"].as_dicts()

    def test_label_broadcast_three_tiers(self, family_graph, master_seed):
        rng = random.Random(master_seed + family_graph.num_nodes())
        labeling = _pseudo_labeling(family_graph, rng)
        source = min(family_graph.nodes(), key=str)
        net = CongestNetwork(family_graph, words_per_message=16)
        traces = {e: SimulationTrace() for e in ("fast", "legacy", "vectorized")}
        runs = {
            e: measured_label_broadcast(
                net, labeling, source, engine=e, trace=traces[e]
            )
            for e in traces
        }
        assert runs["vectorized"].engine == "vectorized"
        _assert_identical(*runs.values())
        assert traces["fast"].as_dicts() == traces["legacy"].as_dicts()
        assert traces["fast"].as_dicts() == traces["vectorized"].as_dicts()

    def test_leader_election_four_tiers(self, family_graph, master_seed):
        """The LeaderElectionKernel genuinely runs vectorized and matches the
        scalar tiers and the async tier bit-for-bit — leader, outputs,
        accounting and traces."""
        if not family_graph.is_connected():
            pytest.skip("leader election requires a connected graph")
        net = CongestNetwork(family_graph)
        traces = {e: SimulationTrace() for e in ("fast", "legacy", "vectorized")}
        runs = {e: elect_leader(net, engine=e, trace=traces[e]) for e in traces}
        leader_async, run_async = elect_leader(net, engine="async")
        assert runs["vectorized"][1].engine == "vectorized"
        _assert_identical(*(r[1] for r in runs.values()), run_async)
        assert (
            runs["fast"][0]
            == runs["legacy"][0]
            == runs["vectorized"][0]
            == leader_async
        )
        assert traces["fast"].as_dicts() == traces["legacy"].as_dicts()
        assert traces["fast"].as_dicts() == traces["vectorized"].as_dicts()

    def test_convergecast_four_tiers(self, family_graph, master_seed):
        """The ConvergecastKernel genuinely runs vectorized and matches the
        scalar tiers and the async tier bit-for-bit, for int and for float
        values (the kernel's ``np.add.at`` fold must associate exactly like
        the scalar left-to-right inbox scan)."""
        rng = random.Random(master_seed + family_graph.num_nodes())
        net = CongestNetwork(family_graph)
        root = min(family_graph.nodes(), key=str)
        parent = family_graph.spanning_tree(root)
        for values in (
            {u: rng.randint(-50, 50) for u in parent},
            {u: rng.uniform(-1.0, 1.0) for u in parent},
            {u: rng.choice([7, -0.25, 3.5, 2]) for u in parent},
        ):
            traces = {e: SimulationTrace() for e in ("fast", "legacy", "vectorized")}
            runs = {
                e: convergecast_sum(net, parent, values, engine=e, trace=traces[e])
                for e in traces
            }
            total_async, run_async = convergecast_sum(
                net, parent, values, engine="async"
            )
            assert runs["vectorized"][1].engine == "vectorized"
            _assert_identical(*(r[1] for r in runs.values()), run_async)
            assert (
                runs["fast"][0]
                == runs["legacy"][0]
                == runs["vectorized"][0]
                == total_async
            )
            assert traces["fast"].as_dicts() == traces["legacy"].as_dicts()
            assert traces["fast"].as_dicts() == traces["vectorized"].as_dicts()

    def test_strict_bandwidth_error_on_packed_payloads(self, family_graph, master_seed):
        """A packed 3-word Bellman-Ford message must trip a 2-word budget on
        every tier (and not trip it when strict accounting is off)."""
        if family_graph.num_edges() == 0:
            pytest.skip("needs at least one edge to send a message")
        instance = generators.to_directed_instance(
            family_graph, weight_range=(1, 9), orientation="both", seed=master_seed
        )
        # A source with a neighbour, so at least one message is attempted.
        source = min(
            (u for u in family_graph.nodes() if family_graph.neighbors(u)), key=str
        )
        engines = ["fast", "legacy", "vectorized"]
        if sharded_available():
            engines.append("sharded")
        for engine in engines:
            with pytest.raises(BandwidthExceededError):
                distributed_bellman_ford(
                    instance, source, engine=engine, words_per_message=2, num_shards=2
                )
        # With strict accounting off the oversized messages are delivered on
        # every tier and only show up in the statistics.
        from repro.congest.bellman_ford import BellmanFordKernel, BellmanFordNode

        comm = instance.underlying_graph()
        local_inputs = {
            u: [(e.head, e.weight) for e in instance.out_edges(u)]
            for u in instance.nodes()
        }
        net = CongestNetwork(comm, words_per_message=2, strict_bandwidth=False)
        lenient = {}
        for engine in engines:
            kernel = (
                BellmanFordKernel(source, local_inputs)
                if engine in ("vectorized", "sharded")
                else None
            )
            lenient[engine] = net.run(
                lambda u: BellmanFordNode(u, source),
                max_rounds=4 * comm.num_nodes() + 16,
                local_inputs=local_inputs,
                engine=engine,
                kernel=kernel,
                num_shards=2,
            )
        assert lenient["vectorized"].engine == "vectorized"
        if "sharded" in lenient:
            assert lenient["sharded"].engine == "sharded"
        _assert_identical(*lenient.values())
        assert lenient["fast"].max_message_words == 3 > net.words_per_message


@pytest.mark.skipif(not sharded_available(), reason="numpy/shared-memory unavailable")
class TestShardedEquivalence:
    """The multiprocess sharded tier: genuinely runs (``engine ==
    "sharded"``), and for every shard count in ``SHARD_COUNTS`` is
    bit-for-bit identical to the fast/legacy/vectorized tiers — outputs,
    rounds, messages, words, ``max_words_per_edge_round``,
    ``max_message_words`` and the full round trace."""

    def test_bellman_ford_shard_count_invariance(self, family_graph, master_seed):
        """Every shard count matches the scalar/vectorized tiers bit-for-bit,
        and at every count a *second* run on the same persistent ShardPool
        (reused workers, shard-local init re-seeded from the run header) is
        equally identical."""
        from repro.congest.engine import ShardPool

        instance = generators.to_directed_instance(
            family_graph,
            weight_range=(1, 9),
            orientation="asymmetric",
            seed=master_seed,
        )
        source = min(family_graph.nodes(), key=str)
        ref_trace = SimulationTrace()
        ref = distributed_bellman_ford(
            instance, source, engine="fast", trace=ref_trace
        )
        vec = distributed_bellman_ford(instance, source, engine="vectorized")
        _assert_identical(ref.simulation, vec.simulation)
        for shards in SHARD_COUNTS:
            with ShardPool(num_shards=shards) as pool:
                for repeat in range(2):
                    trace = SimulationTrace()
                    run = distributed_bellman_ford(
                        instance, source, engine="sharded", shard_pool=pool,
                        trace=trace,
                    )
                    assert run.simulation.engine == "sharded", (shards, repeat)
                    _assert_identical(ref.simulation, run.simulation)
                    assert run.distances == ref.distances, (shards, repeat)
                    assert run.parents == ref.parents, (shards, repeat)
                    assert trace.as_dicts() == ref_trace.as_dicts(), (shards, repeat)
                assert pool.workers_started == min(shards, len(instance.nodes()))

    def test_chunk_flood_shard_count_invariance(self, family_graph, master_seed):
        rng = random.Random(master_seed + family_graph.num_edges())
        root = min(family_graph.nodes(), key=str)
        chunks = [("chunk", k, rng.randint(0, 99)) for k in range(rng.randint(1, 7))]
        net = CongestNetwork(family_graph, words_per_message=8)
        ref_trace = SimulationTrace()
        ref_received, ref = flood_chunks(
            net, root, chunks, engine="fast", trace=ref_trace
        )
        legacy_received, legacy = flood_chunks(net, root, chunks, engine="legacy")
        vec_received, vec = flood_chunks(net, root, chunks, engine="vectorized")
        assert vec.engine == "vectorized"
        _assert_identical(ref, legacy, vec)
        assert ref_received == legacy_received == vec_received
        for shards in SHARD_COUNTS:
            trace = SimulationTrace()
            received, run = flood_chunks(
                net, root, chunks, engine="sharded", num_shards=shards, trace=trace,
            )
            assert run.engine == "sharded", shards
            _assert_identical(ref, run)
            assert received == ref_received, shards
            assert trace.as_dicts() == ref_trace.as_dicts(), shards

    @pytest.mark.parametrize("num_chunks", [64, 300])
    @pytest.mark.parametrize("family", DEEP_QUEUE_FAMILIES)
    def test_chunk_flood_deep_queues(self, family, num_chunks, master_seed):
        """Floods of 64 and 300 chunks are bit-for-bit identical on fast,
        legacy, vectorized and sharded[2], traces included.  The root's
        arcs queue every chunk at once, and 300 chunks need the kernel's
        int16 queue.  Chunk sizes vary, so sending them in another order
        changes the traced per-round words."""
        rng = random.Random(master_seed + num_chunks)
        graph = dict(FAMILIES)[family](master_seed + len(family))
        root = min(graph.nodes(), key=str)
        chunks = [("chunk", k) + (0,) * rng.randint(0, 4) for k in range(num_chunks)]
        net = CongestNetwork(graph, words_per_message=16)
        traces, received, runs = {}, {}, {}
        for engine in ("fast", "legacy", "vectorized", "sharded"):
            traces[engine] = SimulationTrace()
            received[engine], runs[engine] = flood_chunks(
                net, root, chunks, engine=engine, num_shards=2, trace=traces[engine],
            )
        assert runs["vectorized"].engine == "vectorized"
        assert runs["sharded"].engine == "sharded"
        assert runs["fast"].halted
        _assert_identical(*runs.values())
        for engine in ("legacy", "vectorized", "sharded"):
            assert received[engine] == received["fast"], engine
            assert traces[engine].as_dicts() == traces["fast"].as_dicts(), engine

    def test_label_broadcast_deep_queues(self, master_seed):
        """A source label of 81 entries floods bit-for-bit identically on
        fast, legacy, vectorized and sharded[2], traces included."""
        rng = random.Random(master_seed)
        graph = generators.grid_graph(9, 9, diagonal=True)
        nodes = graph.nodes()
        labels = {}
        for u in nodes:
            lab = DistanceLabel(u)
            for s in (nodes if u == nodes[0] else rng.sample(nodes, 6)):
                lab.set_entry(s, float(rng.randint(0, 40)), float(rng.randint(0, 40)))
            labels[u] = lab
        labeling = DistanceLabeling(labels)
        assert len(labeling.label(nodes[0]).to_dist) >= 64
        net = CongestNetwork(graph, words_per_message=16)
        traces, runs = {}, {}
        for engine in ("fast", "legacy", "vectorized", "sharded"):
            traces[engine] = SimulationTrace()
            runs[engine] = measured_label_broadcast(
                net, labeling, nodes[0], engine=engine, num_shards=2,
                trace=traces[engine],
            )
        assert runs["vectorized"].engine == "vectorized"
        assert runs["sharded"].engine == "sharded"
        assert runs["fast"].halted
        _assert_identical(*runs.values())
        for engine in ("legacy", "vectorized", "sharded"):
            assert traces[engine].as_dicts() == traces["fast"].as_dicts(), engine

    def test_bfs_tree_shard_count_invariance(self, family_graph, master_seed):
        net = CongestNetwork(family_graph)
        root = min(family_graph.nodes(), key=str)
        ref_trace = SimulationTrace()
        p_ref, d_ref, ref = build_bfs_tree(net, root, engine="fast", trace=ref_trace)
        for shards in SHARD_COUNTS:
            trace = SimulationTrace()
            p_run, d_run, run = build_bfs_tree(
                net, root, engine="sharded", num_shards=shards, trace=trace,
            )
            assert run.engine == "sharded", shards
            _assert_identical(ref, run)
            assert p_run == p_ref, shards
            assert d_run == d_ref, shards
            assert trace.as_dicts() == ref_trace.as_dicts(), shards

    def test_leader_election_shard_count_invariance(self, family_graph, master_seed):
        if not family_graph.is_connected():
            pytest.skip("leader election requires a connected graph")
        net = CongestNetwork(family_graph)
        ref_trace = SimulationTrace()
        leader_ref, ref = elect_leader(net, engine="fast", trace=ref_trace)
        for shards in SHARD_COUNTS:
            trace = SimulationTrace()
            leader, run = elect_leader(
                net, engine="sharded", num_shards=shards, trace=trace,
            )
            assert run.engine == "sharded", shards
            _assert_identical(ref, run)
            assert leader == leader_ref, shards
            assert trace.as_dicts() == ref_trace.as_dicts(), shards

    def test_convergecast_shard_count_invariance(self, family_graph, master_seed):
        rng = random.Random(master_seed + family_graph.num_edges())
        net = CongestNetwork(family_graph)
        root = min(family_graph.nodes(), key=str)
        parent = family_graph.spanning_tree(root)
        values = {u: rng.choice([rng.randint(-9, 9), rng.uniform(-2.0, 2.0)]) for u in parent}
        ref_trace = SimulationTrace()
        total_ref, ref = convergecast_sum(
            net, parent, values, engine="fast", trace=ref_trace
        )
        for shards in SHARD_COUNTS:
            trace = SimulationTrace()
            total, run = convergecast_sum(
                net, parent, values, engine="sharded", num_shards=shards,
                trace=trace,
            )
            assert run.engine == "sharded", shards
            _assert_identical(ref, run)
            assert total == total_ref, shards
            assert trace.as_dicts() == ref_trace.as_dicts(), shards

    def test_label_broadcast_shard_count_invariance(self, family_graph, master_seed):
        rng = random.Random(master_seed + family_graph.num_nodes())
        labeling = _pseudo_labeling(family_graph, rng)
        source = min(family_graph.nodes(), key=str)
        net = CongestNetwork(family_graph, words_per_message=16)
        ref_trace = SimulationTrace()
        ref = measured_label_broadcast(
            net, labeling, source, engine="fast", trace=ref_trace
        )
        for shards in SHARD_COUNTS:
            trace = SimulationTrace()
            run = measured_label_broadcast(
                net, labeling, source, engine="sharded", num_shards=shards, trace=trace,
            )
            assert run.engine == "sharded", shards
            _assert_identical(ref, run)
            assert trace.as_dicts() == ref_trace.as_dicts(), shards
