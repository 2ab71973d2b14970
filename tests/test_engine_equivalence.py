"""Randomized equivalence harness across the synchronous execution tiers.

Runs real protocols (flooding, BFS tree, broadcast, convergecast, leader
election, Bellman-Ford, pipelined chunk flood / label broadcast) on ~30
seeded random graph families and asserts the synchronous execution tiers of
:class:`CongestNetwork` (``legacy`` ≡ ``fast`` ≡ ``vectorized``) produce
*identical* ``rounds``, ``outputs``, ``messages_sent``, ``words_sent``,
``max_words_per_edge_round``, ``max_message_words`` and round traces — i.e.
full bandwidth-accounting parity.  Protocols with a
:class:`~repro.congest.kernels.RoundKernel` (Bellman-Ford, BFS tree, leader
election, convergecast, chunk flood, label broadcast) genuinely execute on
the vectorized tier (asserted via the result's ``engine`` field), while the
rest exercise the graceful fallback.  All instances derive from the session
``--seed``, so any failure is reproducible from the command line.
"""

from __future__ import annotations

import hashlib
import math
import random
import warnings

import pytest

from repro.congest.bellman_ford import distributed_bellman_ford
from repro.congest.engine import EngineFallbackWarning, SimulationTrace
from repro.congest.kernels import vectorized_available
from repro.congest.message import payload_size_words
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
from repro.graphs.properties import dijkstra
from repro.labeling.labels import DistanceLabel, DistanceLabeling
from repro.labeling.sssp import measured_label_broadcast

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


def _kernel_protocol_runs(net, seed, engine, root=None):
    """Run every protocol that has a RoundKernel on ``net`` with ``engine``.

    Inputs are drawn from ``seed`` and the network's current graph, rooted
    at ``root`` (default: the smallest id).  Returns ``{protocol: (answer,
    result, trace rows)}``.
    """
    graph = net.graph
    rng = random.Random(seed + graph.num_nodes())
    if root is None:
        root = min(graph.nodes(), key=str)
    chunks = [("chunk", k, rng.randint(0, 99)) for k in range(rng.randint(1, 7))]
    labeling = _pseudo_labeling(graph, rng)
    parent = graph.spanning_tree(root)
    values = {u: rng.randint(-50, 50) for u in parent}
    calls = {
        "bfs_tree": lambda t: build_bfs_tree(net, root, engine=engine, trace=t),
        "chunk_flood": lambda t: flood_chunks(net, root, chunks, engine=engine, trace=t),
        "convergecast": lambda t: convergecast_sum(
            net, parent, values, engine=engine, trace=t
        ),
        "label_broadcast": lambda t: (
            measured_label_broadcast(net, labeling, root, engine=engine, trace=t),
        ),
    }
    if graph.is_connected():
        calls["leader"] = lambda t: elect_leader(net, engine=engine, trace=t)
    runs = {}
    for name, call in calls.items():
        trace = SimulationTrace()
        *answer, result = call(trace)
        runs[name] = (answer, result, trace.as_dicts())
    return runs


def _assert_same_runs(ref, other):
    """Two :func:`_kernel_protocol_runs` outputs agree protocol by protocol:
    answers, full result accounting and round traces."""
    assert ref.keys() == other.keys()
    for name, (answer, result, rows) in ref.items():
        other_answer, other_result, other_rows = other[name]
        _assert_identical(result, other_result)
        assert answer == other_answer, name
        assert rows == other_rows, name


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
        with pytest.warns(EngineFallbackWarning) as rec:
            vals_vec, vec = broadcast(
                net, root, ("payload", 1), engine="vectorized"
            )
        # FloodBroadcastNode has no kernel, so the request runs on fast.
        assert vec.engine == "fast"
        assert sum(issubclass(w.category, EngineFallbackWarning) for w in rec) == 1
        _assert_identical(fast, legacy, vec)
        assert vals_fast == vals_leg == vals_vec

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

    def test_chunk_flood_three_tiers(self, family_graph, master_seed):
        """A short chunk flood is bit-for-bit identical on fast, legacy and
        vectorized on every family, received chunks and traces included."""
        rng = random.Random(master_seed + family_graph.num_edges())
        root = min(family_graph.nodes(), key=str)
        chunks = [("chunk", k, rng.randint(0, 99)) for k in range(rng.randint(1, 7))]
        net = CongestNetwork(family_graph, words_per_message=8)
        traces, received, runs = {}, {}, {}
        for engine in ("fast", "legacy", "vectorized"):
            traces[engine] = SimulationTrace()
            received[engine], runs[engine] = flood_chunks(
                net, root, chunks, engine=engine, trace=traces[engine]
            )
        assert runs["vectorized"].engine == "vectorized"
        _assert_identical(*runs.values())
        assert received["fast"] == received["legacy"] == received["vectorized"]
        assert traces["fast"].as_dicts() == traces["legacy"].as_dicts()
        assert traces["fast"].as_dicts() == traces["vectorized"].as_dicts()

    @pytest.mark.parametrize("num_chunks", [64, 300])
    @pytest.mark.parametrize("family", DEEP_QUEUE_FAMILIES)
    def test_chunk_flood_deep_queues(self, family, num_chunks, master_seed):
        """Floods of 64 and 300 chunks are bit-for-bit identical on fast,
        legacy and vectorized, traces included.  The root's arcs queue every
        chunk at once, and 300 chunks need the kernel's int16 queue.  Chunk
        sizes vary, so sending them in another order changes the traced
        per-round words."""
        rng = random.Random(master_seed + num_chunks)
        graph = dict(FAMILIES)[family](master_seed + len(family))
        root = min(graph.nodes(), key=str)
        chunks = [("chunk", k) + (0,) * rng.randint(0, 4) for k in range(num_chunks)]
        net = CongestNetwork(graph, words_per_message=16)
        traces, received, runs = {}, {}, {}
        for engine in ("fast", "legacy", "vectorized"):
            traces[engine] = SimulationTrace()
            received[engine], runs[engine] = flood_chunks(
                net, root, chunks, engine=engine, trace=traces[engine],
            )
        assert runs["vectorized"].engine == "vectorized"
        assert runs["fast"].halted
        _assert_identical(*runs.values())
        for engine in ("legacy", "vectorized"):
            assert received[engine] == received["fast"], engine
            assert traces[engine].as_dicts() == traces["fast"].as_dicts(), engine

    def test_label_broadcast_deep_queues(self, master_seed):
        """A source label of 81 entries floods bit-for-bit identically on
        fast, legacy and vectorized, traces included."""
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
        for engine in ("fast", "legacy", "vectorized"):
            traces[engine] = SimulationTrace()
            runs[engine] = measured_label_broadcast(
                net, labeling, nodes[0], engine=engine, trace=traces[engine],
            )
        assert runs["vectorized"].engine == "vectorized"
        assert runs["fast"].halted
        _assert_identical(*runs.values())
        for engine in ("legacy", "vectorized"):
            assert traces[engine].as_dicts() == traces["fast"].as_dicts(), engine

    def test_strict_bandwidth_error_on_packed_payloads(self, family_graph, master_seed):
        """A packed 3-word Bellman-Ford message must trip a 2-word budget on
        every tier, the vectorized one included (a fallback to ``fast``
        would raise its warning instead)."""
        if family_graph.num_edges() == 0:
            pytest.skip("needs at least one edge to send a message")
        instance = generators.to_directed_instance(
            family_graph, weight_range=(1, 9), orientation="both", seed=master_seed
        )
        # A source with a neighbour, so at least one message is attempted.
        source = min(
            (u for u in family_graph.nodes() if family_graph.neighbors(u)), key=str
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            for engine in ("fast", "legacy", "vectorized", "async"):
                with pytest.raises(BandwidthExceededError):
                    distributed_bellman_ford(
                        instance, source, engine=engine, words_per_message=2
                    )


@pytest.mark.skipif(not vectorized_available(), reason="numpy unavailable")
class TestInstanceVariants:
    """Inputs the tests above never draw: tied and one-way Bellman-Ford
    instances, roots other than the smallest id, oversized chunks and
    empty or partial broadcasts.  Every tier must still agree bit-for-bit,
    traces included."""

    @pytest.mark.parametrize(
        "orientation, weights",
        [("both", (1, 1)), ("random", (1, 9))],
        ids=["unit_ties", "one_way"],
    )
    def test_bellman_ford_four_tiers(self, family_graph, master_seed, orientation, weights):
        """Unit weights make many shortest paths tie, so every tier must
        break parent ties alike; one-way arcs leave nodes unreachable
        (``inf``, no parent).  fast, legacy, vectorized and async agree,
        and the distances are Dijkstra's."""
        instance = generators.to_directed_instance(
            family_graph, weight_range=weights, orientation=orientation, seed=master_seed
        )
        source = min(family_graph.nodes(), key=str)
        engines = ("fast", "legacy", "vectorized", "async")
        traces = {e: SimulationTrace() for e in engines}
        runs = {
            e: distributed_bellman_ford(instance, source, engine=e, trace=traces[e])
            for e in engines
        }
        assert runs["vectorized"].simulation.engine == "vectorized"
        assert runs["async"].simulation.engine == "async"
        _assert_identical(*(r.simulation for r in runs.values()))
        reference = dijkstra(instance, source)
        expected = {u: reference.get(u, math.inf) for u in instance.nodes()}
        for engine, run in runs.items():
            assert run.distances == expected, engine
            assert run.parents == runs["fast"].parents, engine
            assert traces[engine].as_dicts() == traces["fast"].as_dicts(), engine

    def test_protocols_from_random_root(self, family_graph, master_seed):
        """BFS tree, chunk flood, convergecast and label broadcast from a
        seeded random root match on fast, legacy and vectorized."""
        rng = random.Random(master_seed + 7 * family_graph.num_nodes())
        root = rng.choice(sorted(family_graph.nodes(), key=str))
        net = CongestNetwork(family_graph, words_per_message=16)
        runs = {
            e: _kernel_protocol_runs(net, master_seed, e, root=root)
            for e in ("fast", "legacy", "vectorized")
        }
        for _, result, _ in runs["vectorized"].values():
            assert result.engine == "vectorized"
        _assert_same_runs(runs["fast"], runs["legacy"])
        _assert_same_runs(runs["fast"], runs["vectorized"])
        _, depth = runs["fast"]["bfs_tree"][0]
        assert depth == family_graph.bfs_layers(root)

    def test_oversized_chunk_raises_on_every_tier(self, family_graph, master_seed):
        """One chunk wider than the budget trips the bandwidth check on
        every tier."""
        rng = random.Random(master_seed + family_graph.num_edges())
        root = min(
            (u for u in family_graph.nodes() if family_graph.neighbors(u)), key=str
        )
        num_chunks = rng.randint(1, 7)
        wide = rng.randrange(num_chunks)
        chunks = [
            ("chunk", k) + (0,) * (6 if k == wide else rng.randint(0, 2))
            for k in range(num_chunks)
        ]
        budget = 8
        wide_words = payload_size_words((wide, num_chunks, chunks[wide]))
        assert wide_words > budget
        strict = CongestNetwork(family_graph, words_per_message=budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            for engine in ("fast", "legacy", "vectorized", "async"):
                with pytest.raises(BandwidthExceededError):
                    flood_chunks(strict, root, chunks, engine=engine)

    def test_empty_and_partial_broadcasts(self, family_graph, master_seed):
        """A flood of zero chunks (only the root finishes), a label
        broadcast from a source with an empty label, and one over a
        labeling that leaves nodes unlabelled (they decode ``inf``) agree
        on every tier."""
        rng = random.Random(master_seed + family_graph.num_nodes())
        root = min(family_graph.nodes(), key=str)
        full = _pseudo_labeling(family_graph, rng)
        labels = {u: full.label(u) for u in family_graph.nodes()}
        empty_source = DistanceLabeling({**labels, root: DistanceLabel(root)})
        partial = DistanceLabeling(
            {u: lab for u, lab in labels.items() if u == root or rng.random() < 0.6}
        )
        net = CongestNetwork(family_graph, words_per_message=16)
        calls = {
            "no_chunks": lambda e, t: flood_chunks(net, root, [], engine=e, trace=t),
            "empty_source_label": lambda e, t: (
                measured_label_broadcast(net, empty_source, root, engine=e, trace=t),
            ),
            "partial_labeling": lambda e, t: (
                measured_label_broadcast(net, partial, root, engine=e, trace=t),
            ),
        }
        engines = ("fast", "legacy", "vectorized", "async")
        for name, call in calls.items():
            traces, runs = {}, {}
            for engine in engines:
                traces[engine] = SimulationTrace()
                runs[engine] = call(engine, traces[engine])
            assert runs["vectorized"][-1].engine == "vectorized", name
            _assert_identical(*(r[-1] for r in runs.values()))
            for engine in engines:
                assert runs[engine][:-1] == runs["fast"][:-1], (name, engine)
                assert traces[engine].as_dicts() == traces["fast"].as_dicts(), (
                    name,
                    engine,
                )
        assert runs["fast"][-1].outputs[root] == 0.0
        for u, out in runs["fast"][-1].outputs.items():
            if u not in partial:
                assert out == math.inf, u
        received, _ = calls["no_chunks"]("fast", None)
        assert received == {root: ()}


@pytest.mark.skipif(not vectorized_available(), reason="numpy unavailable")
class TestNetworkReuse:
    """One :class:`CongestNetwork` serves many runs, as the labeling
    pipeline's measured broadcasts do.  Each run must depend only on the
    current graph and the protocol's inputs, never on what ran before."""

    def test_interleaved_protocols_repeat_bit_for_bit(self, family_graph, master_seed):
        """Every kernel protocol, run twice in turn on one network, repeats
        bit-for-bit, and matches a fresh network and the fast tier."""
        net = CongestNetwork(family_graph, words_per_message=16)
        first = _kernel_protocol_runs(net, master_seed, "vectorized")
        fast = _kernel_protocol_runs(net, master_seed, "fast")
        second = _kernel_protocol_runs(net, master_seed, "vectorized")
        for _, result, _ in (*first.values(), *second.values()):
            assert result.engine == "vectorized"
        _assert_same_runs(first, second)
        _assert_same_runs(first, fast)
        fresh = CongestNetwork(family_graph, words_per_message=16)
        _assert_same_runs(first, _kernel_protocol_runs(fresh, master_seed, "vectorized"))

    def test_graph_mutation_refreshes_every_tier(self, family_graph, master_seed):
        """Edges added after a run are seen by the next run on every tier:
        results equal a fresh network's over the grown graph, and BFS depths
        equal its hop distances."""
        graph = family_graph.copy()
        net = CongestNetwork(graph, words_per_message=16)
        before = _kernel_protocol_runs(net, master_seed, "vectorized")
        root = min(graph.nodes(), key=str)
        depths = graph.bfs_layers(root)
        far = max(depths, key=lambda u: (depths[u], str(u)))
        # The BFS kernel's tie-break needs mutually comparable ids.
        top = max(graph.nodes())
        graph.add_edge(far, top + 1 if isinstance(top, int) else top + ("pendant",))
        if far != root and far not in graph.neighbors(root):
            graph.add_edge(root, far)
        assert min(graph.nodes(), key=str) == root
        for engine in ("vectorized", "fast", "legacy"):
            runs = _kernel_protocol_runs(net, master_seed, engine)
            fresh = CongestNetwork(graph, words_per_message=16)
            _assert_same_runs(runs, _kernel_protocol_runs(fresh, master_seed, engine))
            _, depth = runs["bfs_tree"][0]
            assert depth == graph.bfs_layers(root), engine
            assert depth != before["bfs_tree"][0][1], engine


#: Families whose floods :class:`TestFloodDigest` pins, each built from its
#: name alone (never from ``--seed``).
FLOOD_DIGEST_FAMILIES = (
    "path_40",
    "cycle_9",
    "star_15",
    "grid_6x7",
    "grid_diag_5x5",
    "complete_7",
    "random_tree_2",
    "partial_k_tree_1",
    "k_tree_1",
    "series_parallel_1",
    "cycle_chords_1",
    "glued_0",
)


def _flood_digest(graph, engine):
    """sha256 over the chunk floods and the label broadcast of ``graph``.

    Three runs on ``engine`` from the smallest id: a flood of 1-7 chunks, a
    flood of 300 chunks of 3-7 words, and a pseudo-label broadcast.  Each
    contributes its received outputs, ledger and round trace.  Inputs are
    seeded from the graph alone, so the digest is a fixed function of the
    transport's code.
    """
    rng = random.Random(graph.num_nodes())
    net = CongestNetwork(graph, words_per_message=16)
    root = min(graph.nodes(), key=str)
    short = [("chunk", k, rng.randint(0, 99)) for k in range(rng.randint(1, 7))]
    deep = [("chunk", k) + (0,) * rng.randint(0, 4) for k in range(300)]
    labeling = _pseudo_labeling(graph, rng)

    def label_broadcast(trace):
        run = measured_label_broadcast(net, labeling, root, engine=engine, trace=trace)
        return run.outputs, run

    calls = {
        "short_flood": lambda t: flood_chunks(net, root, short, engine=engine, trace=t),
        "deep_flood": lambda t: flood_chunks(net, root, deep, engine=engine, trace=t),
        "label_broadcast": label_broadcast,
    }
    digest = hashlib.sha256()
    for name, call in calls.items():
        trace = SimulationTrace()
        received, run = call(trace)
        assert run.engine == engine, name
        record = (
            name,
            sorted(received.items(), key=repr),
            (run.rounds, run.messages_sent, run.words_sent,
             run.max_words_per_edge_round, run.max_message_words, run.halted),
            trace.as_dicts(),
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


class TestFloodDigest:
    """The chunk floods and the label broadcast pinned to sha256 literals.

    The literals were computed on ``fast``; every synchronous tier must
    reproduce them, so a change to the flooding kernel is checked against
    fixed values, not only against the scalar tiers of the same commit.
    Re-pin a literal only in a change that means to alter a flood's rounds,
    traffic or outputs, and say why in CHANGES.md.
    """

    PINNED = {
        "path_40":
            "bceba94fe10bfdf0dd6ce1b9f8702bf23f4c653827018b179b54b39e333ef6bd",
        "cycle_9":
            "f3514655cce2ec83485c0f71b6e528ab556c0959c3d56b847bdd2dd578ceb2a9",
        "star_15":
            "63eba658ff094b0458b9e5d220f356d58266f0aad94db50551c71051420d8bdb",
        "grid_6x7":
            "b5f1fbd72976f777db2809fb6d2a9f087c09878761c77daed71c5f87b8542534",
        "grid_diag_5x5":
            "104ec9d9b78dc563fa79da67fe325f58c0fe591c77b43536f9624a17f527e30c",
        "complete_7":
            "7f364f724e1af48bfc8ce9ef1cbdd34154fc190981ba450f046781db4eebc3e3",
        "random_tree_2":
            "81917b3b7ffd50c9ba872c6208352cdf44285d1c15394f1b82626b57d619b899",
        "partial_k_tree_1":
            "9d8c39e9b46a05011947b60f6aa5fc8cf2513634cb1518f4dace7733b41ea2db",
        "k_tree_1":
            "059a11d45cd98f25281fc6f796768d75d838db5da0c13b7ce25f9c3b61c6af21",
        "series_parallel_1":
            "9cff88e9eda011698b7c9612c25e1ce855c58c649f8176bbc37acdb2a22ca045",
        "cycle_chords_1":
            "ed260d9965a0537ddd361c5d6813ca13d0aab69b6fdfe73283300404c786de93",
        "glued_0":
            "1afa53c91bff0da32ee091bd744973dc853001212eb3fca8be71aa117ae09c16",
    }

    @pytest.mark.parametrize("engine", ["fast", "legacy", "vectorized"])
    @pytest.mark.parametrize("family", FLOOD_DIGEST_FAMILIES)
    def test_flood_digest_is_pinned(self, family, engine):
        if engine == "vectorized" and not vectorized_available():
            pytest.skip("numpy unavailable")
        graph = dict(FAMILIES)[family](len(family))
        assert _flood_digest(graph, engine) == self.PINNED[family]
