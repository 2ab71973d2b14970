"""Tests for the CONGEST network simulator: rounds, bandwidth, protocol rules."""

import pytest

from repro.congest.engine import SimulationTrace
from repro.congest.message import Message, payload_size_words
from repro.congest.network import CongestNetwork
from repro.congest.node import BroadcastAll, NodeAlgorithm, NodeContext
from repro.errors import BandwidthExceededError, ConvergenceError, GraphError, SimulationError
from repro.graphs import generators
from repro.graphs.graph import Graph


class TestMessageAccounting:
    def test_scalar_payload_is_one_word(self):
        assert payload_size_words(7) == 1
        assert payload_size_words(3.14) == 1
        assert payload_size_words(None) == 1
        assert payload_size_words("id") == 1

    def test_tuple_payload_counts_elements(self):
        assert payload_size_words((1, 2, 3)) == 4

    def test_dict_payload(self):
        assert payload_size_words({"a": 1}) == 3

    def test_message_size(self):
        assert Message(1, 2, (1, 2)).size_words() == 3

    def test_flat_sizing_matches_recursive_sizing(self):
        zoo = [
            None, True, False, 0, -7, 2**70, 3.5, float("inf"),
            "", "x" * 16, "x" * 17, "x" * 33, _Opaque(),
            (), [], ("dist", 4.0), (1, None, True, 2.5, "tag"),
            ["x" * 17, "", "x" * 33, False], ("dist", (1, 2)), [(), []],
            (1, _Opaque()), ("x" * 16, [None, ("y" * 33,)]),
            {"a": 1, ("k", 2): [3, 4.0]}, {}, {1, 2, "z"}, frozenset({None, 3.0}),
            ({"nested": (1, 2)}, {5}, frozenset({"w"})),
        ]
        try:
            import numpy as np
        except ImportError:
            pass
        else:
            # float64 is a float subclass (1 word); int64 and bool_ are not
            # ints (4 words each, as unknown objects).
            scalars = [np.float64(1.5), np.int64(3), np.bool_(True)]
            zoo += scalars + [tuple(scalars), ("dist", np.float64(2.0)), [np.int64(1), 2]]
        for payload in zoo:
            assert payload_size_words(payload) == _recursive_size_words(payload), payload


class _Opaque:
    """An object of a type the sizing rules do not know."""


def _recursive_size_words(payload):
    """Sizing of every payload by recursion over its items, one call per item."""
    if payload is None or isinstance(payload, (bool, int, float)):
        return 1
    if isinstance(payload, str):
        return max(1, (len(payload) + 15) // 16)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 1 + sum(_recursive_size_words(x) for x in payload)
    if isinstance(payload, dict):
        return 1 + sum(
            _recursive_size_words(k) + _recursive_size_words(v) for k, v in payload.items()
        )
    return 4


class _Silent(NodeAlgorithm):
    def initialize(self, ctx):
        self.halt()
        self.output = ctx.node
        return {}

    def on_round(self, ctx, inbox):
        return {}


class _Oversized(NodeAlgorithm):
    def initialize(self, ctx):
        return {v: tuple(range(100)) for v in ctx.neighbors}

    def on_round(self, ctx, inbox):
        self.halt()
        return {}


class _MessagesStranger(NodeAlgorithm):
    def initialize(self, ctx):
        return {"not-a-neighbor": 1}

    def on_round(self, ctx, inbox):
        return {}


class _NeverHalts(NodeAlgorithm):
    def initialize(self, ctx):
        return {v: 0 for v in ctx.neighbors}

    def on_round(self, ctx, inbox):
        return {v: ctx.round_number for v in ctx.neighbors}


class TestNetwork:
    def test_empty_network_rejected(self):
        with pytest.raises(GraphError):
            CongestNetwork(Graph())

    @pytest.mark.parametrize("budget", ["8", None, 0, -1, 2.5, True])
    def test_words_per_message_must_be_positive_int(self, budget):
        """A budget that is not an int >= 1 is refused at construction,
        before a protocol's first message could be blamed as oversized."""
        with pytest.raises(SimulationError, match="words_per_message"):
            CongestNetwork(generators.cycle_graph(6), words_per_message=budget)

    def test_silent_protocol_zero_rounds(self):
        net = CongestNetwork(generators.path_graph(5))
        result = net.run(lambda u: _Silent())
        assert result.rounds == 0
        assert result.halted
        assert result.outputs[3] == 3

    def test_oversized_message_raises(self):
        net = CongestNetwork(generators.path_graph(3))
        with pytest.raises(BandwidthExceededError):
            net.run(lambda u: _Oversized())

    def test_message_to_non_neighbor_raises(self):
        net = CongestNetwork(generators.path_graph(3))
        with pytest.raises(SimulationError):
            net.run(lambda u: _MessagesStranger())

    def test_round_limit_enforced(self):
        net = CongestNetwork(generators.path_graph(3))
        with pytest.raises(ConvergenceError):
            net.run(lambda u: _NeverHalts(), max_rounds=5, stop_when_quiet=False)

    def test_factory_must_return_node_algorithm(self):
        net = CongestNetwork(generators.path_graph(3))
        with pytest.raises(SimulationError):
            net.run(lambda u: object())  # type: ignore[arg-type]

    def test_broadcast_all_terminates_in_diameter_ish_rounds(self):
        g = generators.path_graph(8)
        net = CongestNetwork(g)
        result = net.run(lambda u: BroadcastAll(value=u))
        # Flooding one item per round: the far ends need at least D rounds.
        assert result.rounds >= 7
        assert result.messages_sent > 0

    def test_local_inputs_are_visible(self):
        class ReadInput(NodeAlgorithm):
            def initialize(self, ctx):
                self.output = ctx.local_edges
                self.halt()
                return {}

            def on_round(self, ctx, inbox):
                return {}

        net = CongestNetwork(generators.path_graph(3))
        result = net.run(lambda u: ReadInput(), local_inputs={0: "zero", 1: "one"})
        assert result.outputs[0] == "zero"
        assert result.outputs[2] is None


class _HalfBudgetPingPong(NodeAlgorithm):
    """Both endpoints of an edge send a half-budget message in the same round."""

    def __init__(self, payload):
        super().__init__()
        self.payload = payload

    def initialize(self, ctx):
        return {v: self.payload for v in ctx.neighbors}

    def on_round(self, ctx, inbox):
        self.halt()
        return {}


class TestPerEdgeBandwidthAccounting:
    """Regression: words are accounted per edge per round, not per message."""

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    def test_two_half_budget_messages_on_one_edge_sum(self, engine):
        # Budget 8; payload (a, b, c) is 4 words.  Both endpoints of the single
        # edge send simultaneously: the edge carries 8 words in round 1, which
        # is legal (4 per direction) and must be reported as 8, not 4.
        payload = (1, 2, 3)
        assert payload_size_words(payload) == 4
        net = CongestNetwork(generators.path_graph(2), words_per_message=8)
        result = net.run(lambda u: _HalfBudgetPingPong(payload), engine=engine)
        assert result.max_words_per_edge_round == 8
        assert result.max_message_words == 4
        assert result.messages_sent == 2
        assert result.words_sent == 8

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    def test_single_oversized_message_still_raises(self, engine):
        net = CongestNetwork(generators.path_graph(2), words_per_message=3)
        with pytest.raises(BandwidthExceededError):
            net.run(lambda u: _HalfBudgetPingPong((1, 2, 3)), engine=engine)

    def test_edge_peak_is_per_round_not_cumulative(self):
        # BroadcastAll keeps edges busy over many rounds; the per-edge peak
        # must stay bounded by one round's worth of traffic (2 messages of
        # (node, value) = 3 words each), not accumulate across rounds.
        net = CongestNetwork(generators.path_graph(6))
        result = net.run(lambda u: BroadcastAll(value=u))
        assert result.rounds > 2
        assert result.max_words_per_edge_round <= 6


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        net = CongestNetwork(generators.path_graph(3))
        with pytest.raises(SimulationError):
            net.run(lambda u: _Silent(), engine="warp")

    def test_removed_options_are_refused(self):
        """The tier is chosen by ``run(engine=...)`` alone, and every
        oversized message raises: the network takes no default engine and
        no lenient bandwidth mode, and the labeling no broadcast tier."""
        from repro.labeling.construction import build_distance_labeling

        graph = generators.path_graph(3)
        with pytest.raises(TypeError):
            CongestNetwork(graph, engine="fast")
        with pytest.raises(TypeError):
            CongestNetwork(graph, strict_bandwidth=False)
        instance = generators.to_directed_instance(graph, seed=1)
        with pytest.raises(TypeError):
            build_distance_labeling(instance, measured_broadcast=True, broadcast_engine="fast")

    def test_removed_sharded_tier_is_refused(self):
        """``sharded`` is not an engine: a request for it raises instead of
        running or falling back to another tier, and its keywords are
        rejected."""
        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.congest.network import ENGINES

        assert ENGINES == ("fast", "legacy", "vectorized", "async")
        graph = generators.path_graph(3)
        net = CongestNetwork(graph)
        with pytest.raises(SimulationError) as exc:
            net.run(lambda u: _Silent(), engine="sharded")
        assert str(ENGINES) in str(exc.value)
        with pytest.raises(TypeError):
            net.run(lambda u: _Silent(), shard_pool=None)
        instance = generators.to_directed_instance(graph, seed=1)
        with pytest.raises(TypeError):
            distributed_bellman_ford(instance, 0, num_shards=2)

    @pytest.mark.parametrize(
        "removed",
        [
            "CongestNetwork.run",
            "run_async",
            "distributed_bellman_ford",
            "build_bfs_tree",
            "broadcast",
            "flood_chunks",
            "convergecast_sum",
            "elect_leader",
            "measured_label_broadcast",
            "repro.congest.faults",
            "SimulationResult.fault_verdict",
            "NodeAlgorithm.on_link_recovery",
            "FaultInjectionError",
        ],
    )
    def test_removed_fault_layer_is_refused(self, removed):
        """The simulator is fault-free, like the paper's CONGEST model: no
        entry point takes ``fault_schedule=``, and the fault module, the
        verdict field, the recovery hook and the error class are gone."""
        import importlib

        import repro.errors
        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.congest.network import SimulationResult
        from repro.congest.primitives import (
            broadcast,
            build_bfs_tree,
            convergecast_sum,
            elect_leader,
            flood_chunks,
        )
        from repro.congest.scheduler import run_async
        from repro.labeling.construction import build_distance_labeling
        from repro.labeling.sssp import measured_label_broadcast

        graph = generators.path_graph(3)
        net = CongestNetwork(graph)
        instance = generators.to_directed_instance(graph, seed=1)
        kw = {"fault_schedule": None}
        calls = {
            "CongestNetwork.run": lambda: net.run(lambda u: _Silent(), engine="async", **kw),
            "run_async": lambda: run_async(net, lambda u: _Silent(), **kw),
            "distributed_bellman_ford": lambda: distributed_bellman_ford(instance, 0, **kw),
            "build_bfs_tree": lambda: build_bfs_tree(net, 0, **kw),
            "broadcast": lambda: broadcast(net, 0, "x", **kw),
            "flood_chunks": lambda: flood_chunks(net, 0, ["c"], **kw),
            "convergecast_sum": lambda: convergecast_sum(
                net, {0: None, 1: 0, 2: 1}, {0: 1, 1: 2, 2: 3}, **kw
            ),
            "elect_leader": lambda: elect_leader(net, **kw),
            "measured_label_broadcast": lambda: measured_label_broadcast(
                net, build_distance_labeling(instance).labeling, 0, **kw
            ),
        }
        names = {
            "repro.congest.faults": (
                ModuleNotFoundError,
                lambda: importlib.import_module("repro.congest.faults"),
            ),
            "SimulationResult.fault_verdict": (
                TypeError,
                lambda: SimulationResult(0, {}, 0, 0, 0, True, fault_verdict=None),
            ),
            "NodeAlgorithm.on_link_recovery": (
                AttributeError,
                lambda: NodeAlgorithm.on_link_recovery,
            ),
            "FaultInjectionError": (AttributeError, lambda: repro.errors.FaultInjectionError),
        }
        if removed in calls:
            with pytest.raises(TypeError, match="fault_schedule"):
                calls[removed]()
        else:
            error, call = names[removed]
            with pytest.raises(error, match=removed.rsplit(".", 1)[-1]):
                call()

    def test_result_records_engine(self):
        net = CongestNetwork(generators.path_graph(3))
        assert net.run(lambda u: _Silent()).engine == "fast"
        assert net.run(lambda u: _Silent(), engine="legacy").engine == "legacy"

    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    def test_trace_records_round_stats(self, engine):
        net = CongestNetwork(generators.path_graph(8))
        trace = SimulationTrace()
        result = net.run(lambda u: BroadcastAll(value=u), engine=engine, trace=trace)
        assert result.trace is trace
        assert len(trace) == result.rounds
        assert sum(r.messages_delivered for r in trace.rounds) == result.messages_sent
        assert sum(r.words_delivered for r in trace.rounds) == result.words_sent
        assert max(r.max_edge_words for r in trace.rounds) == result.max_words_per_edge_round
        assert max(r.active_nodes for r in trace.rounds) == 8
        rounds_seen = [r.round_number for r in trace]
        assert rounds_seen == list(range(1, result.rounds + 1))
        assert trace.rounds[-1].halted_nodes == 8

    def test_trace_callback_streams(self):
        seen = []
        trace = SimulationTrace(callback=seen.append)
        net = CongestNetwork(generators.path_graph(5))
        result = net.run(lambda u: BroadcastAll(value=u), trace=trace)
        assert len(seen) == result.rounds


class TestIndexedView:
    def test_csr_structure_matches_graph(self):
        g = generators.grid_graph(3, 4)
        idx = g.to_indexed()
        assert idx.num_nodes == g.num_nodes()
        assert idx.num_edges == g.num_edges()
        assert idx.indptr[0] == 0 and idx.indptr[-1] == len(idx.indices)
        for i, u in enumerate(idx.node_ids):
            assert idx.index_of[u] == i
            row = idx.indices[idx.indptr[i] : idx.indptr[i + 1]]
            assert idx.neighbor_ids[i] == tuple(sorted(g.neighbors(u), key=str))
            assert [idx.node_ids[j] for j in row] == list(idx.neighbor_ids[i])

    def test_edge_ids_dense_and_consistent(self):
        g = generators.partial_k_tree(25, 3, seed=3)
        idx = g.to_indexed()
        assert len(idx.arc_edge_ids) == len(idx.indices) == 2 * idx.num_edges
        arc_ids = {}
        for i in range(idx.num_nodes):
            for pos in range(idx.indptr[i], idx.indptr[i + 1]):
                arc_ids[i, idx.indices[pos]] = idx.arc_edge_ids[pos]
        for (i, j), eid in arc_ids.items():
            assert arc_ids[j, i] == eid
        assert sorted(arc_ids.values()) == sorted(list(range(idx.num_edges)) * 2)

    def test_edge_ids_follow_first_encounter_order(self):
        """Scanning the arcs in CSR order, each edge's id is the number of
        distinct edges met before it."""
        idx = generators.grid_graph(3, 4).to_indexed()
        first_seen = {}
        for eid in idx.arc_edge_ids:
            first_seen.setdefault(eid, len(first_seen))
            assert first_seen[eid] == eid

    def test_neighbor_maps_agree_with_the_graph(self):
        g = generators.partial_k_tree(20, 2, seed=5)
        idx = g.to_indexed()
        maps = idx.neighbor_maps
        assert idx.neighbor_maps is maps  # built once per snapshot
        for u in g.nodes():
            i = idx.index_of[u]
            assert set(maps[i]) == set(g.neighbors(u))
            for v, (j, eid) in maps[i].items():
                assert j == idx.index_of[v]
                assert maps[j][u] == (i, eid)

    def test_isolated_node_has_an_empty_row(self):
        g = Graph(edges=[(0, 1, 2.5), (1, 2, 7.0)])
        g.add_node("iso")
        idx = g.to_indexed()
        i = idx.index_of["iso"]
        assert idx.indptr[i] == idx.indptr[i + 1]
        assert idx.neighbor_ids[i] == ()
        assert idx.neighbor_maps[i] == {}
        assert (idx.num_nodes, idx.num_edges) == (4, 2)

    def test_cache_invalidated_on_mutation(self):
        g = generators.path_graph(4)
        first = g.to_indexed()
        assert g.to_indexed() is first  # cached
        g.add_edge(0, 3)
        second = g.to_indexed()
        assert second is not first
        assert second.num_edges == first.num_edges + 1

    def test_partially_ordered_node_ids(self):
        # frozensets compare by subset relation (a partial order): the edge
        # key must still be canonical regardless of argument order.
        a, b = frozenset({1}), frozenset({2})
        g = Graph()
        g.add_edge(a, b, weight=5.0)
        assert g.weight(b, a) == 5.0
        g.add_edge(b, a, weight=2.0)  # multi-edge collapses to min weight
        assert g.num_edges() == 1
        assert g.weight(a, b) == 2.0
        idx = g.to_indexed()
        assert idx.num_edges == 1
