"""The three solve workloads: one seeded input, solved repeatedly.

Each workload class builds its input from the seed (``make_input``),
computes the oracle once (``oracle``), runs one timed solve (``solve``),
checks a solve against the oracle (``check``) and reads its end-to-end
counts (``counts``).
"""

from __future__ import annotations

import random

from inputs import (
    asymmetric_arcs, digraph, grid_edges, nodes_of, partial_ktree_edges, undirected,
)
from oracle import INF, adjacency, bfs_depths, dijkstra, reverse_arcs, rows_match


def _sample_pairs(rng, nodes, sources, per_source):
    return [(s, rng.choice(nodes)) for s in sources for _ in range(per_source)]


def _pairs_ok(distances, pairs, rows) -> bool:
    return all(d == rows[u].get(v, INF) for d, (u, v) in zip(distances, pairs))


class KtreePipeline:
    """``LowTreewidthSolver`` end to end on a directed partial 3-tree."""

    name = "ktree_pipeline"
    n = 1200
    sources = 8
    pair_sources = 8
    pairs_per_source = 64
    capture = ()

    def make_input(self, seed: int) -> dict:
        rng = random.Random(seed)
        edges = partial_ktree_edges(self.n, 3, 0.7)
        nodes = list(range(self.n))
        arcs = asymmetric_arcs(edges, rng, 1, 100)
        picks = rng.sample(nodes, self.sources + self.pair_sources)
        return {
            "instance": digraph(nodes, arcs),
            "arcs": arcs,
            "sources": picks[: self.sources],
            "pairs": _sample_pairs(rng, nodes, picks[self.sources:], self.pairs_per_source),
            "solver_seed": rng.randrange(2**31),
        }

    def oracle(self, inp: dict) -> dict:
        from repro.girth.baselines import exact_girth_directed

        fwd, rev = adjacency(inp["arcs"]), adjacency(reverse_arcs(inp["arcs"]))
        row_sources = set(inp["sources"]) | {u for u, _ in inp["pairs"]}
        return {
            "from": {s: dijkstra(fwd, s) for s in row_sources},
            "to": {s: dijkstra(rev, s) for s in inp["sources"]},
            "girth": exact_girth_directed(inp["instance"]),
        }

    def solve(self, inp: dict) -> dict:
        from repro.core.api import LowTreewidthSolver
        from repro.core.config import FrameworkConfig
        from repro.labeling.packed import PackedLabeling

        solver = LowTreewidthSolver(
            inp["instance"], config=FrameworkConfig(seed=inp["solver_seed"])
        )
        labeling = solver.distance_labeling()
        sssp = [solver.single_source_shortest_paths(s) for s in inp["sources"]]
        girth = solver.girth()
        packed = PackedLabeling.from_labeling(labeling.labeling)
        return {"labeling": labeling, "sssp": sssp, "girth": girth, "packed": packed}

    def check(self, res: dict, inp: dict, orc: dict, checks) -> int:
        nodes = range(self.n)
        for sp in res["sssp"]:
            checks.record(rows_match(sp.distances, orc["from"][sp.source], nodes)
                          and rows_match(sp.distances_to_source, orc["to"][sp.source], nodes),
                          f"SSSP row from {sp.source}")
        pairs = inp["pairs"]
        lab = res["labeling"].labeling
        checks.record(_pairs_ok([lab.distance(u, v) for u, v in pairs], pairs, orc["from"]),
                      "sampled label pairs")
        packed = res["packed"].query([u for u, _ in pairs], [v for _, v in pairs])
        checks.record(_pairs_ok([float(x) for x in packed], pairs, orc["from"]),
                      "packed label pairs")
        got = res["girth"].girth
        checks.record(got >= orc["girth"], f"girth {got} below exact {orc['girth']}")
        return int(got > orc["girth"])

    def counts(self, res: dict, captured) -> dict:
        rounds = res["labeling"].rounds + res["girth"].rounds
        rounds += sum(sp.rounds for sp in res["sssp"])
        return {"rounds": rounds,
                "label_entries_max": res["labeling"].labeling.max_entries()}


class GridWalks:
    """Separator matching and undirected girth (CDL trials) on narrow grids."""

    name = "grid_walks"
    matching_shape = (4, 40)
    girth_shape = (4, 10)
    trials_per_scale = 1
    capture = ("walks.cdl",)

    def make_input(self, seed: int) -> dict:
        rng = random.Random(seed)
        m_edges = grid_edges(*self.matching_shape)
        g_edges = grid_edges(*self.girth_shape)
        weights = [float(rng.randint(1, 20)) for _ in g_edges]
        return {
            "matching_graph": undirected(nodes_of(m_edges), m_edges),
            "girth_graph": undirected(nodes_of(g_edges), g_edges, weights),
            "solver_seed": rng.randrange(2**31),
        }

    def oracle(self, inp: dict) -> dict:
        from repro.girth.baselines import exact_girth_undirected
        from repro.matching.hopcroft_karp import maximum_matching_size

        return {
            "matching": maximum_matching_size(inp["matching_graph"]),
            "girth": exact_girth_undirected(inp["girth_graph"]),
        }

    def solve(self, inp: dict) -> dict:
        from repro.core.config import FrameworkConfig
        from repro.girth.girth import undirected_girth
        from repro.matching.bipartite import maximum_bipartite_matching

        seed = inp["solver_seed"]
        matching = maximum_bipartite_matching(
            inp["matching_graph"], config=FrameworkConfig(seed=seed)
        )
        girth = undirected_girth(
            inp["girth_graph"], config=FrameworkConfig(seed=seed),
            trials_per_scale=self.trials_per_scale,
        )
        return {"matching": matching, "girth": girth}

    def check(self, res: dict, inp: dict, orc: dict, checks) -> int:
        graph = inp["matching_graph"]
        covered = [v for edge in res["matching"].matching for v in edge]
        valid = len(covered) == len(set(covered)) and all(
            graph.has_edge(*tuple(edge)) for edge in res["matching"].matching
        )
        checks.record(valid and res["matching"].size == orc["matching"],
                      f"matching size {res['matching'].size} vs {orc['matching']}")
        got = res["girth"].girth
        checks.record(got >= orc["girth"], f"girth {got} below exact {orc['girth']}")
        return int(got > orc["girth"])

    def counts(self, res: dict, captured) -> dict:
        cdls = captured.get("walks.cdl", [])
        return {
            "rounds": res["matching"].rounds + res["girth"].rounds,
            "label_entries_max": max(
                (c.labeling.max_label_entries() for c in cdls), default=0
            ),
        }


class CongestSssp:
    """Engine-measured SSSP, BFS and label broadcasts on a long narrow grid."""

    name = "congest_sssp"
    shape = (4, 80)
    engines = ("fast", "vectorized", "async")
    pair_sources = 8
    pairs_per_source = 64
    capture = ()

    def make_input(self, seed: int) -> dict:
        rng = random.Random(seed)
        edges = grid_edges(*self.shape)
        nodes = nodes_of(edges)
        arcs = asymmetric_arcs(edges, rng, 1, 20)
        return {
            "instance": digraph(nodes, arcs),
            "comm": undirected(nodes, edges),
            "edges": edges,
            "arcs": arcs,
            "nodes": nodes,
            "source": (0, 0),
            "pairs": _sample_pairs(rng, nodes, rng.sample(nodes, self.pair_sources),
                                   self.pairs_per_source),
            "solver_seed": rng.randrange(2**31),
        }

    def oracle(self, inp: dict) -> dict:
        fwd = adjacency(inp["arcs"])
        row_sources = {inp["source"]} | {u for u, _ in inp["pairs"]}
        return {
            "from": {s: dijkstra(fwd, s) for s in row_sources},
            "depth": bfs_depths(inp["edges"], inp["source"]),
        }

    def solve(self, inp: dict) -> dict:
        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.congest.network import CongestNetwork
        from repro.congest.primitives import build_bfs_tree
        from repro.core.config import FrameworkConfig
        from repro.labeling.construction import build_distance_labeling
        from repro.labeling.sssp import single_source_shortest_paths

        src = inp["source"]
        bf = [distributed_bellman_ford(inp["instance"], src, engine=e) for e in self.engines]
        parent, depth, bfs = build_bfs_tree(CongestNetwork(inp["comm"]), src)
        labeling = build_distance_labeling(
            inp["instance"], config=FrameworkConfig(seed=inp["solver_seed"]),
            measured_broadcast=True,
        )
        sssp = single_source_shortest_paths(
            labeling.labeling, src, network=CongestNetwork(inp["comm"], words_per_message=8)
        )
        return {"bf": bf, "parent": parent, "depth": depth, "bfs": bfs,
                "labeling": labeling, "sssp": sssp}

    def check(self, res: dict, inp: dict, orc: dict, checks) -> int:
        nodes = inp["nodes"]
        row = orc["from"][inp["source"]]
        for engine, bf in zip(self.engines, res["bf"]):
            checks.record(rows_match(bf.distances, row, nodes), f"Bellman-Ford [{engine}]")
        depth, parent = res["depth"], res["parent"]
        checks.record(
            depth == orc["depth"] and all(
                p is None or depth[p] == depth[v] - 1 for v, p in parent.items()
            ),
            "BFS tree depths",
        )
        pairs = inp["pairs"]
        lab = res["labeling"].labeling
        checks.record(_pairs_ok([lab.distance(u, v) for u, v in pairs], pairs, orc["from"]),
                      "sampled label pairs")
        checks.record(rows_match(res["sssp"].simulation.outputs, row, nodes),
                      "measured label broadcast")
        return 0

    def counts(self, res: dict, captured) -> dict:
        rounds = sum(bf.rounds for bf in res["bf"]) + res["bfs"].rounds
        rounds += res["labeling"].rounds + res["sssp"].rounds
        return {"rounds": rounds,
                "label_entries_max": res["labeling"].labeling.max_entries()}


SOLVE_WORKLOADS = {w.name: w for w in (KtreePipeline(), GridWalks(), CongestSssp())}
