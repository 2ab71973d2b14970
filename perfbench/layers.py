"""Where the benchmark cuts the library into layers, and what it reads there.

:func:`install` wraps the public callables of each layer (``repro.core.api``,
``repro.graphs``, ``repro.decomposition``, ``repro.labeling``,
``repro.walks``, ``repro.matching``, ``repro.girth``, ``repro.congest``,
``repro.serving``); :func:`layer_metrics` turns the spans of one solve into
the per-layer metrics listed in :mod:`metrics`.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from spans import Tracer

LAYERS = (
    "api", "graphs", "decomposition", "labeling", "walks",
    "matching", "girth", "congest", "serving",
)


def _bf_name(args, kwargs) -> str:
    return f"congest.bf[{kwargs.get('engine') or 'fast'}]"


def install(tracer: Tracer) -> None:
    """Wrap every traced callable (imports the modules that bind them first)."""
    import repro.core.api  # noqa: F401  (binds the names patched below)
    import repro.girth.girth  # noqa: F401
    import repro.labeling.sssp  # noqa: F401
    import repro.matching.bipartite  # noqa: F401
    import repro.serving  # noqa: F401
    import repro.walks.cdl  # noqa: F401

    fn, meth = tracer.patch_function, tracer.patch_method
    api = "repro.core.api"
    meth(api, "LowTreewidthSolver", "__init__", "api.solver_init")
    for attr in ("tree_decomposition", "distance_labeling",
                 "single_source_shortest_paths", "girth", "maximum_matching"):
        meth(api, "LowTreewidthSolver", attr, f"api.{attr}")

    meth("repro.graphs.digraph", "WeightedDiGraph", "subgraph", "graphs.subgraph")
    fn("repro.graphs.properties", "diameter", "graphs.diameter")
    fn("repro.graphs.properties", "dijkstra", "graphs.dijkstra")

    fn("repro.decomposition.tree_decomposition", "build_tree_decomposition",
       "decomposition.build", capture=True)
    meth("repro.decomposition.separator", "BalancedSeparator", "find",
         "decomposition.separator_find")

    fn("repro.labeling.construction", "build_distance_labeling", "labeling.build",
       capture=True)
    fn("repro.labeling.sssp", "single_source_shortest_paths", "labeling.sssp",
       capture=True)
    meth("repro.labeling.packed", "PackedLabeling", "from_labeling", "labeling.pack",
         capture=True)

    fn("repro.walks.cdl", "build_constrained_labeling", "walks.cdl", capture=True)
    fn("repro.walks.product", "build_product_graph", "walks.product", capture=True)
    fn("repro.walks.product", "lift_tree_decomposition", "walks.lift")

    fn("repro.matching.bipartite", "maximum_bipartite_matching", "matching.solve",
       capture=True)
    fn("repro.matching.augmenting", "find_augmenting_path", "matching.augment")

    for attr in ("compute_girth", "directed_girth", "undirected_girth"):
        fn("repro.girth.girth", attr, f"girth.{attr}", capture=True)

    meth("repro.congest.network", "CongestNetwork", "__init__", "congest.network_init")
    meth("repro.congest.network", "CongestNetwork", "run", "congest.run", capture=True)
    fn("repro.congest.bellman_ford", "distributed_bellman_ford", "congest.bf",
       namer=_bf_name)
    fn("repro.congest.primitives", "build_bfs_tree", "congest.bfs")
    fn("repro.congest.primitives", "flood_chunks", "congest.flood")
    fn("repro.labeling.sssp", "measured_label_broadcast", "congest.broadcast")

    meth("repro.serving.store", "LabelStore", "build", "serving.store_build")
    meth("repro.serving.server", "ServerPool", "__init__", "serving.start")


def split_rounds(ledger) -> Dict[str, int]:
    """Rounds measured on the engine vs charged by the ``CostModel``."""
    measured = modelled = 0
    for phase, rounds in ledger.breakdown().items():
        if phase.endswith("[measured]"):
            measured += rounds
        else:
            modelled += rounds
    return {"measured": measured, "modelled": modelled}


def _results(spans, name) -> List:
    return [s.result for s in spans if s.name == name and s.result is not None]


def layer_metrics(tracer: Tracer, first: int, solve_s: float) -> Dict[str, float]:
    """Per-layer metrics of the spans recorded since index ``first``."""
    summ = tracer.summary(first)
    spans = tracer.spans[first:]

    def calls(name):
        return summ[name]["calls"] if name in summ else 0

    def total(name):
        return summ[name]["total_s"] if name in summ else 0.0

    m: Dict[str, float] = {}
    m["graphs.subgraph_calls"] = calls("graphs.subgraph")
    m["graphs.subgraph_s"] = total("graphs.subgraph")
    m["graphs.diameter_calls"] = calls("graphs.diameter")
    m["graphs.diameter_s"] = total("graphs.diameter")

    decomps = _results(spans, "decomposition.build")
    m["decomposition.build_calls"] = calls("decomposition.build")
    m["decomposition.build_s"] = total("decomposition.build")
    m["decomposition.separator_calls"] = calls("decomposition.separator_find")
    m["decomposition.separator_find_s"] = total("decomposition.separator_find")
    m["decomposition.width"] = max((d.decomposition.width() for d in decomps), default=0)
    m["decomposition.depth"] = max((d.decomposition.depth() for d in decomps), default=0)
    m["decomposition.rounds"] = max((d.rounds for d in decomps), default=0)

    labelings = _results(spans, "labeling.build")
    sssps = _results(spans, "labeling.sssp")
    packs = _results(spans, "labeling.pack")
    measured = modelled = 0
    for res in labelings:
        split = split_rounds(res.ledger)
        measured += split["measured"]
        modelled += split["modelled"]
    for res in sssps:
        if res.simulation is not None:
            measured += res.rounds
        else:
            modelled += res.rounds
    m["labeling.build_calls"] = calls("labeling.build")
    m["labeling.build_s"] = total("labeling.build")
    m["labeling.dijkstra_calls"] = sum(
        1 for s in spans if s.name == "graphs.dijkstra"
        and any(a.name == "labeling.build" for a in tracer.ancestors(s))
    )
    m["labeling.entries_max"] = max((r.labeling.max_entries() for r in labelings), default=0)
    m["labeling.entries_total"] = sum(r.labeling.total_entries() for r in labelings)
    m["labeling.rounds_measured"] = measured
    m["labeling.rounds_modelled"] = modelled
    m["labeling.sssp_s"] = total("labeling.sssp")
    m["labeling.pack_s"] = total("labeling.pack")
    m["labeling.packed_bytes"] = sum(p.array_bytes for p in packs)

    product_labelings = [
        s.result for s in spans if s.name == "labeling.build" and s.result is not None
        and any(a.name == "walks.cdl" for a in tracer.ancestors(s))
    ]
    m["walks.cdl_calls"] = calls("walks.cdl")
    m["walks.cdl_s"] = total("walks.cdl")
    m["walks.product_s"] = total("walks.product")
    m["walks.lift_s"] = total("walks.lift")
    m["walks.product_nodes"] = sum(
        p.graph.num_nodes() for p in _results(spans, "walks.product")
    )
    m["walks.product_entries_max"] = max(
        (r.labeling.max_entries() for r in product_labelings), default=0
    )

    matchings = _results(spans, "matching.solve")
    augment_calls = calls("matching.augment")
    augmentations = sum(r.augmentations for r in matchings)
    m["matching.solve_s"] = total("matching.solve")
    m["matching.rounds"] = sum(r.rounds for r in matchings)
    m["matching.augment_calls"] = augment_calls
    m["matching.augment_s"] = total("matching.augment")
    m["matching.augmentations"] = augmentations
    m["matching.augment_yield"] = augmentations / augment_calls if augment_calls else 0.0
    m["matching.separator_vertices"] = sum(r.separator_vertices for r in matchings)

    outer_girth = [
        s for s in spans if s.layer == "girth"
        and not any(a.layer == "girth" for a in tracer.ancestors(s))
    ]
    m["girth.compute_s"] = sum(s.duration for s in outer_girth)
    m["girth.trials"] = sum(s.result.trials for s in outer_girth if s.result is not None)
    m["girth.rounds"] = sum(s.result.rounds for s in outer_girth if s.result is not None)

    runs = _results(spans, "congest.run")
    run_s = total("congest.run")
    messages = sum(r.messages_sent for r in runs)
    async_rates = [r.async_stats["events_per_sec"] for r in runs if r.async_stats]
    m["congest.run_calls"] = calls("congest.run")
    m["congest.run_s"] = run_s
    for engine in ("fast", "vectorized", "async"):
        m[f"congest.bf_{engine}_s"] = total(f"congest.bf[{engine}]")
    m["congest.bfs_s"] = total("congest.bfs")
    m["congest.flood_s"] = total("congest.flood")
    m["congest.broadcast_s"] = total("congest.broadcast")
    m["congest.rounds"] = sum(r.rounds for r in runs)
    m["congest.messages"] = messages
    m["congest.words"] = sum(r.words_sent for r in runs)
    m["congest.msgs_per_s"] = messages / run_s if run_s > 0 else 0.0
    m["congest.async_events_per_s"] = (
        sum(async_rates) / len(async_rates) if async_rates else 0.0
    )

    covered = 0.0
    for layer in LAYERS:
        own = summ[f"layer:{layer}"]["self_s"] if f"layer:{layer}" in summ else 0.0
        m[f"{layer}.self_s"] = own
        covered += own
    m["bench.self_coverage"] = covered / solve_s if solve_s > 0 else 0.0
    return m


def median_metrics(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over the traced solves."""
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}
