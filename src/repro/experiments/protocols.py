"""Protocol adapters: one callable per matrix protocol axis value.

Each adapter maps a :class:`~repro.experiments.matrix.CellSpec` onto an
existing entry point — the :meth:`CongestNetwork.run` helpers for the
engine-tier protocols, the packed/scalar label decoders for the serving
protocol, and the ``repro.analysis.experiments`` runners (E1–E9) for
the structural protocols — and returns one flat *result dict* of
deterministic fields (sizes, rounds, message/word ledger, an
``output_digest`` over the protocol outputs).  Wall-clock timing is
measured by the runner around the adapter, not inside it, so the
persisted record cleanly separates reproducible facts from
machine-dependent ones.

Adapters declare which engine-axis and family-axis values they support;
the matrix cross product is filtered accordingly (see
:meth:`Matrix.cells`).  Engine-tier adapters request the cell's engine
through the normal fallback ladder and record both the requested and
the actually-selected tier, so a no-numpy host produces honest records
instead of errors.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .matrix import ENGINES, STRUCTURAL_ENGINE, CellSpec, family_size


def output_digest(payload) -> str:
    """Deterministic SHA-256 digest of a JSON-serializable output value.

    Node ids may be tuples (grids) and distances may be ``inf``; both are
    canonicalized via ``default=str`` / non-strict float handling, which
    is stable across runs and processes for the types the protocols
    produce.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ProtocolAdapter:
    """A named protocol with its supported axis values."""

    name: str
    run: Callable[[CellSpec], dict]
    engines: Tuple[str, ...]
    families: Tuple[str, ...]


REGISTRY: Dict[str, ProtocolAdapter] = {}


def register_protocol(name: str, engines: Tuple[str, ...], families: Tuple[str, ...]):
    def deco(fn):
        REGISTRY[name] = ProtocolAdapter(
            name=name, run=fn, engines=engines, families=families
        )
        return fn

    return deco


# --------------------------------------------------------------------------- #
# shared builders
# --------------------------------------------------------------------------- #
def build_family_graph(family: str, scale: str, seed: int):
    """The undirected instance of one (family, scale, seed) axis point."""
    from repro.graphs import generators

    n = family_size(family, scale)
    if family == "path":
        return generators.path_graph(n)
    if family == "dense":
        return generators.complete_graph(n)
    if family == "grid":
        return generators.grid_graph(n, n)
    if family == "ktree":
        return generators.partial_k_tree(n, 3, seed=seed)
    if family == "tree":
        return generators.random_tree(n, seed=seed)
    raise KeyError(f"family {family!r} has no graph builder")


def _directed_instance(family: str, scale: str, seed: int):
    from repro.graphs import generators

    graph = build_family_graph(family, scale, seed)
    return generators.to_directed_instance(
        graph, weight_range=(1, 10), orientation="both", seed=seed
    )


def _root(graph):
    return min(graph.nodes())


def _engine_kwargs(cell: CellSpec) -> dict:
    """Per-engine keyword arguments for the CONGEST entry points."""
    kwargs: dict = {"engine": cell.engine}
    if cell.engine == "async":
        from repro.congest.scheduler import UnitDelay

        kwargs["delay_model"] = UnitDelay()
    return kwargs


def _sim_fields(cell: CellSpec, sim) -> dict:
    """The ledger fields every CONGEST cell shares."""
    out = {
        "engine_requested": cell.engine,
        "engine_selected": sim.engine,
        "rounds": sim.rounds,
        "messages": sim.messages_sent,
        "words": sim.words_sent,
        "max_words_per_edge_round": sim.max_words_per_edge_round,
    }
    if cell.engine == "async" and sim.engine == "async":
        out["virtual_time"] = sim.virtual_time
    return out


def _run_quiet(fn):
    """Run an entry point, capturing engine-fallback warnings as data."""
    from repro.congest.engine import EngineFallbackWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EngineFallbackWarning)
        result = fn()
    fallbacks = [
        str(w.message) for w in caught if issubclass(w.category, EngineFallbackWarning)
    ]
    return result, fallbacks


CONGEST_FAMILIES = ("path", "dense", "grid", "ktree", "tree")


# --------------------------------------------------------------------------- #
# engine-tier protocols
# --------------------------------------------------------------------------- #
@register_protocol("bellman_ford", engines=ENGINES, families=CONGEST_FAMILIES)
def run_bellman_ford_cell(cell: CellSpec) -> dict:
    from repro.congest.bellman_ford import distributed_bellman_ford

    instance = _directed_instance(cell.family, cell.scale, cell.seed)
    source = _root(instance)
    result, fallbacks = _run_quiet(
        lambda: distributed_bellman_ford(instance, source, **_engine_kwargs(cell))
    )
    record = _sim_fields(cell, result.simulation)
    record.update(
        n=instance.num_nodes(),
        m=instance.num_edges(),
        output_digest=output_digest(
            {str(v): result.distances[v] for v in result.distances}
        ),
    )
    if fallbacks:
        record["fallbacks"] = fallbacks
    return record


@register_protocol("bfs_tree", engines=ENGINES, families=CONGEST_FAMILIES)
def run_bfs_tree_cell(cell: CellSpec) -> dict:
    from repro.congest.network import CongestNetwork
    from repro.congest.primitives import build_bfs_tree

    graph = build_family_graph(cell.family, cell.scale, cell.seed)
    network = CongestNetwork(graph)
    root = _root(graph)
    (parent, depth, sim), fallbacks = _run_quiet(
        lambda: build_bfs_tree(network, root, **_engine_kwargs(cell))
    )
    record = _sim_fields(cell, sim)
    record.update(
        n=graph.num_nodes(),
        m=graph.num_edges(),
        output_digest=output_digest({str(v): depth[v] for v in depth}),
    )
    if fallbacks:
        record["fallbacks"] = fallbacks
    return record


@register_protocol("broadcast", engines=ENGINES, families=CONGEST_FAMILIES)
def run_broadcast_cell(cell: CellSpec) -> dict:
    from repro.congest.network import CongestNetwork
    from repro.congest.primitives import broadcast

    graph = build_family_graph(cell.family, cell.scale, cell.seed)
    network = CongestNetwork(graph)
    root = _root(graph)
    (received, sim), fallbacks = _run_quiet(
        lambda: broadcast(network, root, cell.seed, **_engine_kwargs(cell))
    )
    record = _sim_fields(cell, sim)
    record.update(
        n=graph.num_nodes(),
        m=graph.num_edges(),
        output_digest=output_digest({str(v): received[v] for v in received}),
    )
    if fallbacks:
        record["fallbacks"] = fallbacks
    return record


@register_protocol("leader_election", engines=ENGINES, families=CONGEST_FAMILIES)
def run_leader_election_cell(cell: CellSpec) -> dict:
    from repro.congest.network import CongestNetwork
    from repro.congest.primitives import elect_leader

    graph = build_family_graph(cell.family, cell.scale, cell.seed)
    network = CongestNetwork(graph)
    (leader, sim), fallbacks = _run_quiet(
        lambda: elect_leader(network, **_engine_kwargs(cell))
    )
    record = _sim_fields(cell, sim)
    record.update(
        n=graph.num_nodes(),
        m=graph.num_edges(),
        output_digest=output_digest(str(leader)),
    )
    if fallbacks:
        record["fallbacks"] = fallbacks
    return record


@register_protocol("convergecast", engines=ENGINES, families=CONGEST_FAMILIES)
def run_convergecast_cell(cell: CellSpec) -> dict:
    from repro.congest.network import CongestNetwork
    from repro.congest.primitives import build_bfs_tree, convergecast_sum

    graph = build_family_graph(cell.family, cell.scale, cell.seed)
    network = CongestNetwork(graph)
    root = _root(graph)
    parent, _, _ = build_bfs_tree(network, root, engine="fast")
    values = {v: i + 1 for i, v in enumerate(sorted(graph.nodes(), key=str))}
    (total, sim), fallbacks = _run_quiet(
        lambda: convergecast_sum(network, parent, values, **_engine_kwargs(cell))
    )
    record = _sim_fields(cell, sim)
    record.update(
        n=graph.num_nodes(),
        m=graph.num_edges(),
        output_digest=output_digest(total),
    )
    if fallbacks:
        record["fallbacks"] = fallbacks
    return record


# --------------------------------------------------------------------------- #
# serving protocol — the engine axis selects the decode backend
# --------------------------------------------------------------------------- #
SERVING_QUERY_COUNTS = {"smoke": 400, "small": 2000, "full": 20000}


@register_protocol("serving_query", engines=("scalar", "packed"), families=("ktree", "grid"))
def run_serving_query_cell(cell: CellSpec) -> dict:
    """Label-decode throughput: scalar ``decode_distance`` vs the packed batch kernel."""
    import random

    from repro.labeling.construction import build_distance_labeling
    from repro.labeling.labels import decode_distance

    instance = _directed_instance(cell.family, cell.scale, cell.seed)
    labeling = build_distance_labeling(instance).labeling
    nodes = sorted(instance.nodes(), key=str)
    rng = random.Random(cell.seed * 7919 + 3)
    pairs = SERVING_QUERY_COUNTS[cell.scale]
    us = [rng.choice(nodes) for _ in range(pairs)]
    vs = [rng.choice(nodes) for _ in range(pairs)]
    if cell.engine == "packed":
        from repro.labeling.packed import PackedLabeling

        packed = PackedLabeling.from_labeling(labeling)
        distances = [float(d) for d in packed.query(us, vs)]
        backend = packed.stats()["backend"]
    else:
        distances = [
            float(decode_distance(labeling.label(u), labeling.label(v)))
            for u, v in zip(us, vs)
        ]
        backend = "scalar"
    return {
        "n": instance.num_nodes(),
        "m": instance.num_edges(),
        "engine_requested": cell.engine,
        "engine_selected": cell.engine,
        "backend": backend,
        "pairs": pairs,
        "label_entries": labeling.total_entries(),
        "output_digest": output_digest(distances),
    }


# --------------------------------------------------------------------------- #
# structural protocols (engine-independent; wrap the E1–E9 runners)
# --------------------------------------------------------------------------- #
def _table_record(cell: CellSpec, table) -> dict:
    rows = [dict(sorted(r.values.items())) for r in table]
    return {
        "engine_requested": STRUCTURAL_ENGINE,
        "engine_selected": STRUCTURAL_ENGINE,
        "rows": len(rows),
        "columns": list(table.columns),
        "output_digest": output_digest(rows),
    }


def _ktree_workload(cell: CellSpec, k: int = 3):
    from repro.analysis.workloads import workload

    n = family_size(cell.family, cell.scale)
    return workload(f"pkt({n},{k})", "partial_k_tree", seed=cell.seed, n=n, k=k)


STRUCTURAL = (STRUCTURAL_ENGINE,)


@register_protocol("separator", engines=STRUCTURAL, families=("ktree",))
def run_separator_cell(cell: CellSpec) -> dict:
    from repro.analysis.experiments import run_separator_experiment

    table = run_separator_experiment([_ktree_workload(cell)], seed=cell.seed)
    return _table_record(cell, table)


@register_protocol("tree_decomposition", engines=STRUCTURAL, families=("ktree",))
def run_tree_decomposition_cell(cell: CellSpec) -> dict:
    from repro.analysis.experiments import run_decomposition_experiment

    table = run_decomposition_experiment([_ktree_workload(cell)], seed=cell.seed)
    return _table_record(cell, table)


@register_protocol("labeling_build", engines=STRUCTURAL, families=("ktree",))
def run_labeling_build_cell(cell: CellSpec) -> dict:
    from repro.analysis.experiments import run_labeling_experiment

    table = run_labeling_experiment(
        [_ktree_workload(cell)], seed=cell.seed, check_pairs=50
    )
    return _table_record(cell, table)


@register_protocol("sssp_scaling", engines=STRUCTURAL, families=("ktree",))
def run_sssp_scaling_cell(cell: CellSpec) -> dict:
    from repro.analysis.experiments import run_sssp_scaling_experiment

    n = family_size(cell.family, cell.scale)
    table = run_sssp_scaling_experiment([max(16, n // 2), n], k=3, seed=cell.seed)
    return _table_record(cell, table)


@register_protocol("stateful_walks", engines=STRUCTURAL, families=("ktree",))
def run_stateful_walks_cell(cell: CellSpec) -> dict:
    from repro.analysis.experiments import run_stateful_walk_experiment

    n = family_size(cell.family, cell.scale)
    table = run_stateful_walk_experiment(
        n=n, k=3, palettes=(2, 3), seed=cell.seed
    )
    return _table_record(cell, table)


@register_protocol("matching", engines=STRUCTURAL, families=("bipartite",))
def run_matching_cell(cell: CellSpec) -> dict:
    from repro.analysis.experiments import run_matching_experiment
    from repro.analysis.workloads import workload

    n = family_size(cell.family, cell.scale)
    spec = workload(
        f"banded({n})", "banded_bipartite", seed=cell.seed, left=n, right=n, band=3
    )
    table = run_matching_experiment([spec], seed=cell.seed)
    return _table_record(cell, table)


@register_protocol("girth", engines=STRUCTURAL, families=("chords",))
def run_girth_cell(cell: CellSpec) -> dict:
    from repro.analysis.experiments import run_girth_experiment
    from repro.analysis.workloads import workload

    n = family_size(cell.family, cell.scale)
    directed = [
        workload(f"chords({n},5)", "cycle_chords", seed=cell.seed, n=n, chords=5)
    ]
    undirected = [
        workload(
            f"chords({max(12, n // 2)},3)",
            "cycle_chords",
            seed=cell.seed + 1,
            n=max(12, n // 2),
            chords=3,
        )
    ]
    table = run_girth_experiment(
        directed, undirected, seed=cell.seed, trials_per_scale=4
    )
    return _table_record(cell, table)


@register_protocol("partwise", engines=STRUCTURAL, families=("ktree",))
def run_partwise_cell(cell: CellSpec) -> dict:
    from repro.analysis.experiments import run_partwise_experiment

    n = family_size(cell.family, cell.scale)
    table = run_partwise_experiment([n], k=3, seed=cell.seed)
    return _table_record(cell, table)


@register_protocol("crossover", engines=STRUCTURAL, families=("ktree",))
def run_crossover_cell(cell: CellSpec) -> dict:
    from repro.analysis.experiments import run_crossover_experiment

    n = family_size(cell.family, cell.scale)
    table = run_crossover_experiment([max(16, n // 2), n], k=3, seed=cell.seed)
    return _table_record(cell, table)
