"""Names, units and bounds of every metric; the source of ``BENCHMARK.json``.

End-to-end metrics are what a user of the reproduction sees and are measured
with tracing off.  Per-layer metrics come from the traced run
(``--trace 1``); a layer that a workload does not exercise reports 0.
"""

from __future__ import annotations

import json
import os

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("rounds", "count", "lower", 0.1),
    ("label_entries_max", "count", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_S, _N = "s", "count"
#: (name, unit, better)
PER_LAYER = (
    ("graphs.subgraph_calls", _N, "lower"),
    ("graphs.subgraph_s", _S, "lower"),
    ("graphs.diameter_calls", _N, "lower"),
    ("graphs.diameter_s", _S, "lower"),
    ("decomposition.build_calls", _N, "lower"),
    ("decomposition.build_s", _S, "lower"),
    ("decomposition.separator_calls", _N, "lower"),
    ("decomposition.separator_find_s", _S, "lower"),
    ("decomposition.width", _N, "lower"),
    ("decomposition.depth", _N, "lower"),
    ("decomposition.rounds", _N, "lower"),
    ("labeling.build_calls", _N, "lower"),
    ("labeling.build_s", _S, "lower"),
    ("labeling.dijkstra_calls", _N, "lower"),
    ("labeling.entries_max", _N, "lower"),
    ("labeling.entries_total", _N, "lower"),
    ("labeling.rounds_measured", _N, "lower"),
    ("labeling.rounds_modelled", _N, "lower"),
    ("labeling.sssp_s", _S, "lower"),
    ("labeling.pack_s", _S, "lower"),
    ("labeling.packed_bytes", "bytes", "lower"),
    ("walks.cdl_calls", _N, "lower"),
    ("walks.cdl_s", _S, "lower"),
    ("walks.product_s", _S, "lower"),
    ("walks.lift_s", _S, "lower"),
    ("walks.product_nodes", _N, "lower"),
    ("walks.product_entries_max", _N, "lower"),
    ("matching.solve_s", _S, "lower"),
    ("matching.rounds", _N, "lower"),
    ("matching.augment_calls", _N, "lower"),
    ("matching.augment_s", _S, "lower"),
    ("matching.augmentations", _N, "higher"),
    ("matching.augment_yield", "ratio", "higher"),
    ("matching.separator_vertices", _N, "lower"),
    ("girth.compute_s", _S, "lower"),
    ("girth.trials", _N, "lower"),
    ("girth.rounds", _N, "lower"),
    ("girth.miss", _N, "lower"),
    ("congest.run_calls", _N, "lower"),
    ("congest.run_s", _S, "lower"),
    ("congest.bf_fast_s", _S, "lower"),
    ("congest.bf_vectorized_s", _S, "lower"),
    ("congest.bf_async_s", _S, "lower"),
    ("congest.bfs_s", _S, "lower"),
    ("congest.flood_s", _S, "lower"),
    ("congest.broadcast_s", _S, "lower"),
    ("congest.rounds", _N, "lower"),
    ("congest.messages", _N, "lower"),
    ("congest.words", _N, "lower"),
    ("congest.msgs_per_s", "1/s", "higher"),
    ("congest.async_events_per_s", "1/s", "higher"),
    ("serving.store_build_s", _S, "lower"),
    ("serving.start_s", _S, "lower"),
    ("serving.requests", _N, "higher"),
    ("serving.point_queries", _N, "higher"),
    ("serving.batch_calls", _N, "lower"),
    ("serving.max_batch", _N, "higher"),
    ("serving.coalesce_ratio", "ratio", "higher"),
    ("serving.ticks", _N, "lower"),
    ("serving.dropped_clients", _N, "lower"),
    ("serving.rss_kb", "KiB", "lower"),
    ("serving.copied_label_bytes", "bytes", "lower"),
    ("serving.achieved_qps", "req/s", "higher"),
    ("serving.gen_lag_p99_ms", "ms", "lower"),
    ("serving.kernel_pairs_per_s", "1/s", "higher"),
    ("serving.scalar_pairs_per_s", "1/s", "higher"),
    ("serving.point_p50_ms", "ms", "lower"),
    ("serving.point_p99_ms", "ms", "lower"),
    ("serving.batch_p99_ms", "ms", "lower"),
    ("serving.max_qps_p99", "req/s", "higher"),
    ("api.self_s", _S, "lower"),
    ("graphs.self_s", _S, "lower"),
    ("decomposition.self_s", _S, "lower"),
    ("labeling.self_s", _S, "lower"),
    ("walks.self_s", _S, "lower"),
    ("matching.self_s", _S, "lower"),
    ("girth.self_s", _S, "lower"),
    ("congest.self_s", _S, "lower"),
    ("serving.self_s", _S, "lower"),
    ("bench.self_coverage", "ratio", "higher"),
    ("bench.verify_s", _S, "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

#: (name, why) — why each workload is in the benchmark.
WORKLOADS = (
    ("ktree_pipeline",
     "Large n and small treewidth, so the whole solver pipeline "
     "(decomposition, labeling, SSSP, girth, packing) scales with n."),
    ("grid_walks",
     "Small n but product-graph bags |Q| times wider, so stateful-walk labeling "
     "(girth CDL) and matching's augmenting searches dominate."),
    ("congest_sssp",
     "A long narrow grid (large D), the only workload where the CONGEST engine "
     "does most of the work."),
    ("serve_mixed",
     "Serving and the packed kernel dominate and nothing is built while timing; "
     "point and batch traffic take different server paths."),
)

RUN_SECONDS = 25


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_manifest(root: str) -> str:
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
    return path
