"""Distance-query serving shoot-out: scalar point serving vs packed batching.

The serving stack exists so the paper's payoff — ``dist(u, v)`` answered
from two labels — survives sustained traffic.  This bench measures the
three ways a corpus can be served and records them as the
``BENCH_serving.json`` trajectory (path overridable via the
``BENCH_SERVING_JSON`` environment variable):

* ``scalar_point`` — the pre-packing baseline: a server decoding each
  point query with dict-form ``decode_distance``
  (``QueryServer(decode="scalar")``), one request frame per query.
* ``packed_point`` — the same point traffic against the packed server,
  which answers each point with one ``PackedLabeling.distance`` merge.
* ``packed_batched`` — client-side batches (one frame, one
  ``label_query_batch`` kernel call per request) against the packed
  server.

Load is generated open-loop: client *processes* schedule arrivals at a
fixed rate and measure each request's latency from its **scheduled**
arrival time (not the send time), so a saturated server shows up as
latency growth instead of silently throttling the generator
(coordination-omission-corrected, after the PROBE ``http_load_test``
exemplar).  Each tier records achieved QPS and p50/p95/p99 latency.

Assertions: the packed batched path must beat the scalar point path by
≥10× QPS at ``--bench-scale full`` (the tentpole claim: batching kills
the per-request overhead that dominates scalar serving), and every
packed-server worker must report its label arrays memory-mapped with
zero copied label bytes (the multi-process zero-copy contract).  The
in-process kernel microbench records raw decode throughput — scalar
``decode_distance`` vs the batched kernel on the same pairs, each the
median of five interleaved runs — without a wall-clock assertion: the
O(|smaller label|) scalar decoder and the kernel are close per pair on
this corpus, and the batched win comes from serving-side amortization.

The short smoke case runs unmarked (both the numpy and no-numpy CI jobs
exercise it); the full load sweep is marked ``serving`` and deselected
by default.
"""

import os
import random
import statistics
import time

import pytest

from repro.congest.kernels import vectorized_available
from repro.experiments.trajectory import merge_trajectory_record
from repro.labeling.construction import build_distance_labeling
from repro.labeling.labels import decode_distance
from repro.labeling.packed import PackedLabeling
from repro.serving import LabelStore, QueryClient, ServerPool
from repro.serving.server import _mp_context

BENCH_JSON = os.environ.get("BENCH_SERVING_JSON", "BENCH_serving.json")

#: Corpus graph size (partial 3-tree, the workhorse family).
SIZES = {"full": 240, "tiny": 24}
#: Pairs per in-process kernel measurement.
KERNEL_PAIRS = {"full": 50_000, "tiny": 1_000}
#: Interleaved (scalar, packed) timing pairs per kernel measurement.
KERNEL_REPEATS = 5
#: Open-loop load shape per tier: client processes × per-client arrival
#: rate (req/s) × seconds, plus the client-side batch size for the
#: batched tier.
LOAD = {
    "full": {
        "clients": 3, "rate": 8000.0, "duration": 2.0,
        "batch_pairs": 20_000, "batch_rate": 12.0, "batch_duration": 2.0,
    },
    "tiny": {
        "clients": 2, "rate": 200.0, "duration": 0.5,
        "batch_pairs": 200, "batch_rate": 10.0, "batch_duration": 0.5,
    },
}


def _corpus_graph(n: int, seed: int):
    from repro.graphs.generators import partial_k_tree, to_directed_instance

    g = partial_k_tree(n, 3, 0.6, seed=seed)
    return to_directed_instance(
        g, weight_range=(1, 9), orientation="asymmetric", seed=seed
    )


def _seeded_pairs(vertices, count: int, seed: int):
    rng = random.Random(seed)
    return [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(count)
    ]


def _percentiles(latencies) -> dict:
    ordered = sorted(latencies)

    def pct(p: float) -> float:
        return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]

    return {
        "p50_ms": round(pct(50.0) * 1000.0, 3),
        "p95_ms": round(pct(95.0) * 1000.0, 3),
        "p99_ms": round(pct(99.0) * 1000.0, 3),
    }


# --------------------------------------------------------------------------- #
# Open-loop client processes
# --------------------------------------------------------------------------- #
def _open_loop_client(address, graph, pairs, rate, duration, batch, out_queue):
    """Send requests at a fixed arrival rate; latencies are measured from
    each request's *scheduled* arrival, so server backlog is charged to
    the request, not hidden by a stalled generator."""
    latencies = []
    served = 0
    with QueryClient(address, timeout=60.0) as client:
        client.ping()  # connection + first-tick cost off the measured path
        interval = 1.0 / rate
        start = time.perf_counter()
        i = 0
        while True:
            scheduled = start + i * interval
            if scheduled - start >= duration:
                break
            now = time.perf_counter()
            if now < scheduled:
                time.sleep(scheduled - now)
            if batch is None:
                u, v = pairs[i % len(pairs)]
                client.point(graph, u, v)
                served += 1
            else:
                chunk = [
                    pairs[(i * batch + j) % len(pairs)] for j in range(batch)
                ]
                client.query(
                    graph, [u for u, _ in chunk], [v for _, v in chunk]
                )
                served += batch
            latencies.append(time.perf_counter() - scheduled)
            i += 1
        elapsed = time.perf_counter() - start
    out_queue.put((latencies, served, elapsed))


def _run_load(addresses, graph, pairs, clients, rate, duration, batch=None):
    """Fan `clients` open-loop processes across the worker addresses."""
    ctx = _mp_context()
    out_queue = ctx.Queue()
    procs = []
    for c in range(clients):
        procs.append(
            ctx.Process(
                target=_open_loop_client,
                args=(
                    addresses[c % len(addresses)], graph,
                    pairs[c::clients] or pairs, rate, duration, batch,
                    out_queue,
                ),
                daemon=True,
            )
        )
    for p in procs:
        p.start()
    results = [out_queue.get(timeout=120.0) for _ in procs]
    for p in procs:
        p.join(timeout=30.0)
    latencies = [lat for lats, _served, _el in results for lat in lats]
    served = sum(s for _lats, s, _el in results)
    elapsed = max(el for _lats, _s, el in results)
    tier = {"qps": round(served / elapsed, 1), "requests": len(latencies)}
    tier.update(_percentiles(latencies))
    return tier


# --------------------------------------------------------------------------- #
# Cases
# --------------------------------------------------------------------------- #
def test_kernel_microbench(bench_scale, master_seed, tmp_path):
    """In-process decode throughput: scalar dict decode vs packed batch."""
    n = SIZES[bench_scale]
    instance = _corpus_graph(n, master_seed + n)
    labeling = build_distance_labeling(instance).labeling
    packed = PackedLabeling.from_labeling(labeling)
    pairs = _seeded_pairs(
        list(packed.vertices()), KERNEL_PAIRS[bench_scale], master_seed
    )
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]

    # Interleaved (scalar, packed) runs, each tier recorded as its median
    # run, so a fast or slow spell of the host lands on both tiers.
    scalar_runs, packed_runs = [], []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        expected = [
            decode_distance(labeling.label(u), labeling.label(v))
            for u, v in pairs
        ]
        scalar_runs.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        got = packed.query(us, vs)
        packed_runs.append(time.perf_counter() - t0)
        assert list(got) == expected

    scalar_s = statistics.median(scalar_runs)
    packed_s = statistics.median(packed_runs)
    tiers = {
        "scalar_decode": {
            "seconds": round(scalar_s, 6),
            "qps": round(len(pairs) / scalar_s, 1),
        },
        "packed_batched": {
            "seconds": round(packed_s, 6),
            "qps": round(len(pairs) / packed_s, 1),
            "backend": "numpy" if vectorized_available() else "pure",
        },
    }
    merge_trajectory_record(
        BENCH_JSON, "kernel_micro", bench_scale, tiers,
        {"n": n, "pairs": len(pairs), "label_entries": packed.total_entries},
    )


def _build_store(tmp_path, bench_scale, master_seed):
    n = SIZES[bench_scale]
    name = f"ktree{n}"
    instance = _corpus_graph(n, master_seed + n)
    store_dir = tmp_path / "store"
    store = LabelStore.build({name: instance}, store_dir)
    return store_dir, store, name


def test_serving_smoke(bench_scale, master_seed, tmp_path):
    """Two workers over one mapped store: correct answers, zero label copies.

    This is the CI smoke case — it must pass on the no-numpy job too
    (pure-python packed fallback; the zero-copy assertion is numpy-only
    because the pure backend has no mmap to share).
    """
    store_dir, store, name = _build_store(tmp_path, bench_scale, master_seed)
    packed = store.get(name)
    pairs = _seeded_pairs(list(packed.vertices()), 50, master_seed + 1)
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    expected = [packed.distance(u, v) for u, v in pairs]

    with ServerPool(store_dir, num_workers=2) as pool:
        assert len(pool.addresses) == 2
        for address in pool.addresses:
            with QueryClient(address) as client:
                assert client.query(name, us, vs) == expected
                assert client.point(name, us[0], vs[0]) == expected[0]
                stats = client.server_stats()
                store_stats = stats["store"]
                if vectorized_available():
                    # The zero-copy contract: every worker serves the same
                    # mapped pages; no label bytes were copied to its heap.
                    assert store_stats["copied_label_bytes"] == 0
                    assert store_stats["mapped_bytes"] > 0
                assert stats["counters"]["dropped_clients"] == 0
    merge_trajectory_record(
        BENCH_JSON, "serving_smoke", bench_scale,
        {
            "packed_point": {
                "workers": 2,
                "mapped_bytes": store_stats["mapped_bytes"],
                "copied_label_bytes": store_stats["copied_label_bytes"],
                "rss_kb": stats["rss_kb"],
            }
        },
        {"n": SIZES[bench_scale], "graph": name},
    )


@pytest.mark.serving
def test_serving_load_sweep(bench_scale, master_seed, tmp_path):
    """The full open-loop sweep: scalar point vs packed point vs batched."""
    store_dir, store, name = _build_store(tmp_path, bench_scale, master_seed)
    packed = store.get(name)
    load = LOAD[bench_scale]
    pairs = _seeded_pairs(
        list(packed.vertices()), max(load["batch_pairs"], 10_000),
        master_seed + 2,
    )

    tiers = {}
    with ServerPool(store_dir, num_workers=2, decode="scalar") as pool:
        tiers["scalar_point"] = _run_load(
            pool.addresses, name, pairs,
            load["clients"], load["rate"], load["duration"],
        )
    with ServerPool(store_dir, num_workers=2) as pool:
        tiers["packed_point"] = _run_load(
            pool.addresses, name, pairs,
            load["clients"], load["rate"], load["duration"],
        )
        tiers["packed_batched"] = _run_load(
            pool.addresses, name, pairs,
            load["clients"], load["batch_rate"], load["batch_duration"],
            batch=load["batch_pairs"],
        )
        workers = []
        for address in pool.addresses:
            with QueryClient(address) as client:
                stats = client.server_stats()
            workers.append(
                {
                    "rss_kb": stats["rss_kb"],
                    "mapped_bytes": stats["store"]["mapped_bytes"],
                    "copied_label_bytes": stats["store"]["copied_label_bytes"],
                    "max_batch": stats["counters"]["max_batch"],
                    "batch_calls": stats["counters"]["batch_calls"],
                    "point_queries": stats["counters"]["point_queries"],
                }
            )
            if vectorized_available():
                assert stats["store"]["copied_label_bytes"] == 0
                assert stats["store"]["mapped_bytes"] > 0

    speedup = tiers["packed_batched"]["qps"] / tiers["scalar_point"]["qps"]
    merge_trajectory_record(
        BENCH_JSON, "serving_load", bench_scale, tiers,
        {
            "n": SIZES[bench_scale],
            "graph": name,
            "workers": workers,
            "speedup_batched_vs_scalar_point": round(speedup, 1),
        },
    )
    if bench_scale == "full":
        # The tentpole claim: batching beats scalar point serving ≥10×.
        assert speedup >= 10.0, (
            f"packed batched path only {speedup:.1f}x over scalar point "
            f"serving ({tiers['packed_batched']['qps']} vs "
            f"{tiers['scalar_point']['qps']} QPS)"
        )
