"""Engine shoot-out across the four execution tiers.

Measures the same protocol executions on the :meth:`CongestNetwork.run`
tiers and checks that

* the results (rounds, outputs, words, per-edge bandwidth) are identical,
* the fast worklist tier beats the legacy loop (deep-path Bellman-Ford is
  the legacy loop's worst case: per-round O(n) inbox rebuild vs O(active)),
* the vectorized kernel tier beats the fast tier on *dense* rounds (the
  dense-graph Bellman-Ford case: ≥ 5× at full scale, and never slower even
  at the tiny CI smoke scale),
* the vectorized ``FloodingKernel`` beats the fast tier on long pipelined
  chunk floods (the grid-corner case, the round shape of the labeling's
  measured BCT broadcasts: ≥ 5× at full scale, never slower at tiny scale),
* the async tier's bucketed calendar queue (the default) beats the
  reference heap queue's events/sec on both round shapes — ≥ 2× on the
  deep path, where per-event heap churn dominates — measured on the *same*
  instances as the synchronous cases so the tiers line up per ``n``.

Every case appends a trajectory record (per-tier wall seconds, messages per
second) to ``BENCH_engine.json`` (path overridable via the
``BENCH_ENGINE_JSON`` environment variable) so the speedups are tracked
across PRs.  Wall-clock *assertions* are gated to ``--bench-scale full``
except the dense and chunk-flood cases' "vectorized not slower than fast"
smoke assertions and the async case's bucketed-vs-heap floors, which CI runs
at tiny scale.
"""

import os
import platform
import random
import statistics
import time

import pytest

from repro.congest.bellman_ford import (
    BellmanFordKernel,
    BellmanFordNode,
    distributed_bellman_ford,
)
from repro.congest.network import CongestNetwork
from repro.congest.primitives import broadcast, build_bfs_tree, flood_chunks
from repro.experiments.trajectory import merge_trajectory_record
from repro.graphs import generators


def _peak_rss_kb() -> dict:
    """Monotone peak-RSS high-water marks (parent and reaped children), KiB.

    ``ru_maxrss`` never decreases, so per-tier snapshots record the running
    peak *after* each tier, not an isolated per-tier footprint.
    """
    import sys

    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix
        return {}
    scale = 1024 if sys.platform == "darwin" else 1  # macOS reports bytes
    return {
        "parent": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) // scale,
        "children": int(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) // scale,
    }

SIZES = {"full": 2000, "tiny": 120}
DENSE_SIZES = {"full": 400, "tiny": 60}
#: Chunk-flood grids as (rows, cols, chunks): D + C rounds of pipelined
#: waves, with C well above D so the per-round cost in C dominates.
FLOOD_SIZES = {"full": (10, 30, 1500), "tiny": (4, 20, 120)}
#: Interleaved heap/bucketed run pairs for the async scheduler shoot-out.
ASYNC_REPS = 5

BENCH_JSON = os.environ.get("BENCH_ENGINE_JSON", "BENCH_engine.json")


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _host() -> dict:
    """The machine a record was measured on: wall seconds depend on it."""
    try:
        import numpy
    except ImportError:
        numpy_version = None
    else:
        numpy_version = numpy.__version__
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _record_bench(case: str, scale: str, tiers: dict, extra: dict = None) -> None:
    """Merge one case's per-tier timings into the BENCH_engine.json record."""
    extra = dict(extra or {}, host=_host())
    merge_trajectory_record(BENCH_JSON, case, scale, tiers, extra)


def _tier(seconds: float, messages: int) -> dict:
    return {
        "seconds": round(seconds, 6),
        "messages": messages,
        "msgs_per_sec": round(messages / max(seconds, 1e-9), 1),
    }


@pytest.mark.bench
def test_engine_speedup_bellman_ford_deep_path(benchmark, report_sink, bench_scale, master_seed):
    """Deep-path SSSP: hop-depth Θ(n) rounds, the legacy loop's worst case.

    Sparse rounds (≈ 1 active node) are also the vectorized tier's worst
    case — its per-round array overhead is recorded here as the crossover
    datapoint against the dense case below.
    """
    n = SIZES[bench_scale]
    graph = generators.path_graph(n)
    instance = generators.to_directed_instance(
        graph, weight_range=(1, 10), orientation="both", seed=master_seed
    )
    source = 0

    fast, t_fast = _timed(
        lambda: benchmark.pedantic(
            lambda: distributed_bellman_ford(instance, source, engine="fast"),
            rounds=1,
            iterations=1,
        )
    )
    legacy, t_legacy = _timed(
        lambda: distributed_bellman_ford(instance, source, engine="legacy")
    )
    vec, t_vec = _timed(
        lambda: distributed_bellman_ford(instance, source, engine="vectorized")
    )

    assert fast.rounds == legacy.rounds == vec.rounds
    assert fast.distances == legacy.distances == vec.distances
    assert fast.simulation.words_sent == legacy.simulation.words_sent == vec.simulation.words_sent
    assert (
        fast.simulation.max_words_per_edge_round
        == legacy.simulation.max_words_per_edge_round
        == vec.simulation.max_words_per_edge_round
    )

    msgs = fast.simulation.messages_sent
    speedup = t_legacy / max(t_fast, 1e-9)
    _record_bench(
        "bellman_ford_deep_path",
        bench_scale,
        {
            "fast": _tier(t_fast, msgs),
            "legacy": _tier(t_legacy, msgs),
            "vectorized": _tier(t_vec, msgs),
        },
        extra={"n": n, "rounds": fast.rounds},
    )
    report_sink.append(
        f"== engine shoot-out: Bellman-Ford on path n={n} ==\n"
        f"fast       {t_fast * 1000:8.1f} ms\n"
        f"legacy     {t_legacy * 1000:8.1f} ms\n"
        f"vectorized {t_vec * 1000:8.1f} ms\n"
        f"speedup {speedup:.1f}x ({fast.rounds} rounds, "
        f"{fast.simulation.messages_sent} messages)"
    )
    if bench_scale == "full":
        assert speedup >= 2.0, f"fast engine only {speedup:.2f}x faster than legacy"


@pytest.mark.bench
def test_engine_speedup_bellman_ford_dense_vectorized(report_sink, bench_scale, master_seed):
    """Dense-graph SSSP: few rounds, Θ(n²) messages per improvement wave —
    the round shape the vectorized kernel tier exists for.

    Times :meth:`CongestNetwork.run` itself (instance and CSR construction
    are identical one-time costs for every tier) and asserts the vectorized
    tier is ≥ 5× faster than fast at full scale and not slower even at the
    tiny CI smoke scale.
    """
    n = DENSE_SIZES[bench_scale]
    graph = generators.complete_graph(n)
    instance = generators.to_directed_instance(
        graph, weight_range=(1, 10), orientation="asymmetric", seed=master_seed
    )
    source = 0
    network = CongestNetwork(instance.underlying_graph())
    local_inputs = {
        u: [(e.head, e.weight) for e in instance.out_edges(u)] for u in instance.nodes()
    }
    limit = 4 * n + 16

    def run(engine):
        kernel = (
            BellmanFordKernel(source, local_inputs) if engine == "vectorized" else None
        )
        return network.run(
            lambda u: BellmanFordNode(u, source),
            max_rounds=limit,
            local_inputs=local_inputs,
            engine=engine,
            kernel=kernel,
        )

    # Warm one-time caches (numpy import, CSR arrays) outside the timings.
    network.indexed.to_arrays()
    run("vectorized")

    vec, t_vec = _timed(lambda: run("vectorized"))
    fast, t_fast = _timed(lambda: run("fast"))

    assert vec.engine == "vectorized"
    assert fast.rounds == vec.rounds
    assert fast.outputs == vec.outputs
    assert fast.messages_sent == vec.messages_sent
    assert fast.words_sent == vec.words_sent
    assert fast.max_words_per_edge_round == vec.max_words_per_edge_round

    msgs = fast.messages_sent
    speedup = t_fast / max(t_vec, 1e-9)
    _record_bench(
        "bellman_ford_dense",
        bench_scale,
        {"fast": _tier(t_fast, msgs), "vectorized": _tier(t_vec, msgs)},
        extra={
            "n": n,
            "rounds": fast.rounds,
            "speedup_vectorized_vs_fast": round(speedup, 2),
            "peak_rss_kb": _peak_rss_kb(),
        },
    )
    report_sink.append(
        f"== engine shoot-out: Bellman-Ford on K_{n} (dense rounds) ==\n"
        f"fast       {t_fast * 1000:8.1f} ms\n"
        f"vectorized {t_vec * 1000:8.1f} ms\n"
        f"speedup {speedup:.1f}x ({fast.rounds} rounds, {msgs} messages)"
    )
    assert speedup >= 1.0, (
        f"vectorized tier slower than fast on dense rounds ({speedup:.2f}x)"
    )
    if bench_scale == "full":
        assert speedup >= 5.0, (
            f"vectorized tier only {speedup:.2f}x faster than fast at full scale"
        )


@pytest.mark.bench
def test_engine_speedup_chunk_flood_grid(report_sink, bench_scale, master_seed):
    """Pipelined chunk flood from a grid corner: one wave per chunk over
    D + C rounds, the round shape of the labeling's measured BCT broadcasts.

    Times ``flood_chunks`` on both tiers and asserts identical results, the
    vectorized tier ≥ 5× faster than fast at full scale and not slower even
    at the tiny CI smoke scale.
    """
    rows, cols, num_chunks = FLOOD_SIZES[bench_scale]
    rng = random.Random(master_seed)
    chunks = [("chunk", k, rng.randint(0, 99)) for k in range(num_chunks)]
    network = CongestNetwork(generators.grid_graph(rows, cols), words_per_message=8)
    root = (0, 0)

    def run(engine):
        return flood_chunks(network, root, chunks, engine=engine)

    # Warm one-time caches (numpy import, CSR arrays) outside the timings.
    network.indexed.to_arrays()
    flood_chunks(network, root, chunks[:4], engine="vectorized")

    (vec_received, vec), t_vec = _timed(lambda: run("vectorized"))
    (fast_received, fast), t_fast = _timed(lambda: run("fast"))

    assert vec.engine == "vectorized"
    assert fast.halted and vec.halted
    assert vec_received == fast_received
    assert fast.rounds == vec.rounds
    assert fast.messages_sent == vec.messages_sent
    assert fast.words_sent == vec.words_sent
    assert fast.max_words_per_edge_round == vec.max_words_per_edge_round

    msgs = fast.messages_sent
    speedup = t_fast / max(t_vec, 1e-9)
    _record_bench(
        "chunk_flood_grid",
        bench_scale,
        {"fast": _tier(t_fast, msgs), "vectorized": _tier(t_vec, msgs)},
        extra={
            "rows": rows,
            "cols": cols,
            "chunks": num_chunks,
            "rounds": fast.rounds,
            "speedup_vectorized_vs_fast": round(speedup, 2),
            "peak_rss_kb": _peak_rss_kb(),
        },
    )
    report_sink.append(
        f"== engine shoot-out: {num_chunks}-chunk flood on a {rows}x{cols} grid ==\n"
        f"fast       {t_fast * 1000:8.1f} ms\n"
        f"vectorized {t_vec * 1000:8.1f} ms\n"
        f"speedup {speedup:.1f}x ({fast.rounds} rounds, {msgs} messages)"
    )
    assert speedup >= 1.0, (
        f"vectorized tier slower than fast on the chunk flood ({speedup:.2f}x)"
    )
    if bench_scale == "full":
        assert speedup >= 5.0, (
            f"vectorized tier only {speedup:.2f}x faster than fast at full scale"
        )


@pytest.mark.bench
def test_engine_async_unit_delay(report_sink, bench_scale, master_seed):
    """Unit-delay async vs fast, bucketed calendar queue vs reference heap.

    Runs the *same* deep-path and dense instances as the synchronous
    shoot-outs above (``SIZES``/``DENSE_SIZES``), so the async tier's cost
    is directly comparable to the fast/legacy/vectorized timings of the
    neighbouring records.  The async tier is a *semantics/timing* tier, not
    a throughput tier: it pays one event per arc per pulse for the
    synchronizer's envelopes, so no speedup over ``fast`` is asserted.
    What is asserted, at every scale:

    * bit-for-bit equality with ``fast`` under the unit-delay model
      (results and ledger) for both event queues, and identical
      ``events_processed`` between the queues;
    * ``virtual_time == rounds``;
    * the bucketed calendar queue's events/sec beats the reference heap on
      both round shapes (the smoke bar CI runs at tiny scale), and by ≥ 2×
      on the deep-path case — the sparse-pulse shape whose per-event heap
      churn the calendar queue exists to eliminate (the dense case is
      bounded by shared protocol work per event, so only the ≥ 1× bar
      applies there).

    The queues run as ``ASYNC_REPS`` interleaved pairs, alternating which
    queue goes first, and ``bucketed_vs_heap`` is the median of the
    per-pair events/sec ratios (events/sec from ``async_stats``, the
    in-loop measurement).  The host's speed changes in spells: both runs
    of a pair share one, while a best-of-N block per queue, run back to
    back, can catch a fast spell the other block misses.  Each queue's
    record keeps its median events/sec and median seconds.
    """
    from repro.congest.scheduler import UnitDelay

    tiers = {}
    extra = {
        "events": {},
        "events_per_sec": {},
        "bucketed_vs_heap": {},
        "n": {},
        "rounds": {},
    }
    lines = ["== engine shoot-out: unit-delay async Bellman-Ford =="]
    cases = {
        "deep_path": generators.path_graph(SIZES[bench_scale]),
        "dense": generators.complete_graph(DENSE_SIZES[bench_scale]),
    }
    for case, graph in cases.items():
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 10),
            orientation="both" if case == "deep_path" else "asymmetric",
            seed=master_seed,
        )
        fast, t_fast = _timed(
            lambda: distributed_bellman_ford(instance, 0, engine="fast")
        )
        msgs = fast.simulation.messages_sent
        tiers[f"fast_{case}"] = _tier(t_fast, msgs)
        extra["n"][case] = graph.num_nodes()
        extra["rounds"][case] = fast.rounds
        runs = {"heap": [], "bucketed": []}
        for rep in range(ASYNC_REPS):
            order = ("heap", "bucketed") if rep % 2 == 0 else ("bucketed", "heap")
            for scheduler in order:
                asy, t_async = _timed(
                    lambda: distributed_bellman_ford(
                        instance, 0, engine="async", delay_model=UnitDelay(),
                        scheduler=scheduler,
                    )
                )
                sim = asy.simulation
                assert sim.engine == "async"
                assert asy.rounds == fast.rounds
                assert asy.distances == fast.distances
                assert asy.parents == fast.parents
                assert sim.messages_sent == fast.simulation.messages_sent
                assert sim.words_sent == fast.simulation.words_sent
                assert (
                    sim.max_words_per_edge_round
                    == fast.simulation.max_words_per_edge_round
                )
                assert sim.virtual_time == asy.rounds
                events = sim.async_stats["events_processed"]
                # Both queues process the same schedule: same event count.
                assert extra["events"].setdefault(case, events) == events
                runs[scheduler].append(
                    (sim.async_stats["events_per_sec"], t_async)
                )
        for scheduler, reps in runs.items():
            eps = statistics.median(e for e, _ in reps)
            t_async = statistics.median(t for _, t in reps)
            tiers[f"async_{case}_{scheduler}"] = _tier(t_async, msgs)
            extra["events_per_sec"][f"{case}_{scheduler}"] = round(eps, 1)
            lines.append(
                f"{case:10s} async/{scheduler:8s} {t_async * 1000:8.1f} ms "
                f"({events} events, {eps:,.0f} events/s, {fast.rounds} rounds)"
            )
        ratio = statistics.median(
            b / max(h, 1e-9)
            for (h, _), (b, _) in zip(runs["heap"], runs["bucketed"])
        )
        extra["bucketed_vs_heap"][case] = round(ratio, 2)
        lines.append(
            f"{case:10s} fast {t_fast * 1000:8.1f} ms | "
            f"bucketed/heap {ratio:.2f}x"
        )
        # The calendar queue must never lose to the reference heap (CI
        # smoke bar, tiny scale included).
        assert ratio >= 1.0, (
            f"bucketed scheduler slower than heap on {case} ({ratio:.2f}x)"
        )
    assert extra["bucketed_vs_heap"]["deep_path"] >= 2.0, (
        "bucketed scheduler below the 2x deep-path bar vs heap "
        f"({extra['bucketed_vs_heap']['deep_path']:.2f}x)"
    )
    _record_bench("bellman_ford_async", bench_scale, tiers, extra=extra)
    report_sink.append("\n".join(lines))


@pytest.mark.bench
def test_engine_speedup_bfs_broadcast_grid(benchmark, report_sink, bench_scale, master_seed):
    """BFS tree + flooding broadcast on a grid (short, wide simulations)."""
    side = 40 if bench_scale == "full" else 10
    graph = generators.grid_graph(side, side)
    network = CongestNetwork(graph)
    root = (0, 0)

    def run_pair(engine):
        _, _, bfs = build_bfs_tree(network, root, engine=engine)
        _, bc = broadcast(network, root, 42, engine=engine)
        return bfs, bc

    (fast_bfs, fast_bc), t_fast = _timed(
        lambda: benchmark.pedantic(lambda: run_pair("fast"), rounds=1, iterations=1)
    )
    (legacy_bfs, legacy_bc), t_legacy = _timed(lambda: run_pair("legacy"))

    assert fast_bfs.rounds == legacy_bfs.rounds
    assert fast_bfs.outputs == legacy_bfs.outputs
    assert fast_bc.rounds == legacy_bc.rounds
    assert fast_bc.words_sent == legacy_bc.words_sent

    msgs = fast_bfs.messages_sent + fast_bc.messages_sent
    speedup = t_legacy / max(t_fast, 1e-9)
    _record_bench(
        "bfs_broadcast_grid",
        bench_scale,
        {"fast": _tier(t_fast, msgs), "legacy": _tier(t_legacy, msgs)},
        extra={"side": side},
    )
    report_sink.append(
        f"== engine shoot-out: BFS+broadcast on {side}x{side} grid ==\n"
        f"fast   {t_fast * 1000:8.1f} ms\n"
        f"legacy {t_legacy * 1000:8.1f} ms\n"
        f"speedup {speedup:.1f}x"
    )
    if bench_scale == "full":
        assert speedup >= 1.2, f"fast engine only {speedup:.2f}x faster than legacy"
