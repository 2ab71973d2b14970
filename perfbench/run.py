#!/usr/bin/env python3
"""Run one benchmark workload and report its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ktree_pipeline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Workloads: ``ktree_pipeline``, ``grid_walks``, ``congest_sssp`` (see
:mod:`solve`) and ``serve_mixed`` (see :mod:`serve`).  The seed generates the
inputs.  The timed section repeats for ``--seconds``.  After every untraced
solve (on ``serve_mixed``: every closed-loop pass and every store build), a
slice of a fixed reference task runs; on the solve workloads a slice of
repeated set-ups follows, so that set-up samples span the run too.  ``solve_s`` and
``setup_s`` are medians in reference seconds (see :mod:`hostspeed`), which
cancel the spells in which other tenants slow the whole host; the report
also prints the raw times.  Every output is checked against an oracle; a
mismatch, exception, error reply or timeout is a failed operation.

The report lists every metric by name and unit.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, or with ``--trace 1``
the per-layer metrics of a traced run, whose spans are also written to
``.perfbench/spans-<workload>-<seed>.jsonl``.  The traced run spends half its
time untraced, to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from metrics import END_TO_END, PER_LAYER, WORKLOADS, write_manifest  # noqa: E402

_clock = time.perf_counter
SETUP_REPEATS = 5
SERVE_SETUP_REPEATS = 3
#: After each untraced solve, set-up repeats (untimed by ``solve_s``) for at
#: least this long, so that the set-up samples span the whole run and their
#: median does not hang on whether one short stretch of it was slowed.
SETUP_SLICE_S = 0.05
#: Reference-task time after each untraced solve or set-up (see :mod:`hostspeed`).
REFERENCE_SLICE_S = 0.05
MIN_SOLVES = 3
OUT_DIR = os.path.join(ROOT, ".perfbench")


# --------------------------------------------------------------------------- #
# Process memory
# --------------------------------------------------------------------------- #
def reset_peak_rss(pid="self") -> None:
    """Start a new peak-RSS window of a process (no-op where refused)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb(pid="self") -> float:
    """Peak resident memory of a process since its last reset, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        return int(re.search(r"VmHWM:\s+(\d+)", fh.read()).group(1)) / 1024.0


# --------------------------------------------------------------------------- #
# Solve workloads
# --------------------------------------------------------------------------- #
def run_solve(workload, seed: int, seconds: float, traced: bool, checks, report):
    from hostspeed import HostSpeed, reference_seconds
    from layers import install, layer_metrics, median_metrics
    from spans import Tracer

    speed = HostSpeed()
    setup, setup_pairs, solve_pairs = [], [], []

    def set_up():
        t0 = _clock()
        made = workload.make_input(seed)
        setup.append(_clock() - t0)
        return made

    for _ in range(SETUP_REPEATS):
        inp = set_up()
    t0 = _clock()
    orc = workload.oracle(inp)
    verify_s = _clock() - t0
    misses = []

    def solve_once(tracer, span_tracer):
        nonlocal verify_s
        tracer.clear_captured()
        first = span_tracer.mark() if span_tracer else 0
        root = span_tracer.open("bench.solve", "bench") if span_tracer else None
        t0 = _clock()
        try:
            res = workload.solve(inp)
        except Exception as exc:  # a failed solve is a counted failure
            checks.error("solve", exc)
            return None
        finally:
            elapsed = _clock() - t0
            if root is not None:
                span_tracer.close(root)
        t0 = _clock()
        try:
            misses.append(workload.check(res, inp, orc, checks))
        except Exception as exc:
            checks.error("check", exc)
        verify_s += _clock() - t0
        counts = workload.counts(res, tracer.captured)
        layer = None
        if span_tracer:
            layer = layer_metrics(span_tracer, first, root.duration)
            for span in span_tracer.spans[first:]:
                span.result = None
        return elapsed, counts, layer

    def loop(tracer, span_tracer, budget):
        rows, attempts = [], 0
        deadline = _clock() + budget
        while attempts < MIN_SOLVES or _clock() < deadline:
            attempts += 1
            out = solve_once(tracer, span_tracer)
            if out is not None:
                rows.append(out)
            if span_tracer is None:
                gc.collect()  # so the solve's garbage is not collected in the slices
                ref = speed.slice(REFERENCE_SLICE_S)
                if out is not None:
                    solve_pairs.append((out[0], ref))
                start = len(setup)
                slice_end = _clock() + SETUP_SLICE_S
                set_up()
                while _clock() < slice_end:
                    set_up()
                setup_pairs.append((statistics.median(setup[start:]), ref))
                gc.collect()
        return rows

    plain = Tracer(spans=False, capture=workload.capture)
    install(plain)
    try:
        solve_once(plain, None)  # warm-up: lazy imports and first-call costs
        gc.collect()
        reset_peak_rss()
        rows = loop(plain, None, seconds / 2 if traced else seconds)
        rss = peak_rss_mb()
    finally:
        plain.uninstall()
    traced_rows = []
    if traced:
        tracer = Tracer(spans=True, capture=workload.capture)
        install(tracer)
        try:
            traced_rows = loop(tracer, tracer, seconds / 2)
        finally:
            tracer.uninstall()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{workload.name}-{seed}.jsonl"))

    e2e = {"setup_s": reference_seconds(setup_pairs)}
    if rows:
        e2e["solve_s"] = reference_seconds(solve_pairs)
        e2e.update(rows[-1][1])
    e2e["peak_rss_mb"] = rss
    report.append(f"setup {len(setup)}x, raw median {statistics.median(setup):.6f} s")
    report.append(f"untraced solves {len(rows)}: " + " ".join(f"{r[0]:.3f}" for r in rows))
    untraced = statistics.median(r[0] for r in rows) if rows else math.nan
    report.append(f"untraced solve raw median {untraced:.6f} s")
    report.append(speed.describe())
    layer = {}
    if traced_rows:
        layer = median_metrics([r[2] for r in traced_rows])
        traced_solve = statistics.median(r[0] for r in traced_rows)
        layer["bench.trace_overhead"] = traced_solve / untraced
        report.append(f"traced solves {len(traced_rows)}: "
                      + " ".join(f"{r[0]:.3f}" for r in traced_rows))
    layer["girth.miss"] = statistics.median(misses) if misses else 0
    layer["bench.verify_s"] = verify_s
    return e2e, layer


# --------------------------------------------------------------------------- #
# Serving workload
# --------------------------------------------------------------------------- #
def run_serve(seed: int, seconds: float, traced: bool, checks, report):
    import serve
    from hostspeed import HostSpeed, reference_seconds
    from layers import install, layer_metrics
    from repro.serving import LabelStore, QueryClient
    from spans import Tracer

    workdir = os.path.join(OUT_DIR, f"serve-{os.getpid()}")
    pool = None
    layer = {}
    speed = HostSpeed()
    try:
        setup, setup_pairs, builds = [], [], []
        for rep in range(SERVE_SETUP_REPEATS):
            if pool is not None:
                pool.close()
                shutil.rmtree(store_dir, ignore_errors=True)
            tracer = None
            if traced and rep == SERVE_SETUP_REPEATS - 1:
                tracer = Tracer(spans=True)
                install(tracer)
            t0 = _clock()
            try:
                root = tracer.open("bench.setup", "bench") if tracer else None
                pool, store_dir, arcs, counts, timing = serve.build_server(
                    seed, workdir, f"store{rep}"
                )
            finally:
                if tracer:
                    tracer.close(root)
                    tracer.uninstall()
            elapsed = _clock() - t0
            if tracer:
                layer = layer_metrics(tracer, 0, root.duration)
                layer["bench.trace_overhead"] = elapsed / statistics.median(setup)
                os.makedirs(OUT_DIR, exist_ok=True)
                tracer.dump(os.path.join(OUT_DIR, f"spans-serve_mixed-{seed}.jsonl"))
            else:
                setup.append(elapsed)
                setup_pairs.append((elapsed, speed.slice(REFERENCE_SLICE_S)))
                builds.append(timing)

        t0 = _clock()
        store = LabelStore(store_dir)
        serve.check_corpus(store, arcs, seed, checks)
        traffic = serve.Traffic(seed, store)
        verify_s = _clock() - t0
        address = pool.addresses[0]
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            # Generator and server each on a CPU of its own: left to migrate,
            # they sometimes shared one and closed-loop times swung by a fifth.
            os.sched_setaffinity(0, {cpus[0]})
            os.sched_setaffinity(pool.processes[0].pid, {cpus[1]})
        reset_peak_rss(pool.processes[0].pid)
        conns = [serve._Conn(address) for _ in range(2)]
        try:
            # Warm-up: first frames on each connection, first kernel calls.
            serve.drive(conns, traffic.requests(200), None, checks)
            closed, closed_pairs = [], []
            deadline = _clock() + 0.5 * seconds
            while len(closed) < MIN_SOLVES or _clock() < deadline:
                reqs = traffic.requests(serve.CLOSED_REQUESTS)
                closed.append(serve.drive(conns, reqs, None, checks).wall_s)
                gc.collect()
                ref = speed.slice(REFERENCE_SLICE_S)
                if len(cpus) >= 2:
                    # The server's CPU sets the pace as much as this one, and
                    # the two are not always slowed together: time both.
                    os.sched_setaffinity(0, {cpus[1]})
                    ref = (ref + speed.slice(REFERENCE_SLICE_S)) / 2
                    os.sched_setaffinity(0, {cpus[0]})
                closed_pairs.append((closed[-1], ref))
            rates = serve.kernel_rates(store, traffic)
            nominal = serve.open_loop(conns, traffic, serve.NOMINAL_POINT_RATE,
                                      0.3 * seconds, checks)
            steps, misses, best = [], 0, 0.0
            for rate in serve.LADDER:
                step = serve.open_loop(conns, traffic, rate, 0.02 * seconds + 0.1, checks)
                steps.append(step)
                if step["valid"] and step["meets"]:
                    best, misses = rate, 0
                else:
                    misses += 1
                    if misses == 2:
                        break
            with QueryClient(address) as client:
                stats = client.server_stats()
            server_peak_mb = peak_rss_mb(stats["pid"])
        finally:
            for c in conns:
                c.close()
    finally:
        if pool is not None:
            pool.close()
        shutil.rmtree(workdir, ignore_errors=True)

    counters = stats["counters"]
    e2e = {
        "setup_s": reference_seconds(setup_pairs),
        "solve_s": reference_seconds(closed_pairs),
        "rounds": counts["rounds"],
        "label_entries_max": counts["label_entries_max"],
        "peak_rss_mb": server_peak_mb,
    }
    layer.update({
        "serving.store_build_s": statistics.median(b["store_build_s"] for b in builds),
        "serving.start_s": statistics.median(b["start_s"] for b in builds),
        "serving.requests": counters["requests"],
        "serving.point_queries": counters["point_queries"],
        "serving.batch_calls": counters["batch_calls"],
        "serving.max_batch": counters["max_batch"],
        "serving.coalesce_ratio": counters["point_queries"] / max(1, counters["batch_calls"]),
        "serving.ticks": counters["ticks"],
        "serving.dropped_clients": counters["dropped_clients"],
        "serving.rss_kb": stats["rss_kb"],
        "serving.copied_label_bytes": stats["store"]["copied_label_bytes"],
        "serving.achieved_qps": serve.CLOSED_REQUESTS / statistics.median(closed),
        "serving.gen_lag_p99_ms": nominal["gen_lag_p99_ms"],
        "serving.kernel_pairs_per_s": rates["kernel"],
        "serving.scalar_pairs_per_s": rates["scalar"],
        "serving.point_p50_ms": nominal["point_p50_ms"],
        "serving.point_p99_ms": nominal["point_p99_ms"],
        "serving.batch_p99_ms": nominal["batch_p99_ms"],
        "serving.max_qps_p99": best,
        "bench.verify_s": verify_s,
    })
    report.append(f"setup {len(setup)}x untraced: " + " ".join(f"{x:.3f}" for x in setup))
    report.append(f"closed-loop solves of {serve.CLOSED_REQUESTS} requests: "
                  + " ".join(f"{w:.3f}" for w in closed))
    report.append(f"closed-loop raw median {statistics.median(closed):.6f} s")
    report.append(speed.describe())
    report.append(f"nominal point rate {serve.NOMINAL_POINT_RATE:.0f}/s: "
                  f"{nominal['points']} point and {nominal['batches']} batch samples, "
                  f"backlog {nominal['backlog']}, failed {nominal['failed']}")
    report.append("ladder (point req/s, point p99 ms, batch p99 ms, gen lag p99 ms, "
                  "backlog, valid, meets 5 ms):")
    for s in steps:
        report.append(f"  {s['rate']:>6.0f} {s['point_p99_ms']:8.3f} {s['batch_p99_ms']:8.3f} "
                      f"{s['gen_lag_p99_ms']:8.3f} {s['backlog']:5d} {s['valid']!s:5} "
                      f"{s['meets']}")
    return e2e, layer


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the metric definitions and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        print(write_manifest(ROOT))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import repro  # noqa: F401  (fails outside a full checkout, before any output)
    from oracle import Checks

    checks, report = Checks(), []
    traced = bool(args.trace)
    if args.workload == "serve_mixed":
        e2e, layer = run_serve(args.seed, args.seconds, traced, checks, report)
    else:
        from solve import SOLVE_WORKLOADS

        e2e, layer = run_solve(SOLVE_WORKLOADS[args.workload], args.seed,
                               args.seconds, traced, checks, report)

    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    names = [n for n, *_ in (PER_LAYER if traced else END_TO_END)]
    values = {n: (layer if traced else e2e).get(n, 0) for n in names}
    # A percentile with no samples (every request failed) is NaN, which JSON lacks.
    values = {n: v if math.isfinite(v) else -1.0 for n, v in values.items()}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for line in report:
        print(line)
    for n, v in sorted({**e2e, **layer}.items()):
        print(f"  {n:34s} {v:>16.6g} {units.get(n, '')}")
    print(f"  {'fail_rate':34s} {checks.failed / max(1, checks.attempted):>16.6g} fraction "
          f"({checks.failed} of {checks.attempted} operations)")
    for msg in checks.messages:
        print(f"  FAILED: {msg}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
