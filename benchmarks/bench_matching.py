"""E6 — exact bipartite maximum matching (Theorem 4): exactness and scaling vs Õ(s_max)."""

import pytest

from repro.analysis.experiments import run_matching_experiment
from repro.analysis.workloads import bipartite_workloads, workload


@pytest.mark.bench
def test_e6_matching_exact_on_bipartite_families(benchmark, report_sink):
    workloads = bipartite_workloads("small")
    table = benchmark.pedantic(
        lambda: run_matching_experiment(workloads, seed=1), rounds=1, iterations=1
    )
    report_sink.append(table.to_text())
    for row in table:
        assert row["exact"], f"{row['workload']} did not reach the optimum"
        assert row["matching_size"] == row["optimal"]


@pytest.mark.bench
def test_e6_matching_scaling_vs_smax_baseline(benchmark, report_sink):
    workloads = [
        workload("grid(4x10)", "grid", rows=4, cols=10),
        workload("grid(4x20)", "grid", rows=4, cols=20),
        workload("grid(4x40)", "grid", rows=4, cols=40),
    ]
    table = benchmark.pedantic(
        lambda: run_matching_experiment(workloads, seed=2), rounds=1, iterations=1
    )
    report_sink.append(table.to_text())
    rows = list(table)
    assert all(row["exact"] for row in rows)
    # The Õ(s_max) baseline grows linearly with the matching size; the
    # framework's charged rounds must grow more slowly than s_max does
    # (its dependence on n is only through D and log n at fixed width).
    smax_growth = rows[-1]["optimal"] / rows[0]["optimal"]
    round_growth = rows[-1]["rounds"] / max(1, rows[0]["rounds"])
    assert round_growth < 2 * smax_growth
