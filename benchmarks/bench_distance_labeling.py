"""E3 — exact directed distance labeling (Theorem 2): exactness, label size, rounds."""

import pytest

from repro.analysis.experiments import run_labeling_experiment
from repro.analysis.workloads import sweep_k, sweep_n
from repro.analysis.complexity import growth_ratio


@pytest.mark.bench
def test_e3_labeling_exactness_and_size(benchmark, report_sink):
    workloads = sweep_k(fixed_n=120, ks=[2, 3, 4], seed=1)
    table = benchmark.pedantic(
        lambda: run_labeling_experiment(workloads, seed=1, check_pairs=150),
        rounds=1,
        iterations=1,
    )
    report_sink.append(table.to_text())
    for row in table:
        assert row["errors"] == 0, f"{row['workload']} decoded a wrong distance"
        # Label entries are Õ(τ²): far below n.
        assert row["max_label"] < row["n"]


@pytest.mark.bench
def test_e3_label_size_polylog_in_n(benchmark, report_sink):
    workloads = sweep_n(fixed_k=3, ns=[80, 160, 320], seed=2)
    table = benchmark.pedantic(
        lambda: run_labeling_experiment(workloads, seed=2, check_pairs=80),
        rounds=1,
        iterations=1,
    )
    report_sink.append(table.to_text())
    ns = table.column("n")
    labels = table.column("max_label")
    # Quadrupling n must grow the label size far slower than n (Õ(τ² log n)).
    assert growth_ratio(ns, labels) < 0.75
    assert all(row["errors"] == 0 for row in table)
