"""E2 — distributed tree decomposition (Theorem 1): width, depth and round scaling."""

import math

import pytest

from repro.analysis.experiments import run_decomposition_experiment
from repro.analysis.workloads import standard_workloads, sweep_k


@pytest.mark.bench
def test_e2_width_and_depth_bounds(benchmark, report_sink):
    workloads = standard_workloads("small")
    table = benchmark.pedantic(
        lambda: run_decomposition_experiment(workloads, seed=1), rounds=1, iterations=1
    )
    report_sink.append(table.to_text())
    for row in table:
        assert row["valid"]
        assert row["width"] <= row["width_bound"]
        assert row["depth"] <= row["depth_bound"]


@pytest.mark.bench
def test_e2_width_grows_with_treewidth_not_n(benchmark, report_sink):
    workloads = sweep_k(fixed_n=250, ks=[2, 4, 6], seed=3)
    table = benchmark.pedantic(
        lambda: run_decomposition_experiment(workloads, seed=3), rounds=1, iterations=1
    )
    report_sink.append(table.to_text())
    widths = table.column("width")
    ns = table.column("n")
    # Width is a function of τ (and log n), far below n.
    assert all(w < n / 2 for w, n in zip(widths, ns))
    # Larger τ should not produce smaller decompositions than τ=2 by a wide margin.
    assert widths[-1] >= widths[0]
