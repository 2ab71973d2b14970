"""E1 — balanced separators (Lemma 1): size ≤ 400(τ+1)², balance, round scaling."""

import pytest

from repro.analysis.experiments import run_separator_experiment
from repro.analysis.workloads import sweep_k, sweep_n


@pytest.mark.bench
def test_e1_separator_size_and_balance(benchmark, report_sink):
    workloads = sweep_k(fixed_n=200, ks=[2, 3, 4, 5], seed=1)

    table = benchmark.pedantic(
        lambda: run_separator_experiment(workloads, seed=1), rounds=1, iterations=1
    )
    report_sink.append(table.to_text())

    for row in table:
        assert row["valid"], f"{row['workload']} produced an unbalanced separator"
        assert row["sep_size"] <= row["size_bound"]
    # Shape: separator size grows with τ but stays far below n.
    sizes = table.column("sep_size")
    assert max(sizes) < 200


@pytest.mark.bench
def test_e1_separator_rounds_scale_with_diameter(benchmark, report_sink):
    workloads = sweep_n(fixed_k=3, ns=[100, 200, 400], seed=2)
    table = benchmark.pedantic(
        lambda: run_separator_experiment(workloads, seed=2), rounds=1, iterations=1
    )
    report_sink.append(table.to_text())
    rows = list(table)
    # Rounds grow with n only through the diameter term (Õ(τ²D + τ³)).
    assert rows[-1]["rounds"] <= 25 * max(1, rows[0]["rounds"])
