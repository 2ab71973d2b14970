"""E9 — crossover: fully-polynomial (τ, D, log n) rounds vs general-graph Ω̃(√n·D^¼ + D)."""

import pytest

from repro.analysis.experiments import run_crossover_experiment


@pytest.mark.bench
def test_e9_crossover_advantage_improves_with_n(benchmark, report_sink):
    ns = [80, 160, 320, 640]
    table = benchmark.pedantic(
        lambda: run_crossover_experiment(ns, k=3, seed=1), rounds=1, iterations=1
    )
    report_sink.append(table.to_text())
    rows = list(table)
    advantages = [row["advantage"] for row in rows]
    # The relative advantage of the fully-polynomial algorithm must not shrink
    # as n grows (the general bound grows like √n·D^¼ while ours grows like D).
    assert advantages[-1] >= 0.5 * advantages[0]
    # And the trend over the sweep is non-collapsing: the largest instance
    # should show at least as good a ratio as the median.
    assert advantages[-1] >= 0.5 * sorted(advantages)[len(advantages) // 2]
