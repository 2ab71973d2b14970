"""E7 — weighted girth (Theorem 5): exactness (directed), upper-bound + whp exactness (undirected)."""

import math

import pytest

from repro.analysis.experiments import run_girth_experiment
from repro.analysis.workloads import workload
from repro.baselines.congest_bounds import diameter_lower_bound_rounds


@pytest.mark.bench
def test_e7_girth_directed_and_undirected(benchmark, report_sink):
    directed = [
        workload("chords(40,5)", "cycle_chords", seed=1, n=40, chords=5),
        workload("pkt(40,3)", "partial_k_tree", seed=2, n=40, k=3),
    ]
    undirected = [
        workload("chords(18,3)", "cycle_chords", seed=3, n=18, chords=3),
        workload("grid(4x5)", "grid", rows=4, cols=5),
    ]
    table = benchmark.pedantic(
        lambda: run_girth_experiment(directed, undirected, seed=1, trials_per_scale=6),
        rounds=1,
        iterations=1,
    )
    report_sink.append(table.to_text())
    for row in table:
        if row["mode"] == "directed":
            assert row["match"], f"{row['workload']}: directed girth mismatch"
        else:
            # Lemma 6: never an underestimate; whp exact (seeded run is exact here).
            assert row["girth"] >= row["exact_girth"] - 1e-9


@pytest.mark.bench
def test_e7_girth_vs_diameter_separation(benchmark, report_sink):
    """The paper's separation: girth is fully-polynomial, diameter needs Ω̃(n) rounds."""
    directed = [
        workload("chords(60,5)", "cycle_chords", seed=5, n=60, chords=5),
        workload("chords(120,5)", "cycle_chords", seed=6, n=120, chords=5),
    ]
    table = benchmark.pedantic(
        lambda: run_girth_experiment(directed, [], seed=2), rounds=1, iterations=1
    )
    report_sink.append(table.to_text())
    rows = list(table)
    for row in rows:
        assert row["match"]
    # Girth rounds grow mildly with n, while the diameter lower bound is Ω̃(n):
    # doubling n doubles the diameter bound but must not double our advantage away.
    small, large = rows[0], rows[1]
    our_growth = large["rounds"] / max(1, small["rounds"])
    diam_growth = diameter_lower_bound_rounds(120) / diameter_lower_bound_rounds(60)
    assert our_growth < 4 * diam_growth
