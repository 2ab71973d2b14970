"""E5 — constrained distance labeling overhead (Theorem 3) as |Q| grows."""

import pytest

from repro.analysis.experiments import run_stateful_walk_experiment


@pytest.mark.bench
def test_e5_cdl_overhead_grows_with_state_count(benchmark, report_sink):
    table = benchmark.pedantic(
        lambda: run_stateful_walk_experiment(n=36, k=3, palettes=(2, 3, 4), seed=1),
        rounds=1,
        iterations=1,
    )
    report_sink.append(table.to_text())

    colored = [row for row in table if str(row["constraint"]).startswith("colored")]
    assert len(colored) == 3
    # Rounds increase monotonically with the palette size (product graph grows).
    rounds = [row["rounds"] for row in colored]
    assert rounds[0] <= rounds[1] <= rounds[2]
    # The built product graph, G_C − ⊥, has exactly (|Q| − 1)·n nodes.
    for row in table:
        assert row["product_nodes"] == (row["states"] - 1) * 36
    # Every CDL construction is more expensive than the unconstrained labeling.
    assert all(row["rounds"] >= row["base_rounds"] for row in table)
