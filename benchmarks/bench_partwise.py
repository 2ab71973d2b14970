"""E8 — primitive costs: measured BFS/broadcast rounds vs the Lemma 9 / Corollary 2-3 model."""

import pytest

from repro.analysis.experiments import run_partwise_experiment


@pytest.mark.bench
def test_e8_primitive_costs_track_diameter(benchmark, report_sink):
    table = benchmark.pedantic(
        lambda: run_partwise_experiment([50, 100, 200], k=3, seed=1), rounds=1, iterations=1
    )
    report_sink.append(table.to_text())
    for row in table:
        # Measured flooding primitives finish within a couple of rounds of D.
        assert row["bfs_rounds_measured"] <= row["D"] + 2
        assert row["broadcast_rounds_measured"] <= row["D"] + 2
        # The PA cost model upper-bounds the measured single-broadcast rounds
        # (it charges Õ(τD)) and grows with the width.
        assert row["pa_rounds_model"] >= row["broadcast_rounds_measured"]
        assert row["mvc16_rounds_model"] >= row["bct16_rounds_model"]
