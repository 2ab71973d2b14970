"""E4 — SSSP round scaling at fixed treewidth vs the general-graph baselines.

The paper's headline framing: exact directed SSSP in Õ(τ²D + τ⁵) rounds, i.e.
polylogarithmic dependence on n for fixed τ and D, versus Ω̃(√n + D) for
general graphs and Θ(hop-depth) for distributed Bellman-Ford.

The Bellman-Ford baseline runs on the fast indexed simulation engine
(:mod:`repro.congest.engine`).  ``--bench-scale tiny`` shrinks the size sweep
to a CI smoke run (shape assertions that need large n are skipped there);
``--seed`` controls the instance generator.
"""

import pytest

from repro.analysis.complexity import fit_power_law
from repro.analysis.experiments import run_sssp_scaling_experiment

SIZES = {"full": [60, 120, 240, 480], "tiny": [24, 36]}


@pytest.mark.bench
def test_e4_sssp_scaling_against_baselines(benchmark, report_sink, bench_scale, master_seed):
    ns = SIZES[bench_scale]
    table = benchmark.pedantic(
        lambda: run_sssp_scaling_experiment(ns, k=3, seed=master_seed),
        rounds=1,
        iterations=1,
    )
    report_sink.append(table.to_text())

    rows = list(table)
    if bench_scale == "tiny":
        # Smoke run: the experiment must produce a full, finite table.
        assert len(rows) == len(ns)
        assert all(row["sssp_rounds"] > 0 for row in rows)
        return

    # Shape check 1: the framework's rounds grow much more slowly than n.
    fit = fit_power_law(table.column("n"), table.column("sssp_rounds"))
    assert fit.exponent < 0.9, f"framework rounds scale like n^{fit.exponent:.2f}"

    # Shape check 2: the Bellman-Ford baseline tracks the hop depth, which in
    # these sparse low-treewidth graphs keeps growing with n.
    assert rows[-1]["bellman_ford_rounds"] >= rows[0]["bellman_ford_rounds"]

    # Shape check 3: who wins — on the largest instance the framework should
    # not be worse than the general-graph exact-SSSP curve by more than a
    # polylog-ish factor, and the crossover trend must favour the framework.
    last = rows[-1]
    first = rows[0]
    ratio_last = last["sssp_rounds"] / max(1, last["general_exact_sssp"])
    ratio_first = first["sssp_rounds"] / max(1, first["general_exact_sssp"])
    assert ratio_last <= ratio_first * 1.5
