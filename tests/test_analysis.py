"""Tests for the analysis layer: result tables, workloads, scaling fits, baselines."""

import math

import pytest

from repro.analysis.complexity import fit_power_law, growth_ratio
from repro.analysis.records import ResultTable
from repro.analysis.workloads import (
    bipartite_workloads,
    standard_workloads,
    sweep_k,
    sweep_n,
    workload,
)
from repro.baselines.congest_bounds import (
    diameter_lower_bound_rounds,
    general_graph_exact_sssp_rounds,
    general_graph_sssp_rounds,
    girth_baseline_rounds,
    matching_baseline_rounds,
)


class TestResultTable:
    def test_add_and_render(self):
        table = ResultTable("demo", ["a", "b"])
        table.add(a=1, b=2.5)
        table.add(a=3, b=math.inf, c="x")
        assert len(table) == 2
        assert "c" in table.columns
        text = table.to_text()
        assert "demo" in text and "inf" in text
        assert text.splitlines()[1].split() == ["a", "b", "c"]

    def test_column_and_summary(self):
        table = ResultTable("t", ["x"])
        for v in (1, 2, 3):
            table.add(x=v)
        assert table.column("x") == [1, 2, 3]
        stats = table.summary("x")
        assert stats == {"min": 1.0, "max": 3.0, "mean": 2.0}

    def test_summary_of_empty_column_is_nan(self):
        table = ResultTable("t", ["x"])
        assert math.isnan(table.summary("x")["mean"])


class TestComplexityFits:
    def test_power_law_recovers_exponent(self):
        xs = [10, 20, 40, 80]
        ys = [3 * x ** 2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert abs(fit.exponent - 2.0) < 1e-6
        assert abs(fit.coefficient - 3.0) < 1e-6
        assert fit.r_squared > 0.999

    def test_linear_data_has_exponent_one(self):
        xs = [5, 10, 20, 40, 80]
        fit = fit_power_law(xs, [7 * x for x in xs])
        assert fit.exponent == pytest.approx(1.0)
        assert fit.coefficient == pytest.approx(7.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_insufficient_data_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([2, 2], [1, 1])

    def test_growth_ratio_detects_sublinear_growth(self):
        xs = [100, 200, 400, 800]
        ys = [10, 11, 12, 13]  # barely growing
        assert growth_ratio(xs, ys) < 0.5


class TestWorkloads:
    def test_standard_workloads_materialise(self):
        specs = standard_workloads("small")
        assert len(specs) >= 5
        for spec in specs[:3]:
            g = spec.build_graph()
            assert g.is_connected()
            desc = spec.describe()
            assert desc["n"] == g.num_nodes()

    def test_unknown_scale_and_family_rejected(self):
        with pytest.raises(ValueError):
            standard_workloads("gigantic")
        with pytest.raises(ValueError):
            workload("w", "nonsense", n=5).build_graph()

    def test_sweeps(self):
        assert [s.params["n"] for s in sweep_n(3, [10, 20])] == [10, 20]
        assert [s.params["k"] for s in sweep_k(30, [2, 4])] == [2, 4]

    def test_bipartite_workloads_are_bipartite(self):
        for spec in bipartite_workloads("small"):
            assert spec.build_graph().is_bipartite()

    def test_build_instance_orientations(self):
        spec = workload("w", "partial_k_tree", n=20, k=2)
        inst = spec.build_instance(orientation="both")
        assert inst.num_edges() == 2 * spec.build_graph().num_edges()


class TestBaselineCurves:
    def test_monotonicity_in_n(self):
        assert general_graph_sssp_rounds(10_000, 10) > general_graph_sssp_rounds(100, 10)
        assert general_graph_exact_sssp_rounds(10_000, 10) > general_graph_exact_sssp_rounds(100, 10)
        assert diameter_lower_bound_rounds(10_000) > diameter_lower_bound_rounds(100)

    def test_matching_baseline_grows_with_matching_size(self):
        assert matching_baseline_rounds(100) > matching_baseline_rounds(10)

    def test_girth_baseline_handles_infinite_girth(self):
        assert girth_baseline_rounds(100, math.inf) == 100
        assert girth_baseline_rounds(100, 3) > 0

    def test_girth_baseline_capped_at_n_log_n(self):
        for n in (10, 100, 10_000):
            for girth in (3, 5, 12, 100):
                assert girth_baseline_rounds(n, girth) <= n * math.log2(n)
