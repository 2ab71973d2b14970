"""Tests for the round-cost model and the ledger."""

import pytest

from repro.core.config import FrameworkConfig
from repro.core.rounds import CostModel, RoundLedger
from repro.graphs import generators


class TestCostModel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CostModel(n=0, diameter=3)
        with pytest.raises(ValueError):
            CostModel(n=5, diameter=-1)

    def test_pa_scales_linearly_in_width_and_diameter(self):
        cm = CostModel(n=1000, diameter=10)
        assert cm.partwise_aggregation(4) == 2 * cm.partwise_aggregation(2)
        cm2 = CostModel(n=1000, diameter=20)
        assert cm2.partwise_aggregation(2) == 2 * cm.partwise_aggregation(2)

    def test_bct_has_additive_h_term(self):
        cm = CostModel(n=256, diameter=8)
        base = cm.broadcast_multi(3, 1)
        bigger = cm.broadcast_multi(3, 100)
        assert bigger > base
        # For h large the cost grows linearly in h.
        assert cm.broadcast_multi(3, 200) - cm.broadcast_multi(3, 100) == pytest.approx(
            100 * 3 * cm.polylog * cm.constant, rel=0.01
        )

    def test_mvc_scales_in_t(self):
        cm = CostModel(n=256, diameter=8)
        assert cm.min_vertex_cut_multi(3, 10, 4) > cm.min_vertex_cut_multi(3, 10, 2)

    def test_log_factor_exponent_zero_removes_polylog(self):
        cm = CostModel(n=10_000, diameter=5, log_factor_exponent=0)
        assert cm.polylog == 1.0
        assert cm.partwise_aggregation(2) == 10

    def test_snc_is_one_round(self):
        assert CostModel(n=10, diameter=3).snc() == 1

    def test_zero_diameter_still_positive(self):
        cm = CostModel(n=1, diameter=0)
        assert cm.partwise_aggregation(1) >= 1

    def test_constant_scales_everything(self):
        a = CostModel(n=100, diameter=5, constant=1.0)
        b = CostModel(n=100, diameter=5, constant=2.0)
        assert b.partwise_aggregation(3) == 2 * a.partwise_aggregation(3)

    def test_subgraph_operation_is_one_pa_plus_one_snc(self):
        cm = CostModel(n=256, diameter=8)
        for width in (1, 2, 5):
            assert cm.subgraph_operation(width) == cm.partwise_aggregation(width) + cm.snc()

    @pytest.mark.parametrize(
        "width, diameter, h, t",
        [(1, 1, 1, 1), (3, 7, 10, 4), (6, 12, 200, 7)],
    )
    def test_closed_forms_without_polylog(self, width, diameter, h, t):
        # Lemma 9, Corollary 3 and Corollary 2 with the Õ factors set to 1.
        cm = CostModel(n=4096, diameter=diameter, log_factor_exponent=0)
        assert cm.partwise_aggregation(width) == width * diameter
        assert cm.broadcast_multi(width, h) == width * diameter + h * width
        assert cm.min_vertex_cut_multi(width, h, t) == (
            t * width * diameter + h * t * width
        )

    def test_mvc_with_unit_cut_size_is_bct(self):
        cm = CostModel(n=256, diameter=8)
        for width, h in [(1, 1), (3, 10), (5, 64)]:
            assert cm.min_vertex_cut_multi(width, h, 1) == cm.broadcast_multi(width, h)

    def test_arguments_below_one_are_clamped(self):
        cm = CostModel(n=256, diameter=8)
        assert cm.partwise_aggregation(0) == cm.partwise_aggregation(1)
        assert cm.broadcast_multi(0, 0) == cm.broadcast_multi(1, 1)
        assert cm.min_vertex_cut_multi(0, 0, 0) == cm.min_vertex_cut_multi(1, 1, 1)

    @pytest.mark.parametrize(
        "n, exponent, polylog",
        [(1, 1, 1.0), (1000, 1, 10.0), (1024, 2, 100.0), (1025, 1, 11.0)],
    )
    def test_polylog_is_a_power_of_ceil_log2_n(self, n, exponent, polylog):
        cm = CostModel(n=n, diameter=3, log_factor_exponent=exponent)
        assert cm.polylog == polylog
        assert cm.partwise_aggregation(1) == 3 * polylog

    def test_fractional_constant_rounds_up_to_whole_rounds(self):
        cm = CostModel(n=2, diameter=1, log_factor_exponent=0, constant=0.3)
        assert cm.partwise_aggregation(1) == 1  # ceil(0.3)
        assert cm.partwise_aggregation(5) == 2  # ceil(1.5)

    def test_for_graph_reads_diameter_and_config(self):
        config = FrameworkConfig(cost_log_exponent=0, cost_constant=2.0)
        cm = CostModel.for_graph(generators.path_graph(10), config)
        assert (cm.n, cm.diameter) == (10, 9)
        assert (cm.log_factor_exponent, cm.constant) == (0, 2.0)
        assert cm.partwise_aggregation(2) == 2 * 2 * 9


class TestRoundLedger:
    def test_charge_and_total(self):
        ledger = RoundLedger()
        ledger.charge("a", 5)
        ledger.charge("b", 7)
        ledger.charge("a", 3)
        assert ledger.total() == 15
        assert ledger["a"] == 8
        assert ledger["missing"] == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().charge("x", -1)

    def test_phase_scoping(self):
        ledger = RoundLedger()
        with ledger.phase("outer"):
            ledger.charge("inner", 2)
            with ledger.phase("nested"):
                ledger.charge("deep", 3)
        assert ledger["outer/inner"] == 2
        assert ledger["outer/nested/deep"] == 3

    def test_breakdown_by_depth(self):
        ledger = RoundLedger()
        ledger.charge("a/x", 1)
        ledger.charge("a/y", 2)
        ledger.charge("b/z", 4)
        assert ledger.breakdown(1) == {"a": 3, "b": 4}
        assert ledger.breakdown() == {"a/x": 1, "a/y": 2, "b/z": 4}

    def test_merge_with_prefix(self):
        a = RoundLedger()
        a.charge("x", 1)
        b = RoundLedger()
        b.charge("y", 2)
        a.merge(b, prefix="sub")
        assert a["sub/y"] == 2
        assert a.total() == 3

    def test_as_table_renders(self):
        ledger = RoundLedger()
        assert "no rounds" in ledger.as_table()
        ledger.charge("phase/a", 10)
        text = ledger.as_table()
        assert "TOTAL" in text and "10" in text
