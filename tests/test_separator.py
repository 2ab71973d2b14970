"""Tests for the Sep balanced-separator algorithm (Lemma 1)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SeparatorParams
from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.separator import (
    BalancedSeparator,
    find_balanced_separator,
    is_mu_balanced,
)
from repro.decomposition.validation import is_balanced_separator, separator_quality
from repro.errors import GraphError, SeparatorFailure
from repro.graphs import generators, properties
from repro.graphs.treewidth import treewidth_upper_bound


class TestBalanceChecks:
    def test_empty_separator_of_clique_is_balanced_only_trivially(self):
        g = generators.complete_graph(6)
        assert not is_mu_balanced(g, set(), None, 0.75)
        assert is_mu_balanced(g, set(range(6)), None, 0.75)

    def test_path_middle_vertex_is_balanced(self):
        g = generators.path_graph(9)
        assert is_mu_balanced(g, {4}, None, 0.5)
        assert not is_mu_balanced(g, {1}, None, 0.5)

    def test_focus_weights(self):
        g = generators.path_graph(10)
        focus = {0, 1, 2, 3}
        # Separating at 5 leaves all focus on one side: not balanced for alpha=0.6.
        assert not is_mu_balanced(g, {5}, focus, 0.6)
        assert is_mu_balanced(g, {2}, focus, 0.6)


class TestSepAlgorithm:
    def test_balanced_and_size_bounded_on_partial_k_trees(self):
        for seed in range(4):
            g = generators.partial_k_tree(120, 3, seed=seed)
            result = find_balanced_separator(g, seed=seed)
            tau = treewidth_upper_bound(g)
            assert is_balanced_separator(
                g, result.separator, SeparatorParams.practical().balance_fraction
            )
            assert result.size() <= 400 * (tau + 1) ** 2
            assert result.balance <= SeparatorParams.practical().balance_fraction + 1e-9

    def test_grid_separator(self):
        g = generators.grid_graph(8, 8)
        result = find_balanced_separator(g, seed=1)
        assert is_balanced_separator(g, result.separator, 0.75)
        quality = separator_quality(g, result.separator)
        assert quality["balance"] <= 0.75
        assert quality["size"] == result.size()

    def test_small_graph_uses_trivial_exit(self):
        g = generators.cycle_graph(10)
        result = find_balanced_separator(g, seed=0)
        assert result.method == "trivial"
        assert result.separator == set(g.nodes())

    def test_focus_set_restricts_balance_target(self):
        g = generators.partial_k_tree(100, 2, seed=5)
        focus = set(list(g.nodes())[:40])
        result = find_balanced_separator(g, focus=focus, seed=2)
        assert is_balanced_separator(g, result.separator, 0.75 + 1e-9, focus=focus)

    def test_rounds_charged_with_cost_model(self):
        g = generators.partial_k_tree(150, 3, seed=7)
        cm = CostModel(n=g.num_nodes(), diameter=properties.diameter(g))
        with_cm = find_balanced_separator(g, seed=3, cost_model=cm)
        without_cm = find_balanced_separator(g, seed=3)
        assert with_cm.rounds > 0
        assert without_cm.rounds == 0
        assert with_cm.separator == without_cm.separator  # same randomness, same output

    def test_disconnected_graph_rejected(self):
        from repro.graphs.graph import Graph

        g = Graph(edges=[(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            find_balanced_separator(g)

    def test_empty_graph_gives_empty_separator(self):
        from repro.graphs.graph import Graph

        sep = BalancedSeparator()
        result = sep.find(Graph())
        assert result.separator == set()

    def test_paper_params_fall_back_to_trivial_on_small_instances(self):
        g = generators.partial_k_tree(150, 3, seed=1)
        result = find_balanced_separator(g, params=SeparatorParams.paper(), seed=1)
        # With the paper's constants, 150 <= 200·t² already at t=2.
        assert result.method == "trivial"
        assert is_balanced_separator(
            g, result.separator, SeparatorParams.paper().balance_fraction
        )

    def test_known_width_skips_doubling(self):
        g = generators.partial_k_tree(200, 3, seed=2)
        result = find_balanced_separator(g, seed=2, known_width=4)
        assert result.width_guess >= 4
        assert is_balanced_separator(g, result.separator, 0.75 + 1e-9)


class TestRoundCharges:
    """Every charge in the ledger of ``Sep`` is a CostModel closed form.

    The polylog factor is switched off, so each charge can be recomputed
    exactly from the width guess t and the diameter.
    """

    def test_trivial_exit_charges_one_pa(self):
        g = generators.cycle_graph(10)
        cm = CostModel(n=10, diameter=5, log_factor_exponent=0)
        result = find_balanced_separator(g, seed=0, cost_model=cm)
        assert result.method == "trivial"
        assert result.ledger.breakdown() == {
            "sep/step1_count": cm.partwise_aggregation(result.width_guess)
        }
        assert result.rounds == result.ledger.total()

    def test_root_path_charges_log_t_subgraph_operations_per_iteration(self):
        g = generators.partial_k_tree(60, 2, seed=5)
        cm = CostModel(n=60, diameter=properties.diameter(g), log_factor_exponent=0)
        result = find_balanced_separator(g, seed=3, cost_model=cm)
        assert (result.method, result.attempts) == ("roots", 1)
        t = result.width_guess
        charges = result.ledger.breakdown()
        assert set(charges) == {"sep/step1_count", "sep/split", "sep/balance_check"}
        assert charges["sep/step1_count"] == cm.partwise_aggregation(t)
        # One balance check (CCD + PA) per splitting iteration ...
        iterations, rest = divmod(charges["sep/balance_check"], cm.subgraph_operation(t))
        assert iterations >= 1 and rest == 0
        # ... and one Split, O(log t) subgraph operations, per iteration.
        log_t = math.ceil(math.log2(t + 1))
        assert charges["sep/split"] == iterations * log_t * cm.subgraph_operation(t)
        assert result.rounds == result.ledger.total()

    def test_pair_step_charges_bct_and_mvc_for_the_same_pairs(self):
        # A trial that reaches step 4 charges its h sampled pairs as one
        # BCT(h) and one MVC(h, t + 1); whether the trial then finds a
        # balanced separator does not matter here.
        g = generators.grid_graph(10, 10)
        cm = CostModel(n=100, diameter=properties.diameter(g), log_factor_exponent=0)
        sep = BalancedSeparator(rng=random.Random(3), cost_model=cm)
        ledger = RoundLedger()
        t = 2
        try:
            sep._sep_once(g, None, t, ledger)
        except SeparatorFailure:
            pass
        charges = ledger.breakdown()
        h, rest = divmod(charges["sep/pair_broadcast"] - t * cm.d, t)
        assert h >= 1 and rest == 0
        assert charges["sep/pair_broadcast"] == cm.broadcast_multi(t, h)
        assert charges["sep/vertex_cuts"] == cm.min_vertex_cut_multi(t, h, t + 1)


@given(st.integers(min_value=30, max_value=150), st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None)
def test_separator_always_balanced(n, seed):
    """Property: whatever exit Sep takes, the output is a valid balanced separator."""
    g = generators.partial_k_tree(n, 3, seed=seed)
    result = find_balanced_separator(g, seed=seed)
    assert is_balanced_separator(
        g, result.separator, SeparatorParams.practical().balance_fraction + 1e-9
    )
