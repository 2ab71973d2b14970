"""Centralized and general-graph baselines shared by tests and benchmarks."""

from repro.baselines.reference import reference_matching_size
from repro.baselines.congest_bounds import (
    general_graph_sssp_rounds,
    general_graph_exact_sssp_rounds,
    matching_baseline_rounds,
    girth_baseline_rounds,
    diameter_lower_bound_rounds,
)

__all__ = [
    "reference_matching_size",
    "general_graph_sssp_rounds",
    "general_graph_exact_sssp_rounds",
    "matching_baseline_rounds",
    "girth_baseline_rounds",
    "diameter_lower_bound_rounds",
]
