"""Round-complexity curves of the general-graph CONGEST algorithms the paper compares against.

The paper's contribution is *fully polynomial* round complexity — polynomial
in τ, linear in D, polylogarithmic in n — versus general-graph algorithms
whose complexity grows polynomially in n.  These closed-form curves (taken
from the works cited in §1.2/§1.4) are used in the crossover experiment (E9)
and as reference series in several benchmark tables.  They are *not* run; the
distributed Bellman-Ford baseline in :mod:`repro.congest.bellman_ford` is
actually executed, and its measured rounds are reported next to these curves.
"""

from __future__ import annotations

import math


def _log(n: int) -> float:
    return math.log2(max(2, n))


def general_graph_sssp_rounds(n: int, diameter: int) -> float:
    """(1+ε)-approximate SSSP in general graphs: Õ(√n + D) [BKKL17]."""
    return (math.sqrt(n) + diameter) * _log(n)


def general_graph_exact_sssp_rounds(n: int, diameter: int) -> float:
    """Exact SSSP in general graphs: Õ(√n·D^{1/4} + D) [CM20]."""
    return (math.sqrt(n) * diameter ** 0.25 + diameter) * _log(n)


def matching_baseline_rounds(max_matching_size: int) -> float:
    """Exact bipartite maximum matching baseline: Õ(s_max) rounds [AKO18]."""
    return max(1.0, max_matching_size * _log(max(2, max_matching_size)))


def girth_baseline_rounds(n: int, girth: float) -> float:
    """General-graph girth: Õ(min(g·n^{1−Θ(1/g)}, n)) rounds [CHFG+20]."""
    if not math.isfinite(girth) or girth <= 0:
        return float(n)
    g = max(3.0, girth)
    return min(g * n ** (1.0 - 1.0 / g), float(n)) * _log(n)


def diameter_lower_bound_rounds(n: int) -> float:
    """Diameter computation lower bound Ω̃(n) on low-treewidth hard instances [ACK16].

    Used to illustrate the paper's exponential girth/diameter separation: the
    girth upper bound is polylogarithmic in n (for constant τ, D) while
    diameter requires Ω̃(n) rounds on graphs of logarithmic treewidth.
    """
    return n / _log(n)
