"""Scaling-law fits for the experiment harness.

The experiments check *shapes* — e.g. "rounds grow roughly linearly with D at
fixed τ" or "rounds grow polynomially in τ but only polylogarithmically in n".
These helpers perform the simple log-log / linear least-squares fits used to
quantify those shapes in the E1–E9 benches (docs/experiments.md).

Deliberately dependency-free: an ordinary 1-D least-squares line has a
closed form, so the fits run identically in the no-numpy CI environment
that exercises the simulator's fallback tiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass
class FitResult:
    """Least-squares fit y ≈ a · x^b (power law) or y ≈ a + b·x (linear).

    Attributes
    ----------
    coefficient:
        a (scale / intercept).
    exponent:
        b (power-law exponent or linear slope).
    r_squared:
        Coefficient of determination of the fit in the transformed space.
    """

    coefficient: float
    exponent: float
    r_squared: float


def _least_squares_line(x: List[float], y: List[float]) -> Tuple[float, float, float]:
    """Return ``(slope, intercept, r_squared)`` of the OLS line y ≈ a + b·x."""
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    var_x = sum((xi - mean_x) ** 2 for xi in x)
    cov_xy = sum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    slope = cov_xy / var_x
    intercept = mean_y - slope * mean_x
    ss_res = sum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
    ss_tot = sum((yi - mean_y) ** 2 for yi in y)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit y ≈ a·x^b by least squares in log-log space.

    Non-positive data points are dropped; at least two distinct x values are
    required.
    """
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)]
    if len({x for x, _ in pairs}) < 2:
        raise ValueError("fit_power_law needs at least two distinct positive x values")
    lx = [math.log(x) for x, _ in pairs]
    ly = [math.log(y) for _, y in pairs]
    slope, intercept, r_squared = _least_squares_line(lx, ly)
    return FitResult(
        coefficient=math.exp(intercept),
        exponent=slope,
        r_squared=r_squared,
    )


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit y ≈ a + b·x by ordinary least squares."""
    pairs = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    if len({x for x, _ in pairs}) < 2:
        raise ValueError("fit_linear needs at least two distinct x values")
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    slope, intercept, r_squared = _least_squares_line(x, y)
    return FitResult(coefficient=intercept, exponent=slope, r_squared=r_squared)


def growth_ratio(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Ratio of relative growths: (y_max/y_min) / (x_max/x_min).

    A value ≪ 1 indicates y grows much more slowly than x — the signature of
    the "polylog in n" claims.
    """
    xs_f = [x for x in xs if math.isfinite(x) and x > 0]
    ys_f = [y for y in ys if math.isfinite(y) and y > 0]
    if not xs_f or not ys_f:
        return math.nan
    x_ratio = max(xs_f) / min(xs_f)
    y_ratio = max(ys_f) / min(ys_f)
    if x_ratio <= 1:
        return math.nan
    return y_ratio / x_ratio
