"""Empirical threshold calibration from scores on the unlabeled sample.

theta_hat solves  b^2 * theta * mean(s) = mean((s - theta)_+)  over the
score sample s (fitted regression values on the unlabeled points), exactly,
with the sort-based solver of ``core.solve_threshold``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import _SCAN_CHUNK, ROOT_RESIDUAL_TOL, solve_threshold
from .discrete import FBetaParams, frozen_array, require_finite


class DegenerateScoreSample(UserWarning):
    """All scores are zero: every theta solves the equation; 0 is returned."""


@dataclass(frozen=True)
class ScoreSample:
    """Regression scores evaluated on the unlabeled sample."""

    values: np.ndarray

    def __post_init__(self):
        values = frozen_array(self.values, 1)
        if values.size == 0:
            raise ValueError("score sample must be nonempty")
        require_finite(values, "score sample")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("scores must lie in [0, 1]")
        object.__setattr__(self, "values", values)


def empirical_threshold(sample: ScoreSample,
                        params: FBetaParams = FBetaParams()) -> float:
    """Root theta_hat of the empirical threshold equation on [0, 1/(1+b^2)].

    The root is exact and depends only on the multiset of scores: reordering
    the sample returns the same float.  A residual above
    (b^2 + 1) * ROOT_RESIDUAL_TOL raises ``ArithmeticError``.
    """
    values = sample.values
    mean = float(values.mean())
    if mean == 0.0:
        warnings.warn("all scores are zero; returning theta_hat = 0",
                      DegenerateScoreSample)
        return 0.0
    theta = solve_threshold(values, b=params.b)
    positive = 0.0  # sum of (s - theta)_+, one chunk at a time
    for start in range(0, values.size, _SCAN_CHUNK):
        part = values[start:start + _SCAN_CHUNK] - theta
        positive += float(np.maximum(part, 0.0, out=part).sum())
    residual = params.b2 * theta * mean - positive / values.size
    # b^2 + 1 bounds the slope of the equation
    limit = (params.b2 + 1.0) * ROOT_RESIDUAL_TOL
    if not abs(residual) <= limit + 1e-12:  # a NaN fails too
        raise ArithmeticError(f"threshold residual {residual!r} exceeds {limit!r}")
    return theta


def empirical_cdf(sample_values: np.ndarray):
    """Right-continuous empirical CDF t -> (1/N) sum 1{v_i <= t}."""
    sorted_vals = np.sort(np.asarray(sample_values, dtype=float).ravel())
    n = sorted_vals.size

    def cdf(t):
        return np.searchsorted(sorted_vals, t, side="right") / n

    return cdf


def cdf_gap_bound(true_eta_cdf, sample: ScoreSample, p_y1: float,
                  breakpoints=None, tol: float = 1e-8) -> float:
    """Upper bound on |theta_hat - theta*| (b = 1) from the L1 gap between
    the true CDF of eta and the empirical CDF of the scores.

    With ``breakpoints`` (jump locations of a discrete true law) the integrand
    is piecewise constant between merged breakpoints and the integral is
    exact; otherwise each inter-sample segment is handled by quadrature.
    """
    if p_y1 <= 0:
        raise ValueError("p_y1 must be positive")
    emp = empirical_cdf(sample.values)
    if breakpoints is not None:
        knots = np.unique(np.concatenate(
            [np.asarray(breakpoints, dtype=float).ravel(), sample.values, [0.0, 1.0]]))
        knots = knots[(knots >= 0.0) & (knots <= 1.0)]
        total = 0.0
        for lo, hi in zip(knots[:-1], knots[1:]):
            mid = 0.5 * (lo + hi)
            total += abs(float(true_eta_cdf(mid)) - float(emp(mid))) * (hi - lo)
        return total / p_y1
    from scipy.integrate import quad

    knots = np.unique(np.concatenate([sample.values, [0.0, 1.0]]))
    knots = knots[(knots >= 0.0) & (knots <= 1.0)]
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        if hi <= lo:
            continue
        level = float(emp(0.5 * (lo + hi)))
        piece, _ = quad(lambda t: abs(float(true_eta_cdf(t)) - level), lo, hi,
                        epsabs=tol / max(len(knots) - 1, 1), limit=200)
        total += piece
    return total / p_y1
