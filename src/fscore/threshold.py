"""Empirical threshold calibration from scores on the unlabeled sample.

theta_hat solves  b^2 * theta * mean(s) = mean((s - theta)_+)  over the
score sample s (fitted regression values on the unlabeled points), exactly,
with the sort-based solver of ``core.solve_threshold``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Carry, solve_threshold
from .discrete import FBetaParams, frozen_array
from .estimators import _positive


class DegenerateScoreSample(UserWarning):
    """No score is positive: every theta solves the equation; 0 is returned."""


@dataclass(frozen=True)
class ScoreSample:
    """Regression scores evaluated on the unlabeled sample."""

    values: np.ndarray

    def __post_init__(self):
        values = frozen_array(self.values, 1, "score sample")
        if values.size == 0:
            raise ValueError("score sample must be nonempty")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("scores must lie in [0, 1]")
        object.__setattr__(self, "values", values)


def empirical_threshold(sample: ScoreSample, params: FBetaParams = FBetaParams(),
                        carry: Carry | None = None) -> float | None:
    """Root theta_hat of the empirical threshold equation on [0, 1/(1+b^2)].

    The root is exact and depends only on the multiset of scores: reordering
    the sample returns the same float.  ``solve_threshold`` checks it: a
    residual above ROOT_RESIDUAL_TOL, per score, raises ``ArithmeticError``.
    When no score is positive it warns with ``DegenerateScoreSample`` and
    returns 0.

    With a ``carry`` the sample holds only a run of consecutive sorted
    scores of a larger sample, which the carry sums up: the root is that of
    the larger sample, or None when it does not lie within the run (see
    ``solve_threshold``), and the warning counts the carry's positive
    scores.
    """
    values = sample.values
    if not (values.max() > 0.0 if carry is None else carry.positive > 0):
        warnings.warn("no score is positive; returning theta_hat = 0",
                      DegenerateScoreSample)
        return 0.0
    return solve_threshold(values, b=params.b, carry=carry)


def empirical_cdf(sample_values: np.ndarray):
    """Right-continuous empirical CDF t -> (1/N) sum 1{v_i <= t}."""
    sorted_vals = np.sort(np.asarray(sample_values, dtype=float).ravel())
    n = sorted_vals.size

    def cdf(t):
        return np.searchsorted(sorted_vals, t, side="right") / n

    return cdf


def cdf_gap_bound(true_eta_cdf, sample: ScoreSample, p_y1: float,
                  breakpoints) -> float:
    """Upper bound on |theta_hat - theta*| (b = 1) from the L1 gap between
    the true CDF of eta and the empirical CDF of the scores.

    ``breakpoints`` are the jump locations of the true CDF, a discrete law's
    eta values.  Both CDFs are then constant on each segment between the
    sorted scores, 0, 1 and the breakpoints, and the integral is exact: the
    midpoint value times the width, summed.
    """
    _positive(p_y1, "p_y1")
    emp = empirical_cdf(sample.values)
    knots = np.unique(np.concatenate([np.asarray(breakpoints, dtype=float).ravel(),
                                      sample.values, [0.0, 1.0]]))
    knots = knots[(knots >= 0.0) & (knots <= 1.0)]
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (lo + hi)
        total += abs(float(true_eta_cdf(mid)) - float(emp(mid))) * (hi - lo)
    return total / p_y1
