"""Brute-force ground truth on small instances.

Exhaustive classifier enumeration, an independent dense-grid threshold scan,
a bisection threshold solver, and a randomized identity suite cross-checking
the exact solvers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (bayes_classifier, bayes_threshold, excess_fbeta,
                   population_fbeta)
from .discrete import DiscreteDistribution, FBetaParams, random_distribution
from .estimators import _integer
from .threshold import ScoreSample, empirical_threshold

MAX_ENUM_POINTS = 20


class OracleSizeError(ValueError):
    pass


def brute_force_optimum(dist: DiscreteDistribution,
                        params: FBetaParams = FBetaParams()) -> tuple[float, np.ndarray]:
    """Maximum F_b over all 2^K bit-vectors and one maximizer
    (lexicographically smallest among ties)."""
    k = dist.size
    if k > MAX_ENUM_POINTS:
        raise OracleSizeError(f"support size {k} exceeds enumeration cap "
                              f"{MAX_ENUM_POINTS}")
    codes = np.arange(2 ** k, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(k)) & 1).astype(np.int8)
    num = bits @ (dist.mass * dist.eta)
    den = params.b2 * dist.p_y1 + bits @ dist.mass
    scores = num / den
    best = scores.max()
    winners = np.flatnonzero(scores == best)
    best_bits = min((tuple(int(b) for b in bits[i]) for i in winners))
    return float(best), np.asarray(best_bits, dtype=np.int64)


def scan_threshold(dist: DiscreteDistribution, params: FBetaParams = FBetaParams(),
                   grid_size: int = 1_000_000) -> float:
    """Independent threshold localizer: dense sign-change scan plus bisection.

    Agrees with the exact solver within 2/grid_size."""
    grid_size = _integer(grid_size, "grid_size", 1000)
    # O(K log K + grid) evaluator of the defining map: sort the eta values
    # once, then read the positive-part sum off suffix sums per grid point.
    order = np.argsort(dist.eta)
    v = dist.eta[order]
    wt = dist.mass[order]
    s = float(wt @ v)
    suffix_w = np.concatenate((np.cumsum(wt[::-1])[::-1], [0.0]))
    suffix_wv = np.concatenate((np.cumsum((wt * v)[::-1])[::-1], [0.0]))
    b2 = params.b2

    def equation(theta):
        theta = np.asarray(theta, dtype=float)
        j = np.searchsorted(v, theta, side="right")
        return b2 * theta * s - (suffix_wv[j] - theta * suffix_w[j])

    grid = np.linspace(0.0, 1.0, grid_size + 1)
    vals = equation(grid)
    # P(Y=1) > 0 and eta <= 1: the map is -P(Y=1) < 0 at 0 and >= 0 at 1
    idx = int(np.flatnonzero(vals >= 0.0)[0])
    lo, hi = grid[idx - 1], grid[idx]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if equation(np.asarray(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def solve_threshold_bisect(values, weights, b: float = 1.0, tol: float = 1e-12) -> float:
    """Bisection solver for the same root, an independent cross-check of
    ``core.solve_threshold``."""
    if not (tol > 0 and math.isfinite(tol)):  # a NaN tol would run no bisection
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    s = float(weights @ values)
    if s <= 0.0:
        return 0.0
    b2 = b * b

    def g(theta):
        return b2 * theta * s - float(weights @ np.clip(values - theta, 0.0, None))

    lo, hi = 0.0, 1.0 / (1.0 + b2)
    if g(hi) < 0:  # root sits exactly at the cap up to rounding
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class SuiteReport:
    trials: int
    passes_optimality: int = 0
    passes_excess_identity: int = 0
    passes_threshold_convergence: int = 0
    median_error_small: float = float("nan")
    median_error_large: float = float("nan")
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _fail(report, out_dir, dist, record, check, **detail):
    """Record a failed ``check`` of trial ``record["trial"]`` in the report
    and write its law and record to ``out_dir`` for replay."""
    record.update(failure=check, **detail)
    report.failures.append(record)
    stem = os.path.join(out_dir, f"trial_{record['trial']:05d}")
    os.makedirs(out_dir, exist_ok=True)
    dist.to_csv(stem + ".csv")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)


def randomized_identity_suite(trials: int, seed: int = 0,
                              out_dir: str = "oracle_failures") -> SuiteReport:
    """Randomized cross-check of the exact machinery.

    Per trial: (a) brute-force optimum equals the thresholded classifier's
    score to 1e-12, (b) the direct subtraction F_b(g*) - F_b(g) equals
    ``excess_fbeta``, the weighted-disagreement form, to 1e-12 for a random
    classifier, (c) the empirical threshold from a
    score sample drawn from the true eta law lands near theta* (sup-CDF
    concentration makes the stated bound deterministic up to an event of
    negligible probability).  A failing trial is recorded in the report's
    ``failures`` and its law and record are written to ``out_dir`` as
    ``trial_NNNNN.csv`` and ``.json`` for replay; nothing is raised, and the
    report's ``ok`` says whether every trial passed.
    """
    trials = _integer(trials, "trials", 1)
    rng = np.random.default_rng(seed)
    report = SuiteReport(trials=trials)
    errs_small, errs_large = [], []
    for i in range(trials):
        dist = random_distribution(rng, k_max=12)
        params = FBetaParams(b=1.0)
        theta = bayes_threshold(dist, params)
        star_bits = bayes_classifier(dist, params)
        star_score = population_fbeta(dist, star_bits, params)
        best, _ = brute_force_optimum(dist, params)
        record = {"trial": i, "theta_star": theta, "bayes_score": star_score,
                  "brute_force": best}
        if not abs(best - star_score) <= 1e-12:
            _fail(report, out_dir, dist, record, "optimality")
            continue
        report.passes_optimality += 1
        g = rng.integers(0, 2, size=dist.size)
        direct = star_score - population_fbeta(dist, g, params)
        lemma = excess_fbeta(dist, g, params)
        if not (abs(direct - lemma) <= 1e-12 and direct >= -1e-12):
            _fail(report, out_dir, dist, record, "excess_identity",
                  direct=direct, lemma1=lemma)
            continue
        report.passes_excess_identity += 1
        # (c) threshold recovery from eta scores sampled from the true law.
        errors = {}
        for size in (1_000, 10_000):
            scores = rng.choice(dist.eta, size=size, p=dist.mass)
            theta_hat = empirical_threshold(ScoreSample(values=scores), params)
            errors[size] = abs(theta_hat - theta)
        errs_small.append(errors[1_000])
        errs_large.append(errors[10_000])
        # Sup-CDF deviation <= 0.03 at size 10^4 except with prob ~2e-8.
        bound = 0.03 / dist.p_y1
        if errors[10_000] <= bound:
            report.passes_threshold_convergence += 1
        else:
            _fail(report, out_dir, dist, record, "threshold_convergence",
                  error=errors[10_000], bound=bound)
    report.median_error_small = float(np.median(errs_small)) if errs_small else float("nan")
    report.median_error_large = float(np.median(errs_large)) if errs_large else float("nan")
    return report
