"""Exact population-level F_b-score machinery on finite-support distributions.

The optimal threshold theta* is the unique root of

    theta -> b^2 * theta * P(Y=1) - E(eta(X) - theta)_+

on [0, 1/(1+b^2)].  Both sides are piecewise linear in theta for a discrete
law, so the root is computed exactly by sorting the eta values; a bisection
fallback is kept for cross-checking.
"""

from __future__ import annotations

import numpy as np

from .discrete import DiscreteDistribution, FBetaParams, as_bits

ROOT_RESIDUAL_TOL = 1e-10
_SEGMENT_SLACK = 1e-15  # candidates this far outside a segment still count
_SCAN_CHUNK = 65_536  # segments whose candidates are formed per step


def threshold_equation(theta, values, weights, b: float = 1.0):
    """b^2*theta*S - sum_i w_i (v_i - theta)_+  with S = sum_i w_i v_i.

    Strictly increasing in theta whenever S > 0.  Vectorized over theta.
    """
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    s = float(weights @ values)
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th1 = np.atleast_1d(th)
    pos = np.clip(values[None, :] - th1[:, None], 0.0, None) @ weights
    out = b * b * th1 * s - pos
    return float(out[0]) if scalar else out


def solve_threshold(values, weights=None, b: float = 1.0) -> float:
    """Exact root of the threshold equation for a weighted discrete sample.

    O(K log K): between consecutive sorted values the equation is linear, so
    each segment yields a closed-form candidate which is accepted iff it lies
    inside the segment.  Without ``weights`` every value weighs 1/K; the
    values are then sorted with ``np.sort`` and the active counts K - j stand
    in for the weights.  Every sum is taken after sorting, so the uniform
    root is a bitwise function of the multiset of values.  Returns 0.0 for the
    degenerate all-zero case (every theta solves the equation there; see
    package notes).
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("empty value sequence")
    if weights is None:
        v = np.sort(values)
        active = None
        tail = _suffix_sums(v)
    else:
        weights = np.asarray(weights, dtype=float).ravel()
        order = np.argsort(values)
        v = values[order]
        w = weights[order]
        active = _suffix_sums(w)
        tail = _suffix_sums(w * v)
    if tail[0] <= 0.0:
        return 0.0
    return _segment_scan(v, tail, active, b * b)


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """out[j] = sum_{i >= j} x[i], accumulated from the largest index."""
    return np.cumsum(x[::-1])[::-1]


def _segment_scan(v, tail, active, b2: float) -> float:
    """First admissible segment root, scanned in chunks of _SCAN_CHUNK.

    Segment j spans (v[j-1], v[j]) (with v[-1] read as 0) and its active set
    is {i >= j}, of weight ``active[j]`` (K - j when ``active`` is None) and
    weighted value sum ``tail[j]``; the candidate tail[j] / (b^2 s + active[j])
    overwrites ``tail[j]``.  The segment above the largest value is never the
    first admissible one when s > 0, so it is not scanned.
    """
    k = v.size
    b2s = b2 * float(tail[0])
    for start in range(0, k, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, k)
        cand = tail[start:stop]
        if active is None:
            den = np.arange(k - start, k - stop, -1, dtype=float)
            den += b2s
        else:
            den = b2s + active[start:stop]
        # den can underflow to 0 on an empty active set for subnormal s; the
        # inf or nan candidate is then not admissible
        with np.errstate(divide="ignore", invalid="ignore"):
            cand /= den
        ok = cand <= v[start:stop] + _SEGMENT_SLACK
        ok[1:] &= cand[1:] >= v[start:stop - 1] - _SEGMENT_SLACK
        ok[0] &= cand[0] >= (v[start - 1] if start else 0.0) - _SEGMENT_SLACK
        if ok.any():
            theta = float(cand[int(np.argmax(ok))])
            return min(max(theta, 0.0), 1.0 / (1.0 + b2))
    # should not happen: the equation always has a root
    raise ArithmeticError("threshold solver found no admissible segment")


def solve_threshold_bisect(values, weights, b: float = 1.0, tol: float = 1e-12) -> float:
    """Bisection solver for the same root, kept as an independent route."""
    if tol <= 0:
        raise ValueError("tol must be positive")
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


def population_fbeta(dist: DiscreteDistribution, g, params: FBetaParams = FBetaParams()) -> float:
    """F_b(g) = P(Y=1, g(X)=1) / (b^2 P(Y=1) + P(g(X)=1)), normalized form."""
    bits = as_bits(dist, g)
    num = float(dist.mass @ (dist.eta * bits))
    den = params.b2 * dist.p_y1 + float(dist.mass @ bits)
    score = num / den
    if not params.normalized:
        score *= 1.0 + params.b2
    return score


def bayes_threshold(dist: DiscreteDistribution, params: FBetaParams = FBetaParams(),
                    method: str = "exact") -> float:
    """Optimal threshold theta*: root of b^2*theta*P(Y=1) = E(eta(X)-theta)_+."""
    if dist.p_y1 <= 0:
        raise ValueError("P(Y=1) must be positive for the optimal threshold")
    if method == "exact":
        theta = solve_threshold(dist.eta, dist.mass, params.b)
    elif method == "bisect":
        theta = solve_threshold_bisect(dist.eta, dist.mass, params.b, tol=1e-12)
    else:
        raise ValueError(f"unknown method {method!r}")
    residual = threshold_equation(theta, dist.eta, dist.mass, params.b)
    if abs(float(residual)) > ROOT_RESIDUAL_TOL:
        raise ArithmeticError(f"threshold residual {float(residual)!r} exceeds tolerance")
    return theta


def bayes_classifier(dist: DiscreteDistribution, params: FBetaParams = FBetaParams()) -> np.ndarray:
    """Bit-vector of the optimal rule 1{eta_i > theta*} (strict inequality)."""
    theta = bayes_threshold(dist, params)
    return (dist.eta > theta).astype(np.int64)


def excess_fbeta(dist: DiscreteDistribution, g, params: FBetaParams = FBetaParams(),
                 mode: str = "direct") -> float:
    """Optimality gap of g, by direct subtraction or the weighted-disagreement
    identity (both agree to float precision on discrete laws)."""
    bits = as_bits(dist, g)
    if mode == "direct":
        best = population_fbeta(dist, bayes_classifier(dist, params), params)
        return best - population_fbeta(dist, bits, params)
    if mode == "lemma1":
        theta = bayes_threshold(dist, params)
        star = (dist.eta > theta).astype(np.int64)
        num = float(dist.mass @ (np.abs(dist.eta - theta) * (star != bits)))
        den = params.b2 * dist.p_y1 + float(dist.mass @ bits)
        value = num / den
        if not params.normalized:
            value *= 1.0 + params.b2
        return value
    raise ValueError(f"unknown mode {mode!r}")
