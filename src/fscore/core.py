"""Exact population-level F_b-score machinery on finite-support distributions.

The optimal threshold theta* is the unique root of

    theta -> b^2 * theta * P(Y=1) - E(eta(X) - theta)_+

on [0, 1/(1+b^2)].  Both sides are piecewise linear in theta for a discrete
law, so the root is computed exactly by sorting the eta values.  The
independent bisection route lives in ``oracle``.
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
    inside the segment.  Without ``weights`` every value weighs 1/K; values
    that are already ascending are used as they are, others are sorted with
    ``np.sort``, and the active counts K - j stand in for the weights.  Every
    sum is taken after sorting, so the uniform root is a bitwise function of
    the multiset of values.  Returns 0.0 for the degenerate all-zero case
    (every theta solves the equation there; see package notes).
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("empty value sequence")
    if weights is None:
        v = values if _ascending(values) else np.sort(values)
        w = None
    else:
        weights = np.asarray(weights, dtype=float).ravel()
        order = np.argsort(values)
        v = values[order]
        w = weights[order]
    return _segment_scan(v, w, b * b)


def _ascending(v: np.ndarray) -> bool:
    """v[i] <= v[i + 1] for every i, checked one _SCAN_CHUNK at a time."""
    for start in range(0, v.size, _SCAN_CHUNK):
        block = v[start:start + _SCAN_CHUNK + 1]
        if not (block[:-1] <= block[1:]).all():
            return False
    return True


def _segment_scan(v, w, b2: float) -> float:
    """First admissible segment root, scanned in chunks of _SCAN_CHUNK.

    Segment j spans (v[j-1], v[j]) (with v[-1] read as 0).  Its active set
    {i >= j} has weight active[j] = sum_{i >= j} w[i] (K - j when ``w`` is
    None) and weighted value sum tail[j] = sum_{i >= j} w[i] v[i] (with w[i]
    read as 1 when ``w`` is None); its candidate is
    tail[j] / (b^2 s + active[j]) with s = tail[0].  The segment above the
    largest value is never the first admissible one when s > 0, so it is not
    scanned; s <= 0 returns 0.0.

    The suffix sums are formed one chunk at a time above a carry, the sums at
    the chunk's upper end, which a first pass from the top keeps at every
    chunk boundary.  Both passes add one term at a time from the largest
    index, as np.cumsum(x[::-1])[::-1] does, so the sums are the same bits.
    """
    k = v.size
    starts = range(0, k, _SCAN_CHUNK)
    # row 0 forms tail, row 1 active; column 0 holds the carry
    buf = np.empty((1 if w is None else 2, min(k, _SCAN_CHUNK) + 1))

    def suffix_sums(start, carry):
        stop = min(start + _SCAN_CHUNK, k)
        m = stop - start
        part = buf[:, :m + 1]
        part[:, 0] = carry
        if w is None:
            part[0, m:0:-1] = v[start:stop]
        else:
            np.multiply(w[start:stop], v[start:stop], out=part[0, m:0:-1])
            part[1, m:0:-1] = w[start:stop]
        np.cumsum(part, axis=1, out=part)
        return part[:, m:0:-1]

    # carries[c]: the sums at starts[c]; -0.0 + x == x for every x, so the
    # carry above the top chunk adds nothing, as np.cumsum's first term
    carries = [np.full(buf.shape[0], -0.0)]
    for start in reversed(starts):
        carries.append(suffix_sums(start, carries[-1])[:, 0].copy())
    carries.reverse()
    s = float(carries[0][0])
    if s <= 0.0:
        return 0.0
    b2s = b2 * s
    for c, start in enumerate(starts):
        sums = suffix_sums(start, carries[c + 1])
        stop = start + sums.shape[1]
        cand = sums[0]
        if w is None:
            den = np.arange(k - start, k - stop, -1, dtype=float)
            den += b2s
        else:
            den = b2s + sums[1]
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


def population_fbeta(dist: DiscreteDistribution, g, params: FBetaParams = FBetaParams()) -> float:
    """F_b(g) = P(Y=1, g(X)=1) / (b^2 P(Y=1) + P(g(X)=1)), normalized form."""
    bits = as_bits(dist, g)
    num = float(dist.mass @ (dist.eta * bits))
    den = params.b2 * dist.p_y1 + float(dist.mass @ bits)
    score = num / den
    if not params.normalized:
        score *= 1.0 + params.b2
    return score


def bayes_threshold(dist: DiscreteDistribution, params: FBetaParams = FBetaParams()) -> float:
    """Optimal threshold theta*: root of b^2*theta*P(Y=1) = E(eta(X)-theta)_+."""
    if dist.p_y1 <= 0:
        raise ValueError("P(Y=1) must be positive for the optimal threshold")
    theta = solve_threshold(dist.eta, dist.mass, params.b)
    residual = threshold_equation(theta, dist.eta, dist.mass, params.b)
    if not abs(float(residual)) <= ROOT_RESIDUAL_TOL:  # a NaN fails too
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
        value = lemma1_excess(dist.mass, np.abs(dist.eta - theta),
                              dist.eta > theta, bits, params.b2, dist.p_y1)
        if not params.normalized:
            value *= 1.0 + params.b2
        return value
    raise ValueError(f"unknown mode {mode!r}")


def lemma1_excess(mass, gap, star, bits, b2: float, p_y1: float) -> float:
    """Normalized excess F_b(g*) - F_b(g) by the weighted-disagreement
    identity (Lemma 1):

        sum_i mass_i |eta_i - theta*| 1{g_i != g*_i} / (b^2 P(Y=1) + P(g = 1))

    with ``gap`` = |eta - theta*|, ``star`` the bits of g* = 1{eta > theta*}
    and ``bits`` those of g, all over the support points.
    """
    num = float(mass @ (gap * (bits != star)))
    den = b2 * p_y1 + float(mass @ bits)
    return num / den
