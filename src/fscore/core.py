"""Exact population-level F_b-score machinery on finite-support distributions.

The optimal threshold theta* is the unique root of

    theta -> b^2 * theta * P(Y=1) - E(eta(X) - theta)_+

on [0, 1/(1+b^2)].  Both sides are piecewise linear in theta for a discrete
law, so the root is computed exactly by sorting the eta values.  The
independent bisection route lives in ``oracle``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .discrete import DiscreteDistribution, FBetaParams, as_bits

ROOT_RESIDUAL_TOL = 1e-10
_SEGMENT_SLACK = 1e-15  # candidates this far outside a segment still count
_SCAN_CHUNK = 65_536  # segments whose candidates are formed per step


class Carry(NamedTuple):
    """What a band solve knows of an unweighted sample of which it holds
    only a run of consecutive sorted values: ``floor`` is the largest value
    below the run (0.0 if none is), ``above`` values lie above it and sum to
    ``above_sum``; the sample has ``count`` values summing to ``total``."""

    floor: float
    above: int
    above_sum: float
    count: int
    total: float


def threshold_equation(theta, values, weights=None, b: float = 1.0,
                       carry: Carry | None = None):
    """b^2*theta*S - sum_i w_i (v_i - theta)_+  with S = sum_i w_i v_i.

    Without ``weights`` every value weighs 1.  Strictly increasing in theta
    whenever S > 0.  Vectorized over theta; the values are taken in chunks
    of _SCAN_CHUNK // len(theta) (at least one), so no len(theta) by
    len(values) array is formed.

    With a ``carry`` the values are a run of a larger unweighted sample: S
    is ``carry.total``, and the values above the run add
    above_sum - above * theta, which is exact for theta up to the run's
    largest value; those below it add 0 from theta = floor on.
    """
    values = np.asarray(values, dtype=float).ravel()
    if weights is not None:
        weights = np.asarray(weights, dtype=float).ravel()
    th = np.asarray(theta, dtype=float)
    th1 = np.atleast_1d(th)
    step = max(1, _SCAN_CHUNK // th1.size)
    s = 0.0
    pos = np.zeros(th1.size) if carry is None else carry.above_sum - carry.above * th1
    for start in range(0, values.size, step):
        v = values[start:start + step]
        part = v - th1[:, None]
        np.maximum(part, 0.0, out=part)
        if weights is None:
            s += float(v.sum())
            pos += part.sum(axis=1)
        else:
            w = weights[start:start + step]
            s += float(w @ v)
            pos += part @ w
    if carry is not None:
        s = carry.total
    out = b * b * s * th1 - pos
    return float(out[0]) if th.ndim == 0 else out


def solve_threshold(values, weights=None, b: float = 1.0,
                    carry: Carry | None = None) -> float | None:
    """Exact root of the threshold equation for a weighted discrete sample.

    O(K log K): between consecutive sorted values the equation is linear, so
    each segment yields a closed-form candidate which is accepted iff it lies
    inside the segment.  Without ``weights`` every value weighs 1/K; values
    that are already ascending are used as they are, others are sorted with
    ``np.sort``, and the active counts K - j stand in for the weights.  Every
    sum is taken after sorting, so the uniform root is a bitwise function of
    the multiset of values.  Returns 0.0 for the degenerate all-zero case
    (every theta solves the equation there; see package notes).

    The root is checked by one pass of ``threshold_equation`` at it: the
    residual per unit of total weight (per value without ``weights``) above
    ROOT_RESIDUAL_TOL, or a NaN, raises ``ArithmeticError``.

    With a ``carry`` (and no ``weights``) the values are a run of ascending
    consecutive values of a larger sample, and the root of that sample is
    sought between the carry's floor and the run's largest value: the same
    scan runs over those segments, the carry standing in for the values
    outside the run, and the residual is checked per value of the whole
    sample.  None means that no root lies there.
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
    theta = _segment_scan(v, w, b * b) if carry is None \
        else _segment_scan(v, None, b * b, carry)
    if theta is None:
        return None
    residual = threshold_equation(theta, v, w, b, carry)
    count = v.size if carry is None else carry.count
    limit = ROOT_RESIDUAL_TOL * (count if w is None else float(w.sum()))
    if not abs(residual) <= limit:  # a NaN fails too
        raise ArithmeticError(f"threshold residual {residual!r} exceeds {limit!r}")
    return theta


def _ascending(v: np.ndarray) -> bool:
    """v[i] <= v[i + 1] for every i, checked one _SCAN_CHUNK at a time."""
    for start in range(0, v.size, _SCAN_CHUNK):
        block = v[start:start + _SCAN_CHUNK + 1]
        if not (block[:-1] <= block[1:]).all():
            return False
    return True


def _segment_scan(v, w, b2: float, carry: Carry | None = None) -> float | None:
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

    A ``carry`` (``w`` None) makes v a run of a larger sample: the suffix
    sums start from above_sum, the active counts from above, s is the total
    and segment 0 starts at the floor.  Then None means no admissible
    segment.
    """
    k = v.size
    starts = range(0, k, _SCAN_CHUNK)
    # row 0 forms tail, row 1 active; column 0 holds the carry
    buf = np.empty((1 if w is None else 2, min(k, _SCAN_CHUNK) + 1))

    def suffix_sums(start, upper):
        stop = min(start + _SCAN_CHUNK, k)
        m = stop - start
        part = buf[:, :m + 1]
        part[:, 0] = upper
        if w is None:
            part[0, m:0:-1] = v[start:stop]
        else:
            np.multiply(w[start:stop], v[start:stop], out=part[0, m:0:-1])
            part[1, m:0:-1] = w[start:stop]
        np.cumsum(part, axis=1, out=part)
        return part[:, m:0:-1]

    # carries[c]: the sums at starts[c]; -0.0 + x == x for every x, so the
    # carry above the top chunk adds nothing, as np.cumsum's first term; a
    # band's carry starts there with the sum of the values above the band
    carries = [np.full(buf.shape[0], -0.0 if carry is None else carry.above_sum)]
    for start in reversed(starts):
        carries.append(suffix_sums(start, carries[-1])[:, 0].copy())
    carries.reverse()
    s = float(carries[0][0]) if carry is None else carry.total
    if s <= 0.0:
        return 0.0
    b2s = b2 * s
    active, low = (k, 0.0) if carry is None else (k + carry.above, carry.floor)
    cap = 1.0 / (1.0 + b2)
    for c, start in enumerate(starts):
        sums = suffix_sums(start, carries[c + 1])
        stop = start + sums.shape[1]
        cand = sums[0]
        if w is None:
            den = np.arange(active - start, active - stop, -1, dtype=float)
            den += b2s
        else:
            den = b2s + sums[1]
        # den can underflow to 0 on an empty active set for subnormal s; the
        # inf or nan candidate is then not admissible
        with np.errstate(divide="ignore", invalid="ignore"):
            cand /= den
        ok = cand <= v[start:stop] + _SEGMENT_SLACK
        ok[1:] &= cand[1:] >= v[start:stop - 1] - _SEGMENT_SLACK
        ok[0] &= cand[0] >= (v[start - 1] if start else low) - _SEGMENT_SLACK
        if ok.any():
            return min(max(float(cand[int(np.argmax(ok))]), 0.0), cap)
    if carry is None:
        # should not happen: the equation always has a root
        raise ArithmeticError("threshold solver found no admissible segment")
    return None


def population_fbeta(dist: DiscreteDistribution, g, params: FBetaParams = FBetaParams()) -> float:
    """F_b(g) = P(Y=1, g(X)=1) / (b^2 P(Y=1) + P(g(X)=1))."""
    bits = as_bits(dist, g)
    num = float(dist.mass @ (dist.eta * bits))
    den = params.b2 * dist.p_y1 + float(dist.mass @ bits)
    return num / den


def bayes_threshold(dist: DiscreteDistribution, params: FBetaParams = FBetaParams()) -> float:
    """Optimal threshold theta*: root of b^2*theta*P(Y=1) = E(eta(X)-theta)_+."""
    return solve_threshold(dist.eta, dist.mass, params.b)


def bayes_classifier(dist: DiscreteDistribution, params: FBetaParams = FBetaParams()) -> np.ndarray:
    """Bit-vector of the optimal rule 1{eta_i > theta*} (strict inequality)."""
    theta = bayes_threshold(dist, params)
    return (dist.eta > theta).astype(np.int64)


def excess_fbeta(dist: DiscreteDistribution, g, params: FBetaParams = FBetaParams()) -> float:
    """Optimality gap F_b(g*) - F_b(g) by the weighted-disagreement identity
    (``lemma1_excess``)."""
    bits = as_bits(dist, g)
    theta = bayes_threshold(dist, params)
    star = dist.eta > theta
    return lemma1_excess(dist.mass, np.abs(dist.eta - theta), star, bits,
                         params.b2, dist.p_y1, float(dist.mass[star].sum()))


def lemma1_excess(mass, gap, star, bits, b2: float, p_y1: float, p_star: float) -> float:
    """Excess F_b(g*) - F_b(g) by the weighted-disagreement
    identity (Lemma 1):

        sum_i mass_i |eta_i - theta*| 1{g_i != g*_i} / (b^2 P(Y=1) + P(g = 1))

    with ``gap`` = |eta - theta*|, ``star`` the boolean bits of
    g* = 1{eta > theta*} and ``bits`` those of g, all over the support
    points, and ``p_star`` = P(g* = 1).

    Both sums run only over the atoms D where g and g* disagree, which a
    margin condition keeps few: P(g = 1) is P(g* = 1) plus the mass of D
    where g = 1, less that of D where g* = 1.  Every sum is numpy's
    pairwise ``np.sum`` outside BLAS, so the excess does not depend on the
    BLAS thread count, and g = g* gives exactly 0.0.
    """
    disagree = np.flatnonzero(bits != star)
    on = star[disagree]  # g* = 1, so g = 0, on D
    weight = mass[disagree]
    num = float(np.sum(weight * gap[disagree]))
    den = b2 * p_y1 + (p_star + float(weight[~on].sum()) - float(weight[on].sum()))
    return num / den
