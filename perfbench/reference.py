"""Independent reference computations for the benchmark's correctness checks.

None of this code calls into ``fscore``.  Each function computes its value
from the definition, so a check that compares the program against it does
not compare the program against itself:

* ``epanechnikov_direct``: the Nadaraya-Watson sum with Epanechnikov weights
  ``1 - ((t - x_i) / h)^2``, weight by weight, in one dimension;
* ``knn_mean``: the mean label of the k nearest points, via ``cKDTree``;
* ``threshold_bisect``: the root of ``b^2 theta mean(s) = mean((s - theta)_+)``
  by bisection;
* ``excess_direct``: ``F_b(g*) - F_b(g)`` on a finite law, both scores
  computed from their definition.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

_CHUNK = 256  # sorted queries per block of the direct sum


def epanechnikov_direct(x, y, t, h: float) -> np.ndarray:
    """eta_hat(t) = sum_i w_i y_i / sum_i w_i with w_i = (1 - ((t - x_i)/h)^2)_+.

    Every weight is formed from the difference ``t - x_i`` itself.  The
    queries are processed in sorted blocks, and each block sums over the
    contiguous run of sorted points within ``h`` of the block's range: every
    point outside that run has weight exactly 0 for every query in the block,
    so the sum equals the sum over all n points.  A query with no point in
    its window takes the label of its nearest point.  Results are clipped to
    [0, 1].
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    t = np.asarray(t, dtype=float).ravel()
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    q_order = np.argsort(t, kind="stable")
    out = np.empty(t.size)
    for start in range(0, t.size, _CHUNK):
        idx = q_order[start:start + _CHUNK]
        tq = t[idx]
        lo = np.searchsorted(xs, tq[0] - h, side="left")
        hi = np.searchsorted(xs, tq[-1] + h, side="right")
        u = (tq[:, None] - xs[None, lo:hi]) / h
        w = np.maximum(1.0 - u * u, 0.0)
        den = w.sum(axis=1)
        num = w @ ys[lo:hi]
        vals = np.empty(tq.size)
        ok = den > 0.0
        vals[ok] = num[ok] / den[ok]
        if not np.all(ok):
            far = tq[~ok]
            nearest = np.argmin(np.abs(far[:, None] - xs[None, :]), axis=1)
            vals[~ok] = ys[nearest]
        out[idx] = vals
    return np.clip(out, 0.0, 1.0)


def knn_mean(points, labels, queries, k: int) -> np.ndarray:
    """Mean label of the k nearest points (Euclidean) via a kd-tree."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels, dtype=float).ravel()
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    _, idx = cKDTree(points).query(queries, k=k)
    idx = np.asarray(idx).reshape(queries.shape[0], k)
    return np.clip(labels[idx].mean(axis=1), 0.0, 1.0)


def threshold_bisect(scores, weights=None, b: float = 1.0,
                     tol: float = 1e-12) -> float:
    """Root of b^2 theta S = sum_i w_i (s_i - theta)_+ on [0, 1/(1+b^2)],
    with S = sum_i w_i s_i and uniform weights by default; 0 when S = 0."""
    s = np.asarray(scores, dtype=float).ravel()
    w = np.full(s.size, 1.0 / s.size) if weights is None \
        else np.asarray(weights, dtype=float).ravel()
    total = float(w @ s)
    if total <= 0.0:
        return 0.0
    b2 = b * b

    def g(theta):
        return b2 * theta * total - float(w @ np.maximum(s - theta, 0.0))

    lo, hi = 0.0, 1.0 / (1.0 + b2)
    if g(hi) <= 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fbeta(mass, eta, bits, b: float = 1.0) -> float:
    """Normalized F_b(g) = P(Y=1, g=1) / (b^2 P(Y=1) + P(g=1))."""
    mass = np.asarray(mass, dtype=float)
    eta = np.asarray(eta, dtype=float)
    bits = np.asarray(bits, dtype=float)
    return float(mass @ (eta * bits)) / (b * b * float(mass @ eta)
                                         + float(mass @ bits))


def excess_direct(mass, eta, bits, theta_star: float, b: float = 1.0) -> float:
    """F_b(g*) - F_b(g) with g* = 1{eta > theta_star}."""
    star = np.asarray(eta, dtype=float) > theta_star
    return fbeta(mass, eta, star, b) - fbeta(mass, eta, bits, b)
