"""Nonparametric regression estimators for eta(x) = P(Y=1 | X=x).

Three fitters are provided: k-nearest-neighbor, locally constant
Epanechnikov kernel smoothing and local polynomial fitting.  A kd-tree over
the labeled points finds neighbours and windows; the one-dimensional kernel
instead sweeps its sorted queries once against the sorted points and takes
window sums from prefix sums, once per run of queries that share a window
where such runs are long.  All outputs are clipped to [0, 1].
``default_bandwidth`` gives the rate-matched bandwidth h = n^{-1/(2 beta + d)}
and the companion concentration rate a_n = n^{2 beta / (2 beta + d)}.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .discrete import frozen_array, require_finite
from .table import read_table, write_table

_CHUNK = 512  # queries per block of window pairs
_NEIGHBOUR_ENTRIES = 65_536  # (query, neighbour) entries per block of k-NN queries
# Queries per block of the 1-d Epanechnikov fast path.  glibc's malloc hands
# larger blocks' temporaries back to the system and page-faults them in
# again per block (287 000 minor faults on the N = n rate curve at 65 536).
_PREFIX_CHUNK = 16_384
# Relative slack on tree distances: the kd-tree rounds distances on its own,
# so every radius it is asked for is widened by this factor and the d^2 that
# decide are recomputed exactly as sum_j (q_j - x_j)^2.
_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) in {0, 1}

    def __post_init__(self):
        points = frozen_array(self.points, 2)
        labels = frozen_array(self.labels, 1)
        if points.shape[0] != labels.size or labels.size == 0:
            raise ValueError("points and labels must be nonempty and equal length")
        require_finite(points, "labeled dataset")
        if np.any((labels != 0) & (labels != 1)):
            raise ValueError("labels must be binary")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path) -> None:
        write_table(path, [f"x_{i + 1}" for i in range(self.d)] + ["y"],
                    [*self.points.T, self.labels.astype(np.int64)])

    @classmethod
    def from_csv(cls, path) -> "LabeledDataset":
        header, values = read_table(path)
        if header[-1] != "y":
            raise ValueError("expected trailing column 'y'")
        return cls(points=values[:, :-1], labels=values[:, -1])


@dataclass(frozen=True)
class SmoothnessSpec:
    """Holder smoothness (exponent beta, constant L)."""

    beta: float
    L: float = 1.0

    def __post_init__(self):
        if not (self.beta > 0 and self.L > 0):
            raise ValueError("beta and L must be positive")


class BandwidthScale(NamedTuple):
    h: float
    a_n: float


def default_bandwidth(n: int, spec: SmoothnessSpec, d: int) -> BandwidthScale:
    """h = n^{-1/(2 beta + d)} together with a_n = n^{2 beta/(2 beta + d)}."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if d < 1:
        raise ValueError("d must be at least 1")
    denom = 2.0 * spec.beta + d
    return BandwidthScale(h=float(n) ** (-1.0 / denom),
                          a_n=float(n) ** (2.0 * spec.beta / denom))


def _integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int; booleans, non-integral numbers and values below
    ``least`` raise a ValueError that names ``name``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _bandwidth(h) -> float:
    h = float(h)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth h must be positive and finite, got {h!r}")
    return h


def _as_batch(x, d: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != d:
        raise ValueError(f"query dimension {arr.shape[1]} != fitted dimension {d}")
    require_finite(arr, "query points")
    return arr, single


def _tree(points: np.ndarray):
    # imported here, so that paths that build no tree never load scipy
    from scipy.spatial import cKDTree

    # sliding-midpoint splits, the rule of Maneewongvatana & Mount
    return cKDTree(points, balanced_tree=False)


class _Neighbours:
    """One kd-tree over the labeled points behind every nearest-neighbour and
    window query.

    The tree only proposes candidates.  Whatever decides an answer -- the
    order of the k nearest, membership of a window, a kernel weight -- uses
    d^2 = sum_j (q_j - x_j)^2 computed here, exactly as a pass over all n
    points would compute it.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self.tree = _tree(points)

    def nearest(self, block: np.ndarray, k: int) -> np.ndarray:
        """(m, k) indices of the k nearest points of each query; distance
        ties go to the lowest index, as in a stable argsort of d^2."""
        kq = min(k + 1, self.points.shape[0])
        dist, idx = self.tree.query(block, k=kq)
        dist = dist.reshape(-1, kq)
        idx = idx.reshape(-1, kq)[:, :k]
        if kq > k:
            # The tree orders tied points arbitrarily.  Where the k-th and
            # (k+1)-th distances tie, the k nearest are ranked again over
            # every point the tree finds within the k-th distance.  Equal
            # queries share that work: on a few atoms, most queries tie.
            ties = np.flatnonzero(dist[:, k] <= dist[:, k - 1] * _SLACK)
            _, first, inverse = np.unique(block[ties], axis=0, return_index=True,
                                          return_inverse=True)
            ranked = np.empty((first.size, k), dtype=idx.dtype)
            for u, i in enumerate(ties[first]):
                cand, d2 = self.within(block[i], dist[i, k - 1])
                ranked[u] = cand[np.argsort(d2, kind="stable")[:k]]
            idx[ties] = ranked[inverse.ravel()]
        return idx

    def within(self, q: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """Indices, ascending, of the points within about r of query q --
        a superset of those with d^2 <= r^2 -- and their d^2."""
        cand = np.array(self.tree.query_ball_point(q, r * _SLACK, return_sorted=True),
                        dtype=np.intp)
        return cand, ((q - self.points[cand]) ** 2).sum(axis=1)

    def pairs(self, block: np.ndarray, r: float):
        """(rows, cols, d2) of the pairs of a query in ``block`` and a point
        within about r -- a superset of those with d^2 <= r^2.  A query's
        pairs come in an order that does not depend on the rest of the
        block."""
        found = _tree(block).sparse_distance_matrix(self.tree, r * _SLACK,
                                                      output_type="ndarray")
        rows, cols = found["i"], found["j"]
        return rows, cols, ((block[rows] - self.points[cols]) ** 2).sum(axis=1)


class KNNEstimate:
    """Mean label of the k nearest points (Euclidean; ties -> lowest index)."""

    method = "knn"

    def __init__(self, data: LabeledDataset, k: int):
        k = _integer(k, "k")
        if not (1 <= k <= data.n):
            raise ValueError(f"k must be in [1, {data.n}], got {k}")
        self._data = data
        self.k = k
        self._index = _Neighbours(data.points)

    @property
    def hyperparameters(self) -> dict:
        return {"k": self.k}

    def evaluate(self, x) -> np.ndarray:
        queries, single = _as_batch(x, self._data.d)
        out = np.empty(queries.shape[0])
        step = max(1, _NEIGHBOUR_ENTRIES // (self.k + 1))
        for start in range(0, queries.shape[0], step):
            idx = self._index.nearest(queries[start:start + step], self.k)
            out[start:start + step] = self._data.labels[idx].mean(axis=1)
        np.clip(out, 0.0, 1.0, out=out)
        return out[0] if single else out


def _epanechnikov(u2: np.ndarray) -> np.ndarray:
    return np.clip(1.0 - u2, 0.0, None)


class KernelEstimate:
    """Locally constant Epanechnikov kernel regression; empty windows fall
    back to 1-NN (ties -> lowest index).

    One dimension sums windows by a sorted sweep over prefix sums, higher
    ones over the kd-tree's pairs within h."""

    method = "kernel"

    def __init__(self, data: LabeledDataset, h: float):
        self.h = _bandwidth(h)
        self._data = data
        if data.d == 1:
            x = data.points[:, 0]
            order = np.argsort(x)
            self._prefix = _EpanechnikovPrefix(x[order], data.labels[order])
        else:
            self._prefix = None

    @functools.cached_property
    def _index(self) -> _Neighbours:
        # built at first need: in one dimension only an empty window needs it
        return _Neighbours(self._data.points)

    @property
    def hyperparameters(self) -> dict:
        return {"h": self.h}

    def _sums(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per query of ``block``: sum_i w_i and sum_i w_i y_i."""
        if self._prefix is not None:
            return self._prefix.sums(block[:, 0], self.h)
        rows, cols, d2 = self._index.pairs(block, self.h)
        w = _epanechnikov(d2 / (self.h * self.h))
        m = block.shape[0]
        return (np.bincount(rows, w, minlength=m),
                np.bincount(rows, w * self._data.labels[cols], minlength=m))

    def evaluate(self, x) -> np.ndarray:
        queries, single = _as_batch(x, self._data.d)
        # Fixed blocks bound the temporaries whatever the number of queries.
        # Prefix sums of an empty window cancel only to rounding noise.
        step, floor = (_PREFIX_CHUNK, 1e-12) if self._prefix is not None \
            else (_CHUNK, 0.0)
        out = np.empty(queries.shape[0])
        for start in range(0, queries.shape[0], step):
            block = queries[start:start + step]
            vals = out[start:start + block.shape[0]]
            den, num = self._sums(block)
            ok = den > floor
            # unmasked, which is faster; the ~ok entries are replaced below
            with np.errstate(all="ignore"):
                np.divide(num, den, out=vals)
            if not np.all(ok):
                nearest = self._index.nearest(block[~ok], 1)[:, 0]
                vals[~ok] = self._data.labels[nearest]
        np.clip(out, 0.0, 1.0, out=out)
        return out[0] if single else out


class _EpanechnikovPrefix:
    """Epanechnikov smoothing in one dimension by one sorted sweep.

    For w_i = 1 - ((t - x_i)/h)^2 over |t - x_i| < h, both the weighted label
    sum and the weight sum expand into window sums of y, u*y and u^2*y, all
    available from prefix sums, where u = x - c is taken from the midpoint c
    of the data range: far from 0 the terms of the uncentered expansion
    cancel.  Over ascending queries a window [lo, hi) changes only where a
    point enters or leaves it (the updating of Fan & Marron 1994): a block's
    points are placed among its window edges once, and where few points are
    in reach, the consecutive queries that share a window share its sums.
    """

    def __init__(self, x_sorted: np.ndarray, y_sorted: np.ndarray):
        self.x = x_sorted
        self.center = 0.5 * (x_sorted[0] + x_sorted[-1])
        # prefix sums of y, u*y, u^2*y, u and u^2; a window's count is hi - lo
        self.cums = np.zeros((5, x_sorted.size + 1))
        y, uy, u2y, u, u2 = terms = self.cums[:, 1:]
        y[:] = y_sorted
        np.multiply(np.subtract(x_sorted, self.center, out=u), y, out=uy)
        np.multiply(np.multiply(u, u, out=u2), y, out=u2y)
        np.cumsum(terms, axis=1, out=terms)

    def _placed(self, edges: np.ndarray, side: str) -> tuple[int, np.ndarray]:
        """Over ascending ``edges``: the number of points before the first
        edge (x_i < e for side "left", x_i <= e for "right"), and for each
        later point up to the last edge, the first edge it is before.  Only
        those later points are searched."""
        first, last = np.searchsorted(self.x, edges[[0, -1]], side)
        return first, np.searchsorted(edges, self.x[first:last],
                                      "right" if side == "left" else "left")

    def _runs(self, t: np.ndarray, h: float):
        """Index ranges [lo, hi) of the points with |t - x_i| < h over
        ascending ``t``.  With few points in reach of the block, the
        queries fall into long runs that share one range: then one range
        per run and the run lengths, else one range per query and None."""
        lo0, enter = self._placed(t - h, "right")
        hi0, leave = self._placed(t + h, "left")
        m = t.size
        # runs average over 8 queries here.  Per-run sums measured faster
        # above about 11 queries per run, per-query ones below; on the N = n
        # rate curve either alone is 1.6x slower at n = 250 (per-query) or
        # 2.2x at n = 64 000 (per-run), and cutoffs 8 and 12 time the same
        if 8 * (enter.size + leave.size + 1) < m:
            starts = np.unique(np.concatenate(([0], enter, leave)))
            return (lo0 + np.searchsorted(enter, starts, "right"),
                    hi0 + np.searchsorted(leave, starts, "right"),
                    np.diff(starts, append=m))
        return (lo0 + np.cumsum(np.bincount(enter, minlength=m)),
                hi0 + np.cumsum(np.bincount(leave, minlength=m)), None)

    def sums(self, t: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
        """Per query: sum_i w_i and sum_i w_i y_i."""
        if not np.all(t[1:] >= t[:-1]):
            # equal queries get equal windows and equal arithmetic, so the
            # sweep over the sorted block gives each query the same bits
            order = np.argsort(t)
            den, num = np.empty((2, t.size))
            den[order], num[order] = self.sums(t[order], h)
            return den, num
        lo, hi, lengths = self._runs(t, h)
        s = [cum[hi] - cum[lo] for cum in self.cums]
        s.append((hi - lo).astype(float))
        if lengths is not None:
            # each query of a run takes the run's sums
            s = [np.repeat(v, lengths) for v in s]
        s_y, s_uy, s_u2y, s_u, s_u2, s_1 = s
        tc = t - self.center
        tc2 = tc * tc
        tc *= 2.0
        h2 = h * h

        def expand(s, s_u, s_u2):
            # s - (tc^2 s - 2 tc s_u + s_u2) / h^2, in this order of operations
            out = tc2 * s
            out -= np.multiply(tc, s_u, out=s_u)
            out += s_u2
            out /= h2
            return np.subtract(s, out, out=out)

        return expand(s_1, s_u, s_u2), expand(s_y, s_uy, s_u2y)


class LocalPolyEstimate:
    """Locally weighted polynomial fit with Epanechnikov weights in a radius-h
    window; singular or underdetermined local designs fall back to the
    locally constant kernel value."""

    method = "local_poly"

    def __init__(self, data: LabeledDataset, degree: int, h: float):
        degree = _integer(degree, "degree")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.h = _bandwidth(h)
        self._data = data
        self.degree = degree
        self._fallback = KernelEstimate(data, self.h)

    @property
    def hyperparameters(self) -> dict:
        return {"degree": self.degree, "h": self.h}

    def _design(self, centered: np.ndarray) -> np.ndarray:
        # Monomials of (x - x0)/h with total degree <= self.degree; column 0
        # is the constant term, whose coefficient is the value at the query.
        cols = [np.ones(centered.shape[0])]
        d = centered.shape[1]
        for exps in product(range(self.degree + 1), repeat=d):
            if 0 < sum(exps) <= self.degree:
                term = np.ones(centered.shape[0])
                for j, e in enumerate(exps):
                    if e:
                        term = term * centered[:, j] ** e
                cols.append(term)
        return np.column_stack(cols)

    def evaluate(self, x) -> np.ndarray:
        queries, single = _as_batch(x, self._data.d)
        pts = self._data.points
        labels = self._data.labels
        h2 = self.h * self.h
        index = self._fallback._index  # the windows share the kernel's tree
        out = np.empty(queries.shape[0])
        for i, q in enumerate(queries):
            cand, d2 = index.within(q, self.h)
            in_window = d2 < h2
            rows = cand[in_window]
            w = _epanechnikov(d2[in_window] / h2)
            design = self._design((pts[rows] - q) / self.h)
            if rows.size < design.shape[1]:
                out[i] = self._fallback.evaluate(q)
                continue
            sw = np.sqrt(w)
            a = design * sw[:, None]
            b = labels[rows] * sw
            coef, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
            if rank < design.shape[1]:
                out[i] = self._fallback.evaluate(q)
            else:
                out[i] = coef[0]
        np.clip(out, 0.0, 1.0, out=out)
        return out[0] if single else out


_ESTIMATORS = {"knn": KNNEstimate, "kernel": KernelEstimate,
               "local_poly": LocalPolyEstimate}


def fit_from_config(data: LabeledDataset,
                    config: dict) -> KNNEstimate | KernelEstimate | LocalPolyEstimate:
    """Dispatch on ``config['method']`` (default ``'kernel'``); the remaining
    keys are hyperparameters.

    This is the one place that fills in rate-matched defaults: missing
    bandwidths h = n^{-1/(2 beta + d)}, neighbour counts
    k = ceil(n^{2 beta/(2 beta + d)}) and degrees floor(beta), for the
    smoothness in ``config['beta']`` (1.0 if absent).
    """
    cfg = dict(config)
    method = cfg.pop("method", "kernel")
    if method not in _ESTIMATORS:
        raise ValueError(f"unknown estimator method {method!r}")
    spec = SmoothnessSpec(beta=float(cfg.pop("beta", 1.0)))
    scale = default_bandwidth(data.n, spec, data.d)
    if method == "knn":
        cfg.setdefault("k", min(data.n, max(1, int(np.ceil(scale.a_n)))))
    else:
        cfg.setdefault("h", scale.h)
    if method == "local_poly":
        cfg.setdefault("degree", int(np.floor(spec.beta)))
    return _ESTIMATORS[method](data, **cfg)
