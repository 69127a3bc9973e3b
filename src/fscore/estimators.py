"""Nonparametric regression estimators for eta(x) = P(Y=1 | X=x).

k-nearest-neighbour regression, and local polynomial regression with
Epanechnikov weights, whose degree-0 case is the kernel estimate; every
degree solves the same window moments.  A kd-tree over the labeled points
finds neighbours and, for d > 1, windows; in one dimension a sorted sweep
takes the moments from prefix sums kept per anchor, which hold them to
rounding on any span.  All outputs are clipped to [0, 1].  ``default_bandwidth``
gives the rate-matched h = n^{-1/(2 beta + d)} and a_n = n^{2 beta/(2 beta + d)}.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .core import _ascending
from .discrete import frozen_array, require_finite
from .table import read_table, write_table

_CHUNK = 512  # queries per block of window pairs
_NEIGHBOUR_ENTRIES = 65_536  # (query, neighbour) entries per block of k-NN queries
# Queries per block of the 1-d sweep: glibc's malloc hands larger blocks'
# temporaries back to the system and page-faults them in again per block.
_PREFIX_CHUNK = 16_384
# Sum w at or below which the 1-d sweep takes 1-NN: prefix sums of a window
# cancel only to rounding noise.
_PREFIX_FLOOR = 1e-12
# Sorted queries per span whose bits ``exceeds`` certifies from one query,
# and the spans of _SPAN in each of the coarser spans it certifies first.
_SPAN = 64
_COARSE = 4
_U = 2.0 ** -53  # unit roundoff of float64
# Least eigenvalue of a regular local design's Gram matrix scaled to unit
# diagonal: 1-d window moments carry rounding of about 1e-11 of their prefix
# sums, which nearer to singular could move eta_hat by more than 1e-9.
_SINGULAR = 1e-8
# Relative slack on tree distances, which the kd-tree rounds on its own: the
# d^2 that decide are recomputed exactly as sum_j (q_j - x_j)^2.
_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) in {0, 1}

    def __post_init__(self):
        points = frozen_array(self.points, 2, "labeled dataset")
        labels = frozen_array(self.labels, 1, "labels")
        if points.shape[0] != labels.size or labels.size == 0:
            raise ValueError("points and labels must be nonempty and equal length")
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
    """Holder smoothness exponent beta."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _positive(self.beta, "beta"))


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


def _real(value, name: str) -> float:
    """``value`` as a float; booleans and values that are not real numbers
    raise a ValueError that names ``name``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _positive(value, name: str) -> float:
    """``_real(value, name)``; values that are not positive and finite raise
    a ValueError that names ``name``."""
    if not (math.isfinite(_real(value, name)) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _as_batch(x, d: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim > 2:
        raise ValueError(f"query points must be at most 2-d, got shape {arr.shape}")
    # a 1-d array is one point, and so is a number when d = 1
    single = arr.ndim == 1 or (arr.ndim == 0 and d == 1)
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
    window query.  The tree only proposes candidates: whatever decides an
    answer -- the order of the k nearest, membership of a window, a kernel
    weight -- uses d^2 = sum_j (q_j - x_j)^2 computed exactly as a pass over
    all n points would compute it."""

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
                # ascending indices of the points within about the k-th distance
                cand = np.array(self.tree.query_ball_point(
                    block[i], dist[i, k - 1] * _SLACK, return_sorted=True), dtype=np.intp)
                d2 = ((block[i] - self.points[cand]) ** 2).sum(axis=1)
                ranked[u] = cand[np.argsort(d2, kind="stable")[:k]]
            idx[ties] = ranked[inverse.ravel()]
        return idx

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
        self.k = k = _integer(k, "k")
        if not (1 <= k <= data.n):
            raise ValueError(f"k must be in [1, {data.n}], got {k}")
        self._data = data
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

    def exceeds(self, x, theta) -> np.ndarray | bool:
        """The bits 1{eta_hat(x) > theta}."""
        return self.evaluate(x) > theta


def _placed(values: np.ndarray, t: np.ndarray, d: float,
            side: str) -> tuple[int, np.ndarray]:
    """Over ascending ``values`` and ``t``, with edges fl(t + d): the number
    of values before the first edge (v < e, or v <= e for side "right"), and
    for each later value up to the last edge, the first edge it is before.
    The edges are formed _PREFIX_CHUNK queries at a time, each block placing
    the values up to its last edge."""
    first = lo = np.searchsorted(values, t[0] + d, side)
    opposite = "right" if side == "left" else "left"
    found = []
    for start in range(0, t.size, _PREFIX_CHUNK):
        edges = t[start:start + _PREFIX_CHUNK] + d
        hi = np.searchsorted(values, edges[-1], side)
        found.append(start + np.searchsorted(edges, values[lo:hi], opposite))
        lo = hi
    return first, np.concatenate(found)


def _distinct(parts) -> np.ndarray:
    """The distinct values of the ascending integer arrays ``parts``, in
    ascending order, by a merging sort: on the run starts of 2^18 sorted
    queries at n = 2000 it measured 25x faster than the hashing of
    np.unique, and 3x on those of 16 384."""
    values = np.concatenate(parts)
    values.sort(kind="stable")
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _expand(sums: list, s: np.ndarray, k: int) -> np.ndarray:
    """The window sum of (v + s)^k from those of v^j, by Horner's rule in s."""
    out = sums[0]
    for j in range(1, k + 1):
        out = out * s if j == 1 else np.multiply(out, s, out=out)
        out += sums[j] if j == k else math.comb(k, j) * sums[j]
    return out


class LocalPolyEstimate:
    """Local polynomial regression of degree p, weights w = 1 - z^2 over
    |z| < 1, z = (x - t)/h, solved from the window moments sum w z^a and
    sum w z^a y.  A singular design -- fewer distinct points than monomials,
    or an eigenvalue of its Gram matrix scaled to unit diagonal at most
    _SINGULAR -- takes the degree-0 value; an empty window takes 1-NN."""

    method = "local_poly"

    def __init__(self, data: LabeledDataset, degree: int, h: float):
        self.degree = degree = _integer(degree, "degree", 0)
        self.h = _positive(h, "bandwidth h")
        self._data = data
        # exponents of the monomials of degree <= 2p, by degree, and the
        # indices among them of the products of those of degree <= p
        self._powers = sorted((e for e in product(range(2 * degree + 1), repeat=data.d)
                               if sum(e) <= 2 * degree), key=lambda e: (sum(e), e))
        mono = [e for e in self._powers if sum(e) <= degree]
        self._gram = np.array([[self._powers.index(tuple(np.add(a, b))) for b in mono]
                               for a in mono])
        self._prefix = _AnchoredPrefix(data, self.h, degree) if data.d == 1 else None

    @functools.cached_property
    def _index(self) -> _Neighbours:
        # built at first need: in one dimension only an empty window needs it
        return _Neighbours(self._data.points)

    @property
    def hyperparameters(self) -> dict:
        return {"degree": self.degree, "h": self.h}

    def _pair_moments(self, block: np.ndarray) -> np.ndarray:
        """The rows of ``_AnchoredPrefix.moments`` over the pairs, but the window's
        count for its distinct points: exact sums give too few an eigenvalue near 0."""
        rows, cols, d2 = self._index.pairs(block, self.h)
        w = np.clip(1.0 - d2 / (self.h * self.h), 0.0, None)
        terms = [w]
        if self.degree:  # z_j^0 .. z_j^(2p) by running products, then each w z^a
            z = ((self._data.points[cols] - block[rows]) / self.h).T
            zp = np.cumprod([np.ones_like(z)] + [z] * (2 * self.degree), axis=0)
            terms += [w * np.prod(zp[e, range(len(e))], axis=0) for e in self._powers[1:]]
        terms += [t * self._data.labels[cols] for t in terms[:len(self._gram)]]
        if self.degree:
            terms.append((w > 0).astype(float))
        return np.array([np.bincount(rows, t, minlength=block.shape[0]) for t in terms])

    def _ascending_batch(self, x) -> tuple[np.ndarray, bool, np.ndarray | None]:
        """``_as_batch`` of x, 1-d queries sorted as the sweep needs, and the order
        that sorted them (None if they ascend); equal queries get equal bits."""
        queries, single = _as_batch(x, self._data.d)
        order = None if self._prefix is None or _ascending(queries[:, 0]) \
            else np.argsort(queries[:, 0])
        return (queries if order is None else queries[order]), single, order

    def evaluate(self, x) -> np.ndarray:
        queries, single, order = self._ascending_batch(x)
        # Fixed blocks bound the temporaries whatever the number of queries.
        step, floor = (_CHUNK, 0.0) if self._prefix is None \
            else (_PREFIX_CHUNK, _PREFIX_FLOOR)
        out = np.empty(queries.shape[0])
        starts = range(0, queries.shape[0], step)
        blocks = (self._pair_moments(queries[start:start + step]) for start in starts) \
            if self._prefix is None else self._prefix.block_moments(queries[:, 0], step)
        for start, moments in zip(starts, blocks):
            block = queries[start:start + step]
            vals = out[start:start + block.shape[0]]
            ok = moments[0] > floor
            # unmasked, which is faster; the ~ok entries are replaced below
            with np.errstate(all="ignore"):
                np.divide(moments[len(self._powers)], moments[0], out=vals)
            if self.degree:
                self._fit(moments, ok, vals)
            if not np.all(ok):
                nearest = self._index.nearest(block[~ok], 1)[:, 0]
                vals[~ok] = self._data.labels[nearest]
        np.clip(out, 0.0, 1.0, out=out)
        if order is not None:  # back in the caller's order
            out[order] = out.copy()
        return out[0] if single else out

    def exceeds(self, x, theta) -> np.ndarray | bool:
        """The bits 1{eta_hat(x) > theta}, equal to ``evaluate(x) > theta``.
        The 1-d degree-0 sweep certifies the bits of whole spans of the
        sorted queries from one query each (``_AnchoredPrefix.certify``):
        spans of _COARSE * _SPAN queries first, then the spans of _SPAN of
        those it cannot certify; it evaluates only the spans of _SPAN it
        still cannot certify.  Every other case, and a theta outside [0, 1),
        compares ``evaluate``."""
        if self._prefix is None or self.degree or not 0.0 <= theta < 1.0:
            return self.evaluate(x) > theta
        queries, single, order = self._ascending_batch(x)
        t = queries[:, 0]
        if not t.size:
            return t > theta
        theta = float(theta)

        def certify(first, size):  # the last span may be short
            return self._prefix.certify(t, theta, first, np.minimum(first + size, t.size) - 1)

        above, sure = certify(np.arange(0, t.size, _COARSE * _SPAN), _COARSE * _SPAN)
        spans = np.repeat(above, _COARSE)  # the bit of each span of _SPAN
        doubt = (np.flatnonzero(~sure)[:, None] * _COARSE + np.arange(_COARSE)).ravel()
        doubt = doubt[doubt * _SPAN < t.size]
        if doubt.size:
            above, sure = certify(doubt * _SPAN, _SPAN)
            spans[doubt] = above
            doubt = doubt[~sure]
        bits = np.repeat(spans, _SPAN)[:t.size]
        if doubt.size:
            doubt = (doubt[:, None] * _SPAN + np.arange(_SPAN)).ravel()
            doubt = doubt[doubt < t.size]
            bits[doubt] = self.evaluate(t[doubt, None]) > theta
        if order is not None:
            bits[order] = bits.copy()
        return bits[0] if single else bits

    def _fit(self, moments: np.ndarray, ok: np.ndarray, vals: np.ndarray) -> None:
        """Overwrite ``vals`` with the degree-p value where the design is regular."""
        k = len(self._gram)
        fit = np.flatnonzero(ok & (moments[-1] >= k))
        gram = np.moveaxis(moments[:, fit][self._gram], -1, 0)
        diag = np.diagonal(gram, axis1=1, axis2=2)
        scale = np.where(diag > 0, diag, np.inf) ** -0.5  # equilibrated
        gram *= scale[:, :, None] * scale[:, None, :]
        regular = np.linalg.eigvalsh(gram)[:, 0] > _SINGULAR
        rhs = moments[len(self._powers):len(self._powers) + k, fit].T * scale
        coef = np.linalg.solve(gram[regular], rhs[regular][..., None])
        vals[fit[regular]] = coef[:, 0, 0] * scale[regular, 0]


class KernelEstimate(LocalPolyEstimate):
    """Epanechnikov kernel regression: the local polynomial of degree 0,
    whose solve is sum w y / sum w."""

    method = "kernel"

    def __init__(self, data: LabeledDataset, h: float):
        super().__init__(data, 0, h)

    @property
    def hyperparameters(self) -> dict:
        return {"h": self.h}


class _AnchoredPrefix:
    """Window moments in one dimension by one sorted sweep.  Anchors
    a = x_0 + 2hk, at each k with a point within 2h, keep prefix sums of v^j
    and v^j y, v = (x - a)/h, over their points within about 2h.  A query's
    sums of z^j = (v + s)^j, s = (a - t)/h, expand from its nearest anchor's
    with |v| < 2 and |s| <= 1 on any span: re-centred locally (Seifert,
    Brockmann, Engel & Gasser 1994).  Over ascending queries a window changes
    only where a point enters or leaves it (Fan & Marron 1994), and where few
    do, queries share their window's sums."""

    def __init__(self, data: LabeledDataset, h: float, degree: int):
        order = np.argsort(data.points[:, 0])
        x, y = data.points[order, 0], data.labels[order]
        self.x, self.h, self.degree = x, h, degree
        k = np.floor((x - x[0]) / (2.0 * h))
        k = k[np.r_[True, k[1:] != k[:-1]]]
        k = np.union1d(k, k + 1)
        # Query t has anchor #(cells <= t), and its window lies in the
        # anchor's points [first, last): t -+ h rounds monotonically in t.
        self.cells = x[0] + h * (k[:-1] + k[1:])
        first = np.searchsorted(x, np.r_[-np.inf, self.cells - h], "right")
        last = np.searchsorted(x, np.r_[self.cells + h, np.inf], "left")
        size = last - first + 1  # each anchor's block opens with a 0
        # the most points in one block, and the largest |x|: ``certify``'s bound
        self.block = int(size.max()) - 1
        self.extent = max(abs(x[0]), abs(x[-1]))
        start = np.cumsum(size) - size
        self.shift = start - first
        point = np.repeat(self.shift + 1, size)
        np.subtract(np.arange(point.size), point, out=point)
        self.anchor_at = np.repeat(x[0] + (2.0 * h) * k, size)
        # sums of v^1 .. v^(2p+2), of y v^0 .. y v^(p+2) and, from degree 1
        # on, of a 1 at the first of equal points; a window's count is hi - lo
        self.cums = cums = np.empty((3 * degree + 5 + (degree > 0), point.size))
        v = np.take(x, point, out=cums[0], mode="clip")
        v -= self.anchor_at
        v /= h
        for j in range(1, 2 * degree + 2):
            np.multiply(cums[j - 1], v, out=cums[j])
        ys = np.take(y, point, out=cums[2 * degree + 2], mode="clip")
        for j in range(1, degree + 3):
            np.multiply(ys, cums[j - 1], out=cums[2 * degree + 2 + j])
        if degree:
            cums[-1] = np.r_[True, x[1:] != x[:-1]][point]
        cums[:, start] = 0.0
        for s, e in zip(start, start + size):
            np.cumsum(cums[:, s:e], axis=1, out=cums[:, s:e])

    def _regime(self, t: np.ndarray) -> str:
        """How ``_runs`` places ascending ``t``, from the window and cell
        edges that lie between its first and last query: "search", a binary
        search per query, where more edges than queries lie there; "runs",
        one range per run of queries between two edges, where the runs are
        long; else "steps", a running count per query."""
        ends = t[[0, -1]]
        passed = sum(int(np.diff(np.searchsorted(values, edges, side))[0])
                     for values, edges, side in ((self.x, ends - self.h, "right"),
                                                 (self.x, ends + self.h, "left"),
                                                 (self.cells, ends, "right")))
        if passed > t.size:
            # as for the spread-out middle queries of ``certify``: a binary
            # search per query measured 3.5x faster there at n = 64 000,
            # placing the points among the queries 1.4x faster for dense queries
            return "search"
        # per-run sums measured faster above about 11 queries per run (on the
        # N = n rate curve, 1.6x at n = 250, and per-query 2.2x at n = 64 000)
        return "runs" if 8 * (passed + 1) < t.size else "steps"

    def _runs(self, t: np.ndarray):
        """Over ascending ``t``: ranges [lo, hi) into ``cums`` of the points
        with |t - x_i| < h, in the query's anchor's sums; one per run and the
        run lengths in the regime "runs", else one per query and None."""
        regime = self._regime(t)
        if regime == "search":
            shift = self.shift[np.searchsorted(self.cells, t, "right")]
            return (np.searchsorted(self.x, t - self.h, "right") + shift,
                    np.searchsorted(self.x, t + self.h, "left") + shift, None)
        lo0, enter = _placed(self.x, t, -self.h, "right")
        hi0, leave = _placed(self.x, t, self.h, "left")
        k0, switch = _placed(self.cells, t, 0.0, "right")
        m = t.size
        if regime == "runs":
            starts = _distinct(([0], enter, leave, switch))
            shift = self.shift[k0 + np.searchsorted(switch, starts, "right")]
            return (lo0 + np.searchsorted(enter, starts, "right") + shift,
                    hi0 + np.searchsorted(leave, starts, "right") + shift,
                    np.diff(starts, append=m))
        ranges = []
        for first, placed in ((lo0, enter), (hi0, leave)):
            steps = np.bincount(placed, minlength=m)
            # a query past a cell edge moves on to the next anchor's sums
            np.add.at(steps, switch, np.diff(self.shift[k0:k0 + switch.size + 1]))
            steps[0] += first + self.shift[k0]
            ranges.append(np.cumsum(steps, out=steps))
        return (*ranges, None)

    def certify(self, t: np.ndarray, theta: float, first: np.ndarray,
                last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Over ascending ``t``, for degree 0 and 0 <= theta < 1: per span
        t[first_i], .., t[last_i] (first_i <= last_i), the bit that
        ``evaluate(t) > theta`` gives every query of the span, and whether
        that is certified; an uncertified span is still to be evaluated.
        Nothing below depends on the length of a span, so one proof covers
        spans of any length.

        Each span t_0 <= .. <= t_e is decided by its middle query m.  Write
        D = sum w and N = sum w y for the exact sums over |x_i - t| < h,
        q = N - theta D, z_i = (x_i - m)/h and L = max(m - t_0, t_e - m).
        Each weight w = 1 - ((x - t)/h)^2, 0 outside the window, is
        continuous with |dw/dt| <= (2/h) min(1, |z_i| + L/h) on the span,
        and |y - theta| <= r = max(theta, 1 - theta).  Only the c points
        within h of [t_0, t_e] (counted with a slack below 2^-13 h above
        every rounding of t -+ h) have a weight on the span, so D and q/r
        stay within lip = (2L/h) min(c, sum_c (|z_i| + L/h)) of their
        values at m.  Of those points, the k in the window of m have
        sum |z_i| <= sqrt(k sum z_i^2) = sqrt(k (k - D_W(m)))
        (Cauchy-Schwarz), and the others |z_i| <= 1 + L/h + 2^-10.

        The sweep computes D^ and N^ within delta of D and N at any query
        of the span.  Let u = 2^-53, B the most points of one anchor's
        block (B u < 2^-20: B below 8e9) and T = max(|t_0|, |t_e|), and
        require T and every |x_i| to be at most 2^26 h, so that all
        roundings of positions are below 2^-26 h: then |v| <= 2.01 over a
        block and |s| <= 1.01 for any query whose window is not empty (an
        empty one sums to exactly 0).  To first order in u, with slack for
        the second:
          - the terms v^ = (x - a)/h and v^2 are within 2.01 u |v| and
            21 u of v and v^2, and y times them is exact;
          - a sequential prefix sum of r <= B terms of size <= 4.1 adds
            at most u sum_k 4.1 (k + 1) <= u (2.1 B^2 + 6.2 B) of rounding,
            plus 21 u B from the terms; the window's sums of v and v^2 (and
            of y v, y v^2) are a difference of two prefixes, rounded once:
            E_S <= u (4.2 B^2 + 59 B); the counts of points and of y = 1
            are exact integers;
          - Horner's (count s + 2 S_1) s + S_2 = sum z^2 carries
            (2 |s| + 1) E_S from its inputs, u (1.01 + 5.03 + 5.09 + 9.2) B
            from its four roundings, and 2 |sum z| 2.03 u <= 4.1 u B from
            s^ = (a - t)/h; count - sum z^2 rounds once more (1.01 u B):
            |D^ - D_W| <= u (12.7 B^2 + 204 B) <= 16 u (B + 8)^2, and
            likewise for N^, where D_W and N_W sum the exact weights over
            the window the sweep places;
          - that window is {x : fl(t - h) < x < fl(t + h)}, and fl(t -+ h)
            is within u (T + h) of t -+ h, so a point it places on the
            wrong side has |1 - z^2| <= 2.01 u (T/h + 1); at most c do;
          - a window whose D^ is at most _PREFIX_FLOOR = 1e-12 takes 1-NN.
        So delta = u (16 (B + 8)^2 + 4 c (T/h + 1)).

        Over the span, N^ - theta D^ is then within r lip + 4 delta of its
        value at m, which rounds to q^(m) within 3 u (c + delta), and D^
        is within lip + 2 delta of D^(m).  Let e = 5 delta + 8 u (c + 1).
        Where |q^(m)| > r lip + e and D^(m) > lip + e + 1e-12, each bound
        grown by 64 u for its own roundings, every query of the span has
        D^ > 1e-12 and N^ - theta D^ of the sign of q^(m), at least
        u (c + delta) >= u N^ away from 0.  A negative sign gives
        N^/D^ < theta, which rounds to at most theta; a positive one gives
        N^/D^ > theta (1 + u), which rounds above theta; clipping to [0, 1]
        keeps either side of a theta in [0, 1).  The span takes that sign.
        """
        h, x = self.h, self.x
        lo, hi = t[first], t[last]
        mid = t[(first + last) // 2]
        top = np.maximum(np.abs(lo), np.abs(hi))
        reach = np.maximum(mid - lo, hi - mid) / h
        slack = 2.0 ** -40 * (top + h)
        c = (np.searchsorted(x, hi + h + slack, "right")
             - np.searchsorted(x, lo - h - slack, "left"))
        k = np.searchsorted(x, mid + h, "left") - np.searchsorted(x, mid - h, "right")
        den, num = self.moments(mid)
        delta = _U * (16.0 * (self.block + 8) ** 2 + 4.0 * c * (top / h + 1.0))
        spread = np.sqrt(k * np.maximum(k - den + delta, 0.0)) \
            + (c - k) * (1.0 + reach + 2.0 ** -10) + c * reach
        lip = 2.0 * reach * np.minimum(c, spread)
        e = 5.0 * delta + 8.0 * _U * (c + 1)
        grow = 1.0 + 64.0 * _U
        q = num - theta * den
        sure = (np.abs(q) > (max(theta, 1.0 - theta) * lip + e) * grow) \
            & (den > (lip + e) * grow + _PREFIX_FLOOR) \
            & (np.maximum(top, self.extent) <= 2.0 ** 26 * h)
        return q > 0.0, sure

    def block_moments(self, t: np.ndarray, size: int):
        """``moments`` of each block t[i:i + size], i = 0, size, .., of ascending
        ``t``, in turn and with the same bits.  A ``t`` longer than one block that
        ``_runs`` places in its regime "runs" is placed once, and its runs are cut
        at the block edges: a query's sums are the same whatever run gives them,
        and the temporaries stay those of one block."""
        m = t.size
        blocks = np.arange(0, m, size)
        if m <= size or self._regime(t) != "runs":
            for start in blocks:
                yield self.moments(t[start:start + size])
            return
        lo, hi, lengths = self._runs(t)
        starts = np.cumsum(lengths) - lengths
        cut = _distinct((starts, blocks))  # pieces of runs, each within a block
        run = np.searchsorted(starts, cut, "right") - 1
        lo, hi, lengths = lo[run], hi[run], np.diff(cut, append=m)
        first = np.searchsorted(cut, blocks)
        for start, a, b in zip(blocks, first, [*first[1:], cut.size]):
            yield self.moments(t[start:start + size], (lo[a:b], hi[a:b], lengths[a:b]))

    def moments(self, t: np.ndarray, ranges: tuple | None = None) -> np.ndarray:
        """Per query of ascending ``t``, in rows: sum w z^j, j <= 2p, sum w z^j y,
        j <= p, and from degree 1 on, the number of distinct points in the window;
        from t's ``ranges`` of ``_runs`` where they are known."""
        lo, hi, lengths = self._runs(t) if ranges is None else ranges
        p = self.degree
        out = np.empty((len(self.cums) - 3, t.size))
        sums = np.take(self.cums, hi, axis=1)
        sums -= np.take(self.cums, lo, axis=1)
        count = (hi - lo).astype(float)
        s = self.anchor_at[lo]
        if lengths is not None:
            # each query of a run takes the run's sums
            sums, count, s = (np.repeat(v, lengths, axis=-1) for v in (sums, count, s))
        s -= t
        s /= self.h
        # w z^j = z^j - z^(j+2); z^1 enters only from degree 1 on
        for rows, raw in ((out[:2 * p + 1], [count, *sums[:2 * p + 2]]),
                          (out[2 * p + 1:3 * p + 2], sums[2 * p + 2:])):
            z = {j: _expand(raw, s, j) for j in range(len(rows) + 2) if p or j != 1}
            for j, row in enumerate(rows):
                np.subtract(z[j], z[j + 2], out=row)
        if p:
            out[-1] = sums[-1]
        return out


_ESTIMATORS = {"knn": KNNEstimate, "kernel": KernelEstimate,
               "local_poly": LocalPolyEstimate}
# each method's constructor arguments after the data: the keys of its
# ``hyperparameters`` and the estimator keys a config may set
_HYPERPARAMETERS = {"knn": ("k",), "kernel": ("h",), "local_poly": ("degree", "h")}


def fit_from_config(data: LabeledDataset,
                    config: dict) -> KNNEstimate | KernelEstimate | LocalPolyEstimate:
    """Dispatch on ``config['method']`` (default ``'kernel'``); the remaining
    keys are hyperparameters.

    This is the one place that fills in rate-matched defaults: missing
    bandwidths h = n^{-1/(2 beta + d)}, neighbour counts
    k = ceil(n^{2 beta/(2 beta + d)}) and degrees floor(beta), for the
    smoothness in ``config['beta']`` (1.0 if absent).  Any other key raises
    a ValueError.
    """
    cfg = dict(config)
    method = cfg.pop("method", "kernel")
    if not (isinstance(method, str) and method in _ESTIMATORS):
        raise ValueError(f"unknown estimator method {method!r}")
    keys = _HYPERPARAMETERS[method]
    if not set(cfg) <= {"beta", *keys}:
        raise ValueError(f"estimator keys must be method or beta or {' or '.join(keys)} "
                         f"for method {method}, got {config!r}")
    spec = SmoothnessSpec(beta=cfg.pop("beta", 1.0))
    scale = default_bandwidth(data.n, spec, data.d)
    if method == "knn":
        cfg.setdefault("k", min(data.n, max(1, int(np.ceil(scale.a_n)))))
    else:
        cfg.setdefault("h", scale.h)
    if method == "local_poly":
        cfg.setdefault("degree", int(np.floor(spec.beta)))
    return _ESTIMATORS[method](data, **cfg)
