"""Nonparametric regression estimators for eta(x) = P(Y=1 | X=x).

Three fitters are provided: k-nearest-neighbor, locally constant kernel
smoothing (Epanechnikov or Gaussian) and local polynomial fitting.  All
outputs are clipped to [0, 1].  ``default_bandwidth`` gives the rate-matched
bandwidth h = n^{-1/(2 beta + d)} and the companion concentration rate
a_n = n^{2 beta / (2 beta + d)}.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .discrete import require_finite

_CHUNK = 512  # queries per pairwise-distance block
_PREFIX_CHUNK = 65_536  # queries per block of the 1-d Epanechnikov fast path


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) in {0, 1}

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        labels = np.asarray(self.labels, dtype=float).ravel()
        if points.shape[0] != labels.size or labels.size == 0:
            raise ValueError("points and labels must be nonempty and equal length")
        require_finite(points, "labeled dataset")
        if np.any((labels != 0) & (labels != 1)):
            raise ValueError("labels must be binary")
        points.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{i + 1}" for i in range(self.d)] + ["y"])
            for x, y in zip(self.points, self.labels):
                writer.writerow([repr(float(v)) for v in x] + [repr(int(y))])

    @classmethod
    def from_csv(cls, path) -> "LabeledDataset":
        with open(path, newline="") as fh:
            return cls._read_csv(fh)

    @classmethod
    def from_csv_string(cls, text: str) -> "LabeledDataset":
        return cls._read_csv(io.StringIO(text))

    @classmethod
    def _read_csv(cls, fh):
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "y":
            raise ValueError("expected trailing column 'y'")
        d = len(header) - 1
        rows = [list(map(float, row)) for row in reader if row]
        arr = np.asarray(rows, dtype=float)
        return cls(points=arr[:, :d], labels=arr[:, d])


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


class RegressionEstimate:
    """Fitted map x -> [0, 1]; immutable after construction."""

    method: str

    def evaluate(self, x) -> np.ndarray:
        """Evaluate at an (m, d) batch (or a single d-vector); returns (m,)."""
        raise NotImplementedError

    def __call__(self, x):
        return self.evaluate(x)

    @property
    def hyperparameters(self) -> dict:
        raise NotImplementedError


def _as_batch(x, d: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != d:
        raise ValueError(f"query dimension {arr.shape[1]} != fitted dimension {d}")
    require_finite(arr, "query points")
    return arr, single


class KNNEstimate(RegressionEstimate):
    method = "knn"

    def __init__(self, data: LabeledDataset, k: int):
        if not (1 <= k <= data.n):
            raise ValueError(f"k must be in [1, {data.n}], got {k}")
        self._data = data
        self.k = int(k)

    @property
    def hyperparameters(self) -> dict:
        return {"k": self.k}

    def evaluate(self, x) -> np.ndarray:
        queries, single = _as_batch(x, self._data.d)
        pts = self._data.points
        labels = self._data.labels
        out = np.empty(queries.shape[0])
        for start in range(0, queries.shape[0], _CHUNK):
            block = queries[start:start + _CHUNK]
            d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            # Stable argsort: distance ties resolved by lowest index.
            idx = np.argsort(d2, axis=1, kind="stable")[:, :self.k]
            out[start:start + block.shape[0]] = labels[idx].mean(axis=1)
        out = np.clip(out, 0.0, 1.0)
        return out[0] if single else out


def _epanechnikov(u2: np.ndarray) -> np.ndarray:
    return np.clip(1.0 - u2, 0.0, None)


class KernelEstimate(RegressionEstimate):
    method = "kernel"

    def __init__(self, data: LabeledDataset, h: float, kernel: str = "epanechnikov"):
        if h <= 0:
            raise ValueError("bandwidth h must be positive")
        if kernel not in ("epanechnikov", "gaussian"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self._data = data
        self.h = float(h)
        self.kernel = kernel
        if data.d == 1 and kernel == "epanechnikov":
            order = np.argsort(data.points[:, 0], kind="stable")
            x = data.points[order, 0]
            y = data.labels[order]
            self._fast = _EpanechnikovPrefix(x, y)
        else:
            self._fast = None

    @property
    def hyperparameters(self) -> dict:
        return {"h": self.h, "kernel": self.kernel}

    def _nearest_label(self, block: np.ndarray) -> np.ndarray:
        pts = self._data.points
        d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        idx = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
        return self._data.labels[idx]

    def evaluate(self, x) -> np.ndarray:
        queries, single = _as_batch(x, self._data.d)
        if self._fast is not None:
            # Fixed blocks bound the temporaries of the prefix-sum evaluation
            # whatever the number of queries.
            t = queries[:, 0]
            out = np.empty(t.size)
            for start in range(0, t.size, _PREFIX_CHUNK):
                stop = start + _PREFIX_CHUNK
                out[start:stop] = self._fast.evaluate(t[start:stop], self.h)
        else:
            out = np.empty(queries.shape[0])
            pts = self._data.points
            labels = self._data.labels
            h2 = self.h * self.h
            for start in range(0, queries.shape[0], _CHUNK):
                block = queries[start:start + _CHUNK]
                d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
                if self.kernel == "epanechnikov":
                    w = _epanechnikov(d2 / h2)
                else:
                    w = np.exp(-0.5 * d2 / h2)
                den = w.sum(axis=1)
                num = w @ labels
                vals = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
                empty = den <= 0
                if np.any(empty):
                    vals[empty] = self._nearest_label(block[empty])
                out[start:start + block.shape[0]] = vals
        np.clip(out, 0.0, 1.0, out=out)
        return out[0] if single else out


class _EpanechnikovPrefix:
    """O(log n) per query Epanechnikov smoothing in one dimension.

    For w_i = 1 - ((t - x_i)/h)^2 over |t - x_i| < h, both the weighted label
    sum and the weight sum expand into window sums of y, u*y and u^2*y, all
    available from prefix sums, where u = x - c is taken from the midpoint c
    of the data range: far from 0 the terms of the uncentered expansion
    cancel.
    """

    def __init__(self, x_sorted: np.ndarray, y_sorted: np.ndarray):
        self.x = x_sorted
        self.y = y_sorted
        self.center = 0.5 * (x_sorted[0] + x_sorted[-1])
        u = x_sorted - self.center
        z = np.zeros(1)
        self.cum_y = np.concatenate([z, np.cumsum(y_sorted)])
        self.cum_uy = np.concatenate([z, np.cumsum(u * y_sorted)])
        self.cum_u2y = np.concatenate([z, np.cumsum(u ** 2 * y_sorted)])
        self.cum_1 = np.concatenate([z, np.cumsum(np.ones_like(u))])
        self.cum_u = np.concatenate([z, np.cumsum(u)])
        self.cum_u2 = np.concatenate([z, np.cumsum(u ** 2)])

    def _window(self, cum, lo, hi):
        return cum[hi] - cum[lo]

    def _windows(self, t: np.ndarray, h: float):
        """Index range [lo, hi) of the points with |t - x_i| < h, per query."""
        if np.all(t[1:] >= t[:-1]):
            # Ascending queries: place the n points among the queries and
            # count, which is cheaper than a binary search per query.
            m = t.size
            first_past = np.searchsorted(t - h, self.x, side="left")
            first_within = np.searchsorted(t + h, self.x, side="right")
            return (np.cumsum(np.bincount(first_past, minlength=m + 1)[:m]),
                    np.cumsum(np.bincount(first_within, minlength=m + 1)[:m]))
        return (np.searchsorted(self.x, t - h, side="right"),
                np.searchsorted(self.x, t + h, side="left"))

    def evaluate(self, t: np.ndarray, h: float) -> np.ndarray:
        lo, hi = self._windows(t, h)
        h2 = h * h
        tc = t - self.center
        s_y = self._window(self.cum_y, lo, hi)
        s_uy = self._window(self.cum_uy, lo, hi)
        s_u2y = self._window(self.cum_u2y, lo, hi)
        s_1 = self._window(self.cum_1, lo, hi)
        s_u = self._window(self.cum_u, lo, hi)
        s_u2 = self._window(self.cum_u2, lo, hi)
        num = s_y - (tc * tc * s_y - 2.0 * tc * s_uy + s_u2y) / h2
        den = s_1 - (tc * tc * s_1 - 2.0 * tc * s_u + s_u2) / h2
        ok = den > 1e-12
        vals = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
        if not np.all(ok):
            # Empty (or numerically empty) window: 1-NN fallback.
            bad = ~ok
            pos = np.searchsorted(self.x, t[bad])
            left = np.clip(pos - 1, 0, self.x.size - 1)
            right = np.clip(pos, 0, self.x.size - 1)
            take_left = np.abs(t[bad] - self.x[left]) <= np.abs(self.x[right] - t[bad])
            vals[bad] = np.where(take_left, self.y[left], self.y[right])
        return vals


class LocalPolyEstimate(RegressionEstimate):
    method = "local_poly"

    def __init__(self, data: LabeledDataset, degree: int, h: float):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if h <= 0:
            raise ValueError("bandwidth h must be positive")
        self._data = data
        self.degree = int(degree)
        self.h = float(h)
        self._fallback = KernelEstimate(data, h, kernel="epanechnikov")

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
        out = np.empty(queries.shape[0])
        for i, q in enumerate(queries):
            d2 = ((pts - q) ** 2).sum(axis=1)
            in_window = d2 < self.h * self.h
            n_local = int(in_window.sum())
            w = _epanechnikov(d2[in_window] / (self.h * self.h))
            design = self._design((pts[in_window] - q) / self.h)
            if n_local < design.shape[1]:
                out[i] = self._fallback.evaluate(q)
                continue
            sw = np.sqrt(w)
            a = design * sw[:, None]
            b = labels[in_window] * sw
            coef, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
            if rank < design.shape[1]:
                out[i] = self._fallback.evaluate(q)
            else:
                out[i] = coef[0]
        out = np.clip(out, 0.0, 1.0)
        return out[0] if single else out


def fit_knn(data: LabeledDataset, k: int) -> KNNEstimate:
    """Mean label of the k nearest points (Euclidean; ties -> lowest index)."""
    return KNNEstimate(data, k)


def fit_kernel(data: LabeledDataset, h: float, kernel: str = "epanechnikov") -> KernelEstimate:
    """Locally constant kernel regression; empty windows fall back to 1-NN."""
    return KernelEstimate(data, h, kernel)


def fit_local_poly(data: LabeledDataset, degree: int, h: float) -> LocalPolyEstimate:
    """Locally weighted polynomial fit with Epanechnikov weights in a radius-h
    window; singular or underdetermined local designs fall back to the
    locally constant kernel value."""
    return LocalPolyEstimate(data, degree, h)


ESTIMATOR_METHODS = ("knn", "kernel", "local_poly")


def fit_from_config(data: LabeledDataset, config: dict) -> RegressionEstimate:
    """Dispatch on ``config['method']``; remaining keys are hyperparameters.

    Missing bandwidth/neighbor counts default to the rate-matched values for
    the smoothness in ``config['beta']`` (1.0 if absent).
    """
    cfg = dict(config)
    method = cfg.pop("method")
    spec = SmoothnessSpec(beta=float(cfg.pop("beta", 1.0)))
    scale = default_bandwidth(data.n, spec, data.d)
    if method in ("kernel", "local_poly"):
        cfg.setdefault("h", scale.h)
    if method == "knn":
        cfg.setdefault("k", min(data.n, max(1, int(np.ceil(scale.a_n)))))
    if method == "local_poly":
        cfg.setdefault("degree", int(np.floor(spec.beta)))
    if method == "knn":
        return fit_knn(data, **cfg)
    if method == "kernel":
        return fit_kernel(data, **cfg)
    if method == "local_poly":
        return fit_local_poly(data, **cfg)
    raise ValueError(f"unknown estimator method {method!r}")
