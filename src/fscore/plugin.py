"""End-to-end semi-supervised plug-in procedure.

Two steps: fit eta_hat on the labeled sample, then calibrate theta_hat on the
unlabeled sample by solving the empirical threshold equation.  Predictions
use the strict rule 1{eta_hat(x) > theta_hat}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Carry, solve_threshold
from .discrete import FBetaParams, frozen_array
from .estimators import (_HYPERPARAMETERS, KernelEstimate, KNNEstimate,
                         LabeledDataset, LocalPolyEstimate, _real, fit_from_config)
from .table import read_table, write_table
from .threshold import ScoreSample, empirical_threshold

_DRAW_CHUNK = 1 << 18  # unlabeled points scored per block
_PILOT = 1 << 18  # N above which theta_hat is solved on a band of the scores
_BAND_P = 1e-12  # DKW failure probability behind the band's half-width


class TrainingDegenerate(ValueError):
    """Raised when every training label is 0: the empirical threshold
    equation is vacuous and the fit would be meaningless."""


@dataclass(frozen=True)
class UnlabeledDataset:
    points: np.ndarray  # (N, d); may be empty

    def __post_init__(self):
        points = self.points
        if np.size(points) == 0:
            points = np.empty((0, np.shape(points)[1] if np.ndim(points) == 2 else 1))
        points = frozen_array(points, 2, "unlabeled dataset")
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def blocks(self, size: int):
        """The rows in k = ceil(n / size) interleaved views ``points[i::k]``
        of at most ``size`` rows each.  Every block is a systematic sample of
        the rows, so the leading scores are not those of the first rows of a
        sorted file, and for ascending rows every block ascends."""
        k = -(-self.n // size)
        for i in range(k):
            yield self.points[i::k]

    @classmethod
    def from_csv(cls, path) -> "UnlabeledDataset":
        return cls(points=read_table(path)[1])

    def to_csv(self, path) -> None:
        write_table(path, [f"x_{i + 1}" for i in range(self.d)], self.points.T)


@dataclass(frozen=True)
class PluginClassifier:
    eta_hat: KNNEstimate | KernelEstimate | LocalPolyEstimate
    theta_hat: float
    params: FBetaParams
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        # a model file may carry any JSON value here
        _real(self.theta_hat, "theta_hat")
        cap = self.params.score_cap
        if not (0.0 <= self.theta_hat <= cap + 1e-12):
            raise ValueError(f"theta_hat {self.theta_hat!r} outside [0, {cap!r}]")

    def predict(self, x) -> np.ndarray | int:
        """Strict thresholding: 1{eta_hat(x) > theta_hat}, from
        ``eta_hat.exceeds``."""
        bits = self.eta_hat.exceeds(x, self.theta_hat)
        return int(bits) if np.ndim(bits) == 0 else bits.astype(np.int64)

    def save(self, prefix: str) -> None:
        """Write ``<prefix>.json`` (method, hyperparameters, threshold,
        provenance) and ``<prefix>_data.csv`` (the stored fitting sample)."""
        record = {
            "method": self.eta_hat.method,
            "hyperparameters": self.eta_hat.hyperparameters,
            "theta_hat": self.theta_hat,
            "b": self.params.b,
            "provenance": self.provenance,
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.eta_hat._data.to_csv(f"{prefix}_data.csv")

    @classmethod
    def load(cls, prefix: str) -> "PluginClassifier":
        """The classifier that ``save`` wrote to ``prefix``, as written: the
        record must be a JSON object with method, hyperparameters, theta_hat
        and b, and its hyperparameters exactly those of its method, so the
        rate-matched defaults fill nothing in.  Otherwise, and for any value
        or data row that the classifier does not take, a ValueError names
        the file and the field."""
        path = f"{prefix}.json"
        with open(path) as fh:
            record = json.load(fh)
        if not isinstance(record, dict):
            raise ValueError(f"{path}: a model file must hold a JSON object, "
                             f"got {type(record).__name__}")
        for key in ("method", "hyperparameters", "theta_hat", "b"):
            if key not in record:
                raise ValueError(f"{path}: the model record has no {key}")
        method, hyper = record["method"], record["hyperparameters"]
        if not (isinstance(method, str) and method in _HYPERPARAMETERS):
            raise ValueError(f"{path}: method must be one of "
                             f"{', '.join(_HYPERPARAMETERS)}, got {method!r}")
        keys = _HYPERPARAMETERS[method]
        if not (isinstance(hyper, dict) and sorted(hyper) == sorted(keys)):
            raise ValueError(f"{path}: hyperparameters of method {method} must "
                             f"hold exactly {' and '.join(keys)}, got {hyper!r}")
        try:
            data = LabeledDataset.from_csv(f"{prefix}_data.csv")
            eta_hat = fit_from_config(data, {"method": method, **hyper})
            # b is the one parameter read; older files carry a second key,
            # which never changed a prediction
            params = FBetaParams(b=record["b"])
            return cls(eta_hat=eta_hat, theta_hat=record["theta_hat"], params=params,
                       provenance=record.get("provenance", {}))
        except ValueError as exc:
            # the checks that build the classifier name the field; the file
            # that holds it is named here
            raise ValueError(f"{path}: {exc}") from exc


def train_plugin(labeled: LabeledDataset, unlabeled, estimator_config: dict,
                 params: FBetaParams = FBetaParams()) -> PluginClassifier:
    """Fit eta_hat on the n labeled points, calibrate theta_hat on exactly the
    N unlabeled points (never on the labeled ones, which eta_hat was fitted
    on) and assemble the classifier with provenance.

    ``unlabeled`` is an ``UnlabeledDataset`` or any object with ``n``, ``d``
    and ``blocks(size)``, which yields the N points as (m, d) arrays of at
    most ``size`` rows.  The points are scored one block of ``_DRAW_CHUNK``
    at a time.  Up to N = ``_PILOT`` every score is kept and solved for the
    exact root.  Above it one pass keeps only a band of the scores around
    the root of the first block's (``_band_threshold``).  When the root of
    all N scores is not inside that band, ``blocks`` is iterated once more
    and every score is kept, so every call must yield the same points."""
    if float(labeled.labels.sum()) == 0.0:
        raise TrainingDegenerate("all training labels are 0; P_hat(Y=1)=0 "
                                 "makes the threshold equation vacuous")
    if unlabeled.n == 0:
        raise ValueError("unlabeled dataset is empty; theta_hat needs at least "
                         "one unlabeled point")
    if unlabeled.d != labeled.d:
        raise ValueError("labeled/unlabeled dimension mismatch")
    eta_hat = fit_from_config(labeled, estimator_config)
    theta_hat = _band_threshold(eta_hat, unlabeled, params) \
        if unlabeled.n > _PILOT else None
    if theta_hat is None:
        theta_hat = _whole_threshold(eta_hat, unlabeled, params)
    provenance = {
        "n": labeled.n,
        "N": unlabeled.n,
        "estimator": {"method": eta_hat.method, **eta_hat.hyperparameters},
        "b": params.b,
    }
    return PluginClassifier(eta_hat=eta_hat, theta_hat=theta_hat, params=params,
                            provenance=provenance)


def _scored_blocks(eta_hat, unlabeled):
    """The scores of the unlabeled points, one block at a time; a ValueError
    as soon as the blocks hold more than n points, or fewer when they end."""
    seen = 0
    for block in unlabeled.blocks(_DRAW_CHUNK):
        seen += block.shape[0]
        if seen > unlabeled.n:
            raise ValueError(f"unlabeled blocks hold more than {unlabeled.n} points")
        yield eta_hat.evaluate(block)
    if seen != unlabeled.n:
        raise ValueError(f"unlabeled blocks hold {seen} points, expected {unlabeled.n}")


def _whole_threshold(eta_hat, unlabeled, params: FBetaParams) -> float:
    """The exact root over all N scores, held in one array."""
    scores = np.empty(unlabeled.n)
    filled = 0
    for part in _scored_blocks(eta_hat, unlabeled):
        scores[filled:filled + part.size] = part
        filled += part.size
    # theta_hat depends only on the multiset of scores: sorted in place and
    # frozen, they are held by ScoreSample and solved without another copy
    scores.sort()
    scores.setflags(write=False)
    return empirical_threshold(ScoreSample(values=scores), params)


def _band_halfwidth(pilot: np.ndarray, theta: float, b2: float) -> float:
    """Half-width delta of a band around the root ``theta`` of the m pilot
    scores that holds the root of the whole sample unless an event of
    probability below _BAND_P occurs (or the pilot is not a fair sample of
    the scores, which the solve then finds out).

    By DKW with Massart's constant, the empirical CDFs of the pilot and of
    the whole sample each lie within eps = sqrt(ln(2/p) / (2m)) of the
    scores' CDF, so the two threshold equations, per score, differ by at
    most 2 eps max(1, b^2); the pilot's equation rises with slope
    b^2 mean + (share of scores above theta) at its root."""
    eps = math.sqrt(math.log(2.0 / _BAND_P) / (2.0 * pilot.size))
    slope = b2 * float(pilot.mean()) + np.count_nonzero(pilot > theta) / pilot.size
    return 2.0 * eps * max(1.0, b2) / slope if slope > 0.0 else math.inf


def _band_room(pilot: np.ndarray, lo: float, hi: float, n: int) -> int:
    """Room for the scores of n in the band [lo, hi] and the one score that
    closes it: the pilot's share of scores in the band, plus eight of that
    share's binomial standard errors, of n."""
    share = np.count_nonzero((pilot >= lo) & (pilot <= hi)) / pilot.size
    share += 8.0 * math.sqrt(share / pilot.size)
    return min(n, math.ceil(share * n)) + 1


def _band_threshold(eta_hat, unlabeled, params: FBetaParams) -> float | None:
    """The root over all N scores from one pass.  The first block is the
    pilot: its exact root theta places the band theta +- delta
    (``_band_halfwidth``).  Of every block the pass keeps the scores inside
    the band; of the others, the largest below the band, the least above it
    and the count and sum above it; of all, the sum.  That is the carry
    ``solve_threshold`` takes.  Every block's scores are checked as
    ``ScoreSample`` checks them.  The band is filled into one buffer sized
    by ``_band_room`` and grown only when a block outgrows it, so it is held
    once.  None when the root of the whole sample
    is not in the band (nor in the gaps just outside)."""
    above = filled = 0
    total = above_sum = floor = 0.0
    ceiling = math.inf
    band = lo = hi = None
    for scores in _scored_blocks(eta_hat, unlabeled):
        scores.setflags(write=False)  # so ScoreSample checks it without a copy
        scores = ScoreSample(values=scores).values
        if hi is None:
            pilot = np.sort(scores)
            theta = solve_threshold(pilot, b=params.b)
            delta = _band_halfwidth(pilot, theta, params.b2)
            lo, hi = theta - delta, theta + delta
            band = np.empty(_band_room(pilot, lo, hi, unlabeled.n))
            del pilot
        total += float(scores.sum())
        high, low = scores > hi, scores < lo
        above += int(np.count_nonzero(high))
        above_sum += float(np.sum(scores, where=high))
        ceiling = float(np.min(scores, where=high, initial=ceiling))
        floor = float(np.max(scores, where=low, initial=floor))
        part = scores[~(high | low)]
        if filled + part.size + 1 > band.size:
            # a block outgrew the estimate: grow by half, never past N + 1
            grown = np.empty(min(unlabeled.n + 1, max(filled + part.size + 1,
                                                      band.size + band.size // 2)))
            grown[:filled] = band[:filled]
            band = grown
        band[filled:filled + part.size] = part
        filled += part.size
        # released before the next block is drawn and scored, so that the
        # loop holds one block's scores at a time
        del scores, high, low, part
    if above:
        # one copy of the least score above the band closes the run, so the
        # run is never empty and its top segment is bounded by its own value
        band[filled] = ceiling
        filled += 1
        above -= 1
        above_sum -= ceiling
    band = band[:filled]
    band.sort()
    band.setflags(write=False)
    carry = Carry(floor=floor, above=above, above_sum=above_sum,
                  count=unlabeled.n, total=total)
    return empirical_threshold(ScoreSample(values=band), params, carry)


def predictions_to_csv(path, points: np.ndarray, bits: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    write_table(path, [f"x_{i + 1}" for i in range(points.shape[1])] + ["prediction"],
                [*points.T, np.asarray(bits).ravel().astype(np.int64)])
