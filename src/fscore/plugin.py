"""End-to-end semi-supervised plug-in procedure.

Two steps: fit eta_hat on the labeled sample, then calibrate theta_hat on the
unlabeled sample by solving the empirical threshold equation.  Predictions
use the strict rule 1{eta_hat(x) > theta_hat}.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .discrete import FBetaParams, frozen_array
from .estimators import (KernelEstimate, KNNEstimate, LabeledDataset,
                         LocalPolyEstimate, fit_from_config)
from .table import read_table, write_table
from .threshold import ScoreSample, empirical_threshold

_DRAW_CHUNK = 1 << 18  # unlabeled points scored per block


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
        """Views of the rows, ``size`` at a time, in order."""
        for start in range(0, self.n, size):
            yield self.points[start:start + size]

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
        theta = self.theta_hat
        if isinstance(theta, (bool, np.bool_)) or not isinstance(theta, numbers.Real):
            raise ValueError(f"theta_hat must be a real number, got {theta!r}")
        cap = self.params.score_cap
        if not (0.0 <= self.theta_hat <= cap + 1e-12):
            raise ValueError(f"theta_hat {self.theta_hat!r} outside [0, {cap!r}]")

    def predict(self, x) -> np.ndarray | int:
        """Strict thresholding: 1{eta_hat(x) > theta_hat}."""
        scores = self.eta_hat.evaluate(x)
        bits = (np.asarray(scores) > self.theta_hat).astype(np.int64)
        return int(bits) if np.ndim(scores) == 0 else bits

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
        with open(f"{prefix}.json") as fh:
            record = json.load(fh)
        data = LabeledDataset.from_csv(f"{prefix}_data.csv")
        config = {"method": record["method"], **record["hyperparameters"]}
        eta_hat = fit_from_config(data, config)
        # b is the one parameter read; older files carry a second key, which
        # never changed a prediction
        params = FBetaParams(b=record["b"])
        return cls(eta_hat=eta_hat, theta_hat=record["theta_hat"], params=params,
                   provenance=record.get("provenance", {}))


def train_plugin(labeled: LabeledDataset, unlabeled, estimator_config: dict,
                 params: FBetaParams = FBetaParams()) -> PluginClassifier:
    """Fit eta_hat on the n labeled points, calibrate theta_hat on exactly the
    N unlabeled points (never on the labeled ones, which eta_hat was fitted
    on) and assemble the classifier with provenance.

    ``unlabeled`` is an ``UnlabeledDataset`` or any object with ``n``, ``d``
    and ``blocks(size)``, which yields the N points as (m, d) arrays of at
    most ``size`` rows.  The points are scored one block of ``_DRAW_CHUNK``
    at a time, and only their scores are kept."""
    if float(labeled.labels.sum()) == 0.0:
        raise TrainingDegenerate("all training labels are 0; P_hat(Y=1)=0 "
                                 "makes the threshold equation vacuous")
    if unlabeled.n == 0:
        raise ValueError("unlabeled dataset is empty; theta_hat needs at least "
                         "one unlabeled point")
    if unlabeled.d != labeled.d:
        raise ValueError("labeled/unlabeled dimension mismatch")
    eta_hat = fit_from_config(labeled, estimator_config)
    scores = np.empty(unlabeled.n)
    filled = 0
    for block in unlabeled.blocks(_DRAW_CHUNK):
        scores[filled:filled + block.shape[0]] = eta_hat.evaluate(block)
        filled += block.shape[0]
    if filled != unlabeled.n:
        raise ValueError(f"unlabeled blocks hold {filled} points, expected "
                         f"{unlabeled.n}")
    # theta_hat depends only on the multiset of scores: sorted in place and
    # frozen, they are held by ScoreSample and solved without another copy
    scores.sort()
    scores.setflags(write=False)
    theta_hat = empirical_threshold(ScoreSample(values=scores), params)
    provenance = {
        "n": labeled.n,
        "N": unlabeled.n,
        "estimator": {"method": eta_hat.method, **eta_hat.hyperparameters},
        "b": params.b,
    }
    return PluginClassifier(eta_hat=eta_hat, theta_hat=theta_hat, params=params,
                            provenance=provenance)


def predictions_to_csv(path, points: np.ndarray, bits: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    write_table(path, [f"x_{i + 1}" for i in range(points.shape[1])] + ["prediction"],
                [*points.T, np.asarray(bits).ravel().astype(np.int64)])
