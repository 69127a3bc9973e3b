"""End-to-end semi-supervised plug-in procedure.

Two steps: fit eta_hat on the labeled sample, then calibrate theta_hat on the
unlabeled sample by solving the empirical threshold equation.  Predictions
use the strict rule 1{eta_hat(x) > theta_hat}.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .discrete import FBetaParams, require_finite
from .estimators import LabeledDataset, RegressionEstimate, fit_from_config
from .threshold import ScoreSample, empirical_threshold


class TrainingDegenerate(ValueError):
    """Raised when every training label is 0: the empirical threshold
    equation is vacuous and the fit would be meaningless."""


@dataclass(frozen=True)
class UnlabeledDataset:
    points: np.ndarray  # (N, d); may be empty before augmentation

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.size == 0:
            points = points.reshape(0, points.shape[1] if points.ndim == 2 else 1)
        points = np.atleast_2d(points)
        require_finite(points, "unlabeled dataset")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_csv(cls, path) -> "UnlabeledDataset":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            d = len(header)
            rows = [list(map(float, row)) for row in reader if row]
        arr = np.asarray(rows, dtype=float).reshape(-1, d)
        return cls(points=arr)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x_{i + 1}" for i in range(self.d)])
            for x in self.points:
                writer.writerow([repr(float(v)) for v in x])


@dataclass(frozen=True)
class PluginClassifier:
    eta_hat: RegressionEstimate
    theta_hat: float
    params: FBetaParams
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
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
            "normalized": self.params.normalized,
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
        params = FBetaParams(b=record["b"], normalized=record["normalized"])
        return cls(eta_hat=eta_hat, theta_hat=record["theta_hat"], params=params,
                   provenance=record.get("provenance", {}))


def train_plugin(labeled: LabeledDataset, unlabeled: UnlabeledDataset,
                 estimator_config: dict,
                 params: FBetaParams = FBetaParams()) -> PluginClassifier:
    """Fit eta_hat on the labeled data, calibrate theta_hat on the unlabeled
    data (augmented with the labeled features when N < n) and assemble the
    classifier with provenance."""
    if float(labeled.labels.sum()) == 0.0:
        raise TrainingDegenerate("all training labels are 0; P_hat(Y=1)=0 "
                                 "makes the threshold equation vacuous")
    eta_hat = fit_from_config(labeled, estimator_config)
    n, big_n = labeled.n, unlabeled.n
    augmented = big_n < n
    if augmented:
        if big_n == 0:
            points = labeled.points
        else:
            if unlabeled.d != labeled.d:
                raise ValueError("labeled/unlabeled dimension mismatch")
            points = np.vstack([unlabeled.points, labeled.points])
    else:
        if unlabeled.d != labeled.d:
            raise ValueError("labeled/unlabeled dimension mismatch")
        points = unlabeled.points
    scores = np.asarray(eta_hat.evaluate(points))
    sample = ScoreSample(values=scores, n_source=n)
    theta_hat = empirical_threshold(sample, params)
    provenance = {
        "n": n,
        "N": big_n,
        "N_effective": points.shape[0],
        "augmented": augmented,
        "estimator": {"method": eta_hat.method, **eta_hat.hyperparameters},
        "b": params.b,
    }
    return PluginClassifier(eta_hat=eta_hat, theta_hat=theta_hat, params=params,
                            provenance=provenance)


def predictions_to_csv(path, points: np.ndarray, bits: np.ndarray) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{i + 1}" for i in range(points.shape[1])] + ["prediction"])
        for x, b in zip(points, np.asarray(bits).ravel()):
            writer.writerow([repr(float(v)) for v in x] + [str(int(b))])
