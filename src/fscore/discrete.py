"""Finite-support joint distributions of (X, Y) and related value types.

A DiscreteDistribution stores support points, their probability masses and
the conditional probability eta(x) = P(Y=1 | X=x) at every point.  It is the
substrate for all exact population-level computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .table import read_table, write_table

MASS_TOL = 1e-12


def require_finite(values: np.ndarray, name: str) -> None:
    """Raise ValueError naming ``name`` and the first row of ``values`` that
    holds a NaN or an infinity."""
    finite = np.isfinite(values)
    if not finite.all():
        rows = finite.reshape(finite.shape[0], -1).all(axis=1)
        raise ValueError(f"{name}: row {int(np.argmin(rows))} is not finite")


def frozen_array(values, ndim: int) -> np.ndarray:
    """``values`` as a read-only float64 array, raveled (``ndim`` 1) or at
    least two-dimensional (``ndim`` 2).

    An input that already is a read-only, C-contiguous float64 ndarray with
    ``ndim`` dimensions is returned as it is: whoever froze it will not write
    to it.  Any other input becomes a frozen copy, so that freezing it leaves
    the caller's array writeable.  Nothing is checked here; callers check the
    values either way.
    """
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.ndim == ndim and not values.flags.writeable
            and values.flags.c_contiguous):
        return values
    arr = np.array(values, dtype=float)
    arr = arr.ravel() if ndim == 1 else np.atleast_2d(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FBetaParams:
    """Trade-off parameter of the F_b score.

    When ``normalized`` is true (the default) scores are divided by (1 + b^2),
    so every score lives in [0, 1/(1+b^2)].
    """

    b: float = 1.0
    normalized: bool = True

    def __post_init__(self):
        # b * b too must be finite: b = inf or 1e200 gave a score cap of 0
        if not (self.b > 0 and math.isfinite(float(self.b) * float(self.b))):
            raise ValueError(f"b must be positive with a finite square, got {self.b}")

    @property
    def b2(self) -> float:
        return self.b * self.b

    @property
    def score_cap(self) -> float:
        """Maximum achievable normalized score, 1/(1+b^2)."""
        return 1.0 / (1.0 + self.b2)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support law of (X, Y): points, masses and eta values."""

    support: np.ndarray  # (K, d)
    mass: np.ndarray     # (K,)
    eta: np.ndarray      # (K,)

    def __post_init__(self):
        support = frozen_array(self.support, 2)
        mass = frozen_array(self.mass, 1)
        eta = frozen_array(self.eta, 1)
        # first, as a NaN passes every comparison below
        for name, arr in (("support", support), ("mass", mass), ("eta", eta)):
            require_finite(arr, name)
        if support.shape[0] != mass.size or mass.size != eta.size:
            raise ValueError("support, mass and eta must have equal length")
        if mass.size < 1:
            raise ValueError("distribution needs at least one support point")
        if np.any(mass < 0):
            raise ValueError("masses must be nonnegative")
        if abs(mass.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"masses must sum to 1, got {mass.sum()!r}")
        if np.any(eta < 0) or np.any(eta > 1):
            raise ValueError("eta values must lie in [0, 1]")
        if float(mass @ eta) <= 0:
            raise ValueError("P(Y=1) must be positive")
        for name, arr in (("support", support), ("mass", mass), ("eta", eta)):
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.mass.size

    @property
    def d(self) -> int:
        return self.support.shape[1]

    @property
    def p_y1(self) -> float:
        """P(Y = 1) = sum_i mass_i * eta_i."""
        return float(self.mass @ self.eta)

    def to_csv(self, path) -> None:
        """Write one row per support point, columns x_1..x_d, mass, eta."""
        write_table(path, [f"x_{i + 1}" for i in range(self.d)] + ["mass", "eta"],
                    [*self.support.T, self.mass, self.eta])

    @classmethod
    def from_csv(cls, path) -> "DiscreteDistribution":
        header, values = read_table(path)
        if header[-2:] != ["mass", "eta"]:
            raise ValueError("expected trailing columns 'mass' and 'eta'")
        return cls(support=values[:, :-2], mass=values[:, -2], eta=values[:, -1])


def as_bits(dist: DiscreteDistribution, g) -> np.ndarray:
    """Coerce a classifier to a {0,1} bit-vector over the support.

    Accepts a bit-vector (sequence of 0/1 over the support points) or a
    callable predicate evaluated point-wise on the support.
    """
    if callable(g):
        bits = np.asarray([g(x) for x in dist.support])
    else:
        bits = np.asarray(g)
    bits = bits.ravel()
    if bits.size != dist.size:
        raise ValueError(f"classifier covers {bits.size} points, support has {dist.size}")
    as_int = bits.astype(np.int64)
    if np.any((as_int != 0) & (as_int != 1)) or np.any(as_int != bits):
        raise ValueError("classifier output must be binary")
    return as_int


def random_distribution(rng: np.random.Generator, k_max: int = 12,
                        min_p_y1: float = 1e-3, d: int = 1) -> DiscreteDistribution:
    """Random small instance: Dirichlet masses, Uniform etas, P(Y=1) > min_p_y1."""
    while True:
        k = int(rng.integers(1, k_max + 1))
        mass = rng.dirichlet(np.ones(k))
        mass = mass / mass.sum()
        eta = rng.uniform(0.0, 1.0, size=k)
        if float(mass @ eta) > min_p_y1 and abs(mass.sum() - 1.0) <= MASS_TOL:
            support = rng.uniform(0.0, 1.0, size=(k, d))
            return DiscreteDistribution(support=support, mass=mass, eta=eta)


def uniform_eta_grid(k: int) -> DiscreteDistribution:
    """Discretized U[0,1] eta: k equal-mass atoms with eta at cell midpoints."""
    eta = (np.arange(k) + 0.5) / k
    mass = np.full(k, 1.0 / k)
    return DiscreteDistribution(support=eta[:, None], mass=mass, eta=eta)
