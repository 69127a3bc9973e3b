"""Finite-support joint distributions of (X, Y) and related value types.

A DiscreteDistribution stores support points, their probability masses and
the conditional probability eta(x) = P(Y=1 | X=x) at every point.  It is the
substrate for all exact population-level computations.
"""

from __future__ import annotations

import math
import numbers
import sys
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


def frozen_array(values, ndim: int, name: str) -> np.ndarray:
    """``values`` as a read-only, finite float64 array, raveled (``ndim`` 1)
    or at least two-dimensional (``ndim`` 2).  An input of more than two
    dimensions, a 2-d input other than one column for ``ndim`` 1, or one
    that holds a NaN or an infinity, raises a ValueError that names ``name``.

    An input that already is a read-only, C-contiguous float64 ndarray with
    ``ndim`` dimensions is held as it is: whoever froze it will not write
    to it.  Any other input becomes a frozen copy, so that freezing it leaves
    the caller's array writeable.
    """
    if (type(values) is np.ndarray and values.dtype == np.float64
            and values.ndim == ndim and not values.flags.writeable
            and values.flags.c_contiguous):
        arr = values
    else:
        arr = np.array(values, dtype=float)
        if arr.ndim > 2:
            raise ValueError(f"{name} must be at most 2-d, got shape {arr.shape}")
        if ndim == 1 and arr.ndim == 2 and arr.shape[1] != 1:
            raise ValueError(f"{name} must be 1-d or one column, got shape {arr.shape}")
        arr = arr.ravel() if ndim == 1 else np.atleast_2d(arr)
        arr.setflags(write=False)
    require_finite(arr, name)
    return arr


@dataclass(frozen=True)
class FBetaParams:
    """Trade-off parameter b of the F_b score; every score lives in
    [0, 1/(1+b^2)]."""

    b: float = 1.0

    def __post_init__(self):
        # a string, a boolean or an int past the float range is no b; b * b
        # too must be finite: b = inf or 1e200 gave a score cap of 0
        b = self.b
        if isinstance(b, (bool, np.bool_)) or not isinstance(b, numbers.Real) \
                or isinstance(b, numbers.Integral) and abs(b) > sys.float_info.max \
                or not (b > 0 and math.isfinite(float(b) * float(b))):
            raise ValueError(f"b must be a positive real number with a finite "
                             f"square, got {b!r}")
        # held as a Python int or float, so that b * b is exact or taken in
        # double precision, never in a narrower numpy type
        object.__setattr__(self, "b", int(b) if isinstance(b, numbers.Integral)
                           else float(b))

    @property
    def b2(self) -> float:
        return self.b * self.b

    @property
    def score_cap(self) -> float:
        """Maximum achievable score, 1/(1+b^2)."""
        return 1.0 / (1.0 + self.b2)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite-support law of (X, Y): points, masses and eta values."""

    support: np.ndarray  # (K, d)
    mass: np.ndarray     # (K,)
    eta: np.ndarray      # (K,)

    def __post_init__(self):
        # finite first, as a NaN passes every comparison below
        support = frozen_array(self.support, 2, "support")
        mass = frozen_array(self.mass, 1, "mass")
        eta = frozen_array(self.eta, 1, "eta")
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
        """P(Y = 1) = sum_i mass_i * eta_i, by ``np.einsum`` outside BLAS, so
        that it does not depend on the BLAS thread count."""
        return float(np.einsum("i,i", self.mass, self.eta))

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
    """A classifier ``g``, a sequence of 0/1 over the support points, as an
    int64 bit-vector; any other length or value raises a ValueError."""
    bits = np.asarray(g).ravel()
    if bits.dtype.kind not in "biuf":
        raise ValueError(f"classifier must be 0/1 bits, got a {type(g).__name__}")
    if bits.size != dist.size:
        raise ValueError(f"classifier covers {bits.size} points, support has {dist.size}")
    as_int = bits.astype(np.int64)
    if np.any((as_int != 0) & (as_int != 1)) or np.any(as_int != bits):
        raise ValueError("classifier output must be binary")
    return as_int


def random_distribution(rng: np.random.Generator,
                        k_max: int = 12) -> DiscreteDistribution:
    """Random small instance on 1-d support points: Dirichlet masses,
    Uniform etas, P(Y=1) > 1e-3."""
    while True:
        k = int(rng.integers(1, k_max + 1))
        mass = rng.dirichlet(np.ones(k))
        mass = mass / mass.sum()
        eta = rng.uniform(0.0, 1.0, size=k)
        if float(mass @ eta) > 1e-3 and abs(mass.sum() - 1.0) <= MASS_TOL:
            support = rng.uniform(0.0, 1.0, size=(k, 1))
            return DiscreteDistribution(support=support, mass=mass, eta=eta)


def uniform_eta_grid(k: int) -> DiscreteDistribution:
    """Discretized U[0,1] eta: k equal-mass atoms with eta at cell midpoints."""
    eta = (np.arange(k) + 0.5) / k
    mass = np.full(k, 1.0 / k)
    return DiscreteDistribution(support=eta[:, None], mass=mass, eta=eta)
