"""Synthetic distribution families with known eta, theta*, margin exponent
and smoothness, including the grid-of-bumps lower-bound family, plus
assumption validators (margin exponent, strong density).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import solve_threshold
from .discrete import DiscreteDistribution
from .estimators import LabeledDataset, SmoothnessSpec, _integer, _positive, _real
from .plugin import UnlabeledDataset


class ConstructionError(ValueError):
    """A synthetic family could not be built with the given parameters."""


@dataclass(frozen=True)
class MarginSpec:
    """Margin exponent near theta*: P(0 < |eta - theta*| <= delta) is of
    order delta^alpha.  alpha = inf flags a separated margin."""

    alpha: float

    def __post_init__(self):
        alpha = _real(self.alpha, "alpha")
        if not alpha > 0:
            raise ValueError("alpha must be positive (use math.inf for separation)")
        object.__setattr__(self, "alpha", alpha)


# ---------------------------------------------------------------------------
# Smooth bump primitives: the classical exp(-1/t) mollifier ratio.

def _mollifier(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0, t, 1.0)
    return np.where(t > 0, np.exp(-1.0 / safe), 0.0)


def smoothstep(t) -> np.ndarray:
    """Infinitely differentiable nondecreasing step: 0 for t<=0, 1 for t>=1."""
    t = np.asarray(t, dtype=float)
    a = _mollifier(t)
    b = _mollifier(1.0 - t)
    return a / (a + b)


def bump_u(t) -> np.ndarray:
    """Nonincreasing smooth profile: 1 on [0, 1/4], 0 on [1/2, inf)."""
    return 1.0 - smoothstep(4.0 * (np.asarray(t, dtype=float) - 0.25))


def bump_v(t) -> np.ndarray:
    """Nondecreasing smooth profile: 0 on (-inf, 0], 1 on [1, inf)."""
    return smoothstep(t)


# ---------------------------------------------------------------------------
# Analytic distribution container.

@dataclass(frozen=True)
class AnalyticDistribution:
    """A law of (X, Y) with closed-form eta and a known optimal threshold."""

    d: int
    eta: Callable  # (k, d) array -> (k,) array
    theta_star: float
    sampler: Callable  # (rng, n) -> (n, d) array of X draws
    discretize: Callable  # (n_atoms, seed=0) -> DiscreteDistribution
    margin_probabilities: Callable  # deltas -> exact P(0 < |eta - theta*| <= delta)
    density: Callable | None = None  # (k, d) -> (k,) density values
    margin: MarginSpec | None = None
    smoothness: SmoothnessSpec | None = None
    extras: dict = field(default_factory=dict)


def _step_margin(gaps, masses) -> Callable:
    """Exact P(0 < |eta - theta*| <= delta) per delta when |eta - theta*|
    takes the values ``gaps`` with probabilities ``masses``."""
    gaps = np.asarray(gaps, dtype=float)
    masses = np.asarray(masses, dtype=float)

    def margin_probabilities(deltas):
        deltas = np.asarray(deltas, dtype=float)
        return np.array([masses[(gaps > 0) & (gaps <= dl)].sum()
                         for dl in deltas.ravel()]).reshape(deltas.shape)

    return margin_probabilities


def _frozen_law(support, mass, eta) -> DiscreteDistribution:
    """The law of the fresh arrays ``support``, ``mass`` and ``eta``, frozen
    here so that ``DiscreteDistribution`` holds them without a copy; no one
    else may write to them."""
    for arr in (support, mass, eta):
        arr.setflags(write=False)
    return DiscreteDistribution(support=support, mass=mass, eta=eta)


def _unit_interval_family(eta_flat: Callable, **fields) -> AnalyticDistribution:
    """A 1-d family with X ~ U[0,1] and eta(x) = eta_flat(x) on (k,) arrays:
    the sampler, the density 1 on [0, 1] and 0 elsewhere, and the midpoint
    grid of n_atoms equal masses as its discretization."""

    def flat(x):
        return np.asarray(x, dtype=float).reshape(-1)

    def discretize(n_atoms, seed=0):
        grid = (np.arange(n_atoms) + 0.5) / n_atoms
        return _frozen_law(grid[:, None], np.full(n_atoms, 1.0 / n_atoms),
                           eta_flat(grid))

    def density(x):
        x = flat(x)
        return np.where((x >= 0) & (x <= 1), 1.0, 0.0)

    return AnalyticDistribution(
        d=1, eta=lambda x: eta_flat(flat(x)),
        sampler=lambda rng, n: rng.random(n)[:, None], discretize=discretize,
        density=density, **fields)


def sample(dist: AnalyticDistribution, n: int, seed, labeled: bool = True):
    """Draw n i.i.d. copies; X from the marginal, Y ~ Bernoulli(eta(X)).
    ``seed`` may be a Generator, which is used and advanced in place."""
    n = _integer(n, "n", 1)
    rng = np.random.default_rng(seed)
    x = np.asarray(dist.sampler(rng, n), dtype=float).reshape(n, dist.d)
    if not labeled:
        return UnlabeledDataset(points=x)
    y = (rng.random(n) < dist.eta(x)).astype(float)
    return LabeledDataset(points=x, labels=y)


# ---------------------------------------------------------------------------
# Validators.

@dataclass(frozen=True)
class MarginReport:
    deltas: np.ndarray
    probabilities: np.ndarray
    exponent: float


def verify_margin(dist: AnalyticDistribution, delta_grid) -> MarginReport:
    """The family's exact P(0 < |eta(X) - theta*| <= delta) per delta, and
    the log-log slope fitted through the positive ones."""
    deltas = np.asarray(delta_grid, dtype=float)
    probs = np.asarray(dist.margin_probabilities(deltas), dtype=float)
    positive = probs > 0
    if not np.any(positive):
        exponent = math.inf
    elif positive.sum() == 1:
        exponent = math.nan
    else:
        exponent = float(np.polyfit(np.log(deltas[positive]),
                                    np.log(probs[positive]), 1)[0])
    return MarginReport(deltas=deltas, probabilities=probs, exponent=exponent)


def verify_strong_density(dist: AnalyticDistribution) -> dict:
    """Scan the density over 50 000 support points drawn with seed 0; report
    its observed min and max and the set of distinct levels."""
    report: dict = {"has_density": dist.density is not None}
    if dist.density is None:
        report["note"] = "no Lebesgue density declared (atomic marginal)"
        return report
    x = sample(dist, 50_000, 0, labeled=False).points
    mu = np.asarray(dist.density(x), dtype=float)
    report["mu_min_observed"] = float(mu.min())
    report["mu_max_observed"] = float(mu.max())
    report["distinct_levels"] = sorted(set(np.round(mu, 10).tolist()))
    return report


# ---------------------------------------------------------------------------
# Smooth one-dimensional family.

def _level_equation(slope: float, x0: float, alpha_target: float):
    """c -> c E eta - E(eta - c)_+ for the smooth family's eta crossing c at
    x0, in closed form: eta is a power clipped at 0 and 1."""
    exponent = 1.0 / alpha_target

    def clipped_power(cap, w):
        # int_0^w min(slope t^exponent, cap) dt: the power reaches cap at t = m
        m = min(w, (cap / slope) ** alpha_target)
        return slope * m ** (exponent + 1.0) / (exponent + 1.0) + cap * (w - m)

    def equation(c):
        # above x0 eta - c rises to the cap 1 - c; below x0 c - eta to c
        upper = clipped_power(1.0 - c, 1.0 - x0)
        return c * (c + upper - clipped_power(c, x0)) - upper

    return equation


def _crossing(f, lo: float, hi: float) -> float:
    """For f(lo) < 0 <= f(hi), halve [lo, hi] until lo and hi are adjacent
    floats and return hi: a float at which f is not negative while it is
    negative one float lower."""
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi


def make_smooth_1d_family(beta: float = 1.0, alpha_target: float = 1.0,
                          slope: float = 0.6, x0: float = 0.5) -> AnalyticDistribution:
    """X ~ U[0,1] with eta crossing its own optimal threshold at x0 like
    sign(x - x0) |x - x0|^{1/alpha_target}, so the margin exponent is exactly
    alpha_target.  The crossing level c is solved so that it coincides with
    theta* (b = 1): eta is a power clipped at 0 and 1, so E eta and
    E(eta - c)_+ have closed forms and c is the root of c E eta - E(eta - c)_+,
    found by bisection to adjacent floats.  The margin probabilities are
    exact as well."""
    try:
        beta, alpha_target, slope, x0 = (_positive(value, name) for value, name in (
            (beta, "beta"), (alpha_target, "alpha_target"), (slope, "slope"), (x0, "x0")))
    except ValueError as exc:
        raise ConstructionError(*exc.args) from None
    if not beta <= 1.0:
        raise ConstructionError(f"beta must lie in (0, 1], got {beta!r}")
    if not x0 < 1.0:
        raise ConstructionError(f"x0 must lie in (0, 1), got {x0!r}")
    exponent = 1.0 / alpha_target
    equation = _level_equation(slope, x0, alpha_target)
    lo, hi = 0.02, 0.49
    if not (equation(lo) < 0 < equation(hi)):
        raise ConstructionError("could not bracket the crossing level")
    level = _crossing(equation, lo, hi)

    def eta_flat(x_flat):
        dx = x_flat - x0
        return np.clip(level + slope * np.sign(dx) * np.abs(dx) ** exponent, 0.0, 1.0)

    def margin_probabilities(deltas):
        # each side holds |eta - c| <= delta up to t = (delta/slope)^alpha,
        # or over its whole width w once delta reaches its cap
        deltas = np.maximum(np.asarray(deltas, dtype=float), 0.0)
        reach = (deltas / slope) ** alpha_target
        return sum(np.where(deltas >= cap, w, np.minimum(w, reach))
                   for cap, w in ((1.0 - level, 1.0 - x0), (level, x0)))

    family = _unit_interval_family(
        eta_flat, theta_star=level,
        margin=MarginSpec(alpha=alpha_target),
        smoothness=SmoothnessSpec(beta=min(beta, exponent, 1.0)),
        margin_probabilities=margin_probabilities,
    )
    report = verify_margin(family, 2.0 ** -np.arange(3, 10))
    if not math.isinf(report.exponent) and abs(report.exponent - alpha_target) > 0.2:
        raise ConstructionError(
            f"measured margin exponent {report.exponent:.3f} is off target "
            f"{alpha_target:.3f} by more than 0.2")
    return family


def make_constant_family(eta_value: float = 0.5) -> AnalyticDistribution:
    """X ~ U[0,1], eta identically constant: no margin crossing (alpha = inf)."""
    try:
        eta_value = _positive(eta_value, "eta_value")
    except ValueError as exc:
        raise ConstructionError(*exc.args) from None
    if not eta_value <= 1.0:
        raise ConstructionError("eta_value must lie in (0, 1]")
    theta_star = float(solve_threshold(np.array([eta_value]), np.array([1.0]), 1.0))
    return _unit_interval_family(
        lambda x: np.full(x.size, eta_value), theta_star=theta_star,
        margin=MarginSpec(alpha=math.inf),
        margin_probabilities=_step_margin([abs(eta_value - theta_star)], [1.0]),
    )


def make_two_point_family(eta_low: float = 0.1, eta_high: float = 0.9) -> AnalyticDistribution:
    """Two feature atoms at x=0 and x=1 with masses 1/2; separated margin."""
    eta_low, eta_high = _real(eta_low, "eta_low"), _real(eta_high, "eta_high")
    atoms = DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                 mass=np.array([0.5, 0.5]),
                                 eta=np.array([eta_high, eta_low]))
    theta_star = solve_threshold(atoms.eta, atoms.mass, 1.0)

    def eta_fn(x):
        return np.where(np.asarray(x, dtype=float).reshape(-1) < 0.5,
                        eta_high, eta_low)

    return AnalyticDistribution(
        d=1, eta=eta_fn, theta_star=float(theta_star),
        sampler=lambda rng, n: rng.integers(0, 2, size=n).astype(float)[:, None],
        discretize=lambda n_atoms, seed=0: atoms,
        margin=MarginSpec(alpha=math.inf),
        margin_probabilities=_step_margin(np.abs(atoms.eta - theta_star), atoms.mass),
    )


# ---------------------------------------------------------------------------
# Hard (lower-bound) family: grid of smooth bumps around level 1/4.

@dataclass(frozen=True)
class HardFamilyParams:
    d: int
    beta: float
    q: int
    m: int
    w: float

    def __post_init__(self):
        for name in ("d", "q", "m"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        for name in ("beta", "w"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        if not self.beta <= 1.0:
            # past 1, a bound on pairwise ratios no longer checks Holder-beta
            raise ValueError("the hard family supports beta in (0, 1]")
        if self.m >= self.q ** self.d:
            raise ValueError("need m < q^d so the bulk ball has positive volume")
        if not self.w <= 1.0 / self.m:
            raise ValueError("need 0 < w <= 1/m")
        if not (self.m * self.w < 0.5):
            raise ValueError("need m*w < 1/2 (tau formula and mass budget)")


def _ball_volume(d: int, r: float) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r ** d


@functools.cache
def _holder_seminorm(profile: Callable, beta: float) -> float:
    """Largest pairwise ratio |f(s) - f(t)| / |s - t|^beta of a profile on a
    160-point grid over [0, 1]: its numeric Holder-beta seminorm.
    Rescaled, c * f((r - r0) / s) has seminorm c * s^-beta times this."""
    r = np.linspace(0.0, 1.0, 160)
    f = np.asarray(profile(r), dtype=float)
    i, j = np.triu_indices(r.size, k=1)
    return float(np.max(np.abs(f[i] - f[j]) / (r[j] - r[i]) ** beta))


def build_hard_family(p: HardFamilyParams, seed: int = 0) -> AnalyticDistribution:
    """Grid-of-bumps construction with the optimal threshold pinned at 1/4.

    eta is Holder-beta with constant 1.  It takes 1/4 +- sigma_j * phi on the
    mirrored active cells, with the signs sigma drawn from ``seed`` (an int
    or a Generator), 1/4 on the rest of the central ball, tau far outside,
    and a smooth radial bridge on the annulus.  The marginal density places
    mass w on a small ball inside each active cell (and its mirror) and the
    rest on a far-away bulk ball.
    """
    q, m, w, d, beta = p.q, p.m, p.w, p.d, p.beta
    # The bump C_phi q^-beta u(q r) has seminorm C_phi |u|_beta whatever q is,
    # so one C_phi serves every grid; the cap keeps b' <= 1/8.
    c_phi = min(1.0 / _holder_seminorm(bump_u, beta), 1.0 / 8.0)
    phi_max = c_phi * q ** (-beta)
    # b' is the average bump height over a mass ball.  The balls have radius
    # 1/(4q) and u(q r) = 1 for q r <= 1/4, so eta sits at its peak on them.
    b_prime = phi_max
    mw = m * w
    tau = 1.0 / 3.0 + (1.0 / 12.0 - 2.0 * b_prime / 3.0) * (2.0 * mw / (1.0 - 2.0 * mw))
    if not (0.25 < tau <= 1.0):
        raise ConstructionError(f"tau = {tau:.6g} outside (1/4, 1]; m*w <= 4/9 keeps "
                                f"it inside for every b' <= 1/8, got m*w = {mw:.6g}")
    # The bridge (tau - 1/4) v((r - sqrt d) / rho) has seminorm
    # (tau - 1/4) |v|_beta rho^-beta: take the smallest power of two rho >= 1
    # that brings it to 1.
    spread = (tau - 0.25) * _holder_seminorm(bump_v, beta)
    rho = 2.0 ** max(0, math.ceil(math.log2(spread) / beta - 1e-9))
    sigma = np.random.default_rng(seed).choice([-1.0, 1.0], size=m)

    sqrt_d = math.sqrt(d)
    ball_r = 1.0 / (4.0 * q)
    lam_a0 = 1.0 - m * q ** (-d)
    r0 = (lam_a0 / _ball_volume(d, 1.0)) ** (1.0 / d)
    a0_center = np.zeros(d)
    a0_center[0] = sqrt_d + rho + 2.0 * r0  # clear of the annulus ball
    bulk_mass = 1.0 - 2.0 * mw

    # Active grid points in C-order over cell indices.
    ks = np.stack(np.unravel_index(np.arange(m), (q,) * d), axis=1)
    centers = (2.0 * ks + 1.0) / (2.0 * q)  # (m, d)

    def eta_fn(x):
        x = np.asarray(x, dtype=float).reshape(-1, d)
        r = np.linalg.norm(x, axis=1)
        out = np.full(x.shape[0], tau)
        ann = (r >= sqrt_d) & (r < sqrt_d + rho)
        out[ann] = (tau - 0.25) * bump_v((r[ann] - sqrt_d) / rho) + 0.25
        inside = r < sqrt_d
        out[inside] = 0.25
        # the active cells of [0, 1]^d carry 1/4 + sigma phi, their mirror
        # images 1/4 - sigma phi
        for s in (1.0, -1.0):
            xs = s * x
            rows = np.flatnonzero(inside & np.all((xs >= 0.0) & (xs <= 1.0), axis=1))
            k = np.clip(np.floor(xs[rows] * q), 0, q - 1)
            rank = np.ravel_multi_index(k.astype(int).T, (q,) * d)
            active = rank < m
            dist = np.linalg.norm(xs[rows[active]] - (2.0 * k[active] + 1.0) / (2.0 * q),
                                  axis=1)
            out[rows[active]] = 0.25 + s * sigma[rank[active]] * (
                phi_max * bump_u(q * dist))
        return np.clip(out, 0.0, 1.0)

    def _uniform_in_ball(rng_, n, center, radius):
        u = rng_.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rad = radius * rng_.random(n) ** (1.0 / d)
        return center + u * rad[:, None]

    # The mass components: a ball in each active cell, one in its mirror
    # image and the bulk ball, each carrying a uniform density.
    comp_centers = np.vstack([centers, -centers, a0_center[None, :]])
    comp_radii = np.concatenate([np.full(2 * m, ball_r), [r0]])
    comp_masses = np.concatenate([np.full(2 * m, w), [bulk_mass]])
    comp_density = comp_masses / np.concatenate(
        [np.full(2 * m, _ball_volume(d, ball_r)), [_ball_volume(d, r0)]])

    def density(x):
        x = np.asarray(x, dtype=float).reshape(-1, d)
        out = np.zeros(x.shape[0])
        for idx in range(comp_masses.size):
            inside = np.linalg.norm(x - comp_centers[idx], axis=1) <= comp_radii[idx]
            out[inside] = comp_density[idx]
        return out

    def sampler(rng_, n):
        choice = rng_.choice(comp_masses.size, size=n, p=comp_masses)
        out = np.empty((n, d))
        for idx in range(comp_masses.size):
            sel = choice == idx
            cnt = int(sel.sum())
            if cnt:
                out[sel] = _uniform_in_ball(rng_, cnt, comp_centers[idx],
                                            comp_radii[idx])
        return out

    # Exact oracle: eta is constant on every mass-carrying component.
    exact_atoms = DiscreteDistribution(
        support=comp_centers,
        mass=comp_masses,
        eta=np.concatenate([0.25 + sigma * phi_max, 0.25 - sigma * phi_max, [tau]]),
    )

    def discretize(n_atoms, seed=0):
        rng_ = np.random.default_rng(seed)
        per = max(1, n_atoms // comp_masses.size)
        points, masses = [], []
        for idx in range(comp_masses.size):
            pts = _uniform_in_ball(rng_, per, comp_centers[idx], comp_radii[idx])
            points.append(pts)
            masses.append(np.full(per, comp_masses[idx] / per))
        support = np.vstack(points)
        return _frozen_law(support, np.concatenate(masses), eta_fn(support))

    theta_check = solve_threshold(exact_atoms.eta, exact_atoms.mass, 1.0)
    if abs(theta_check - 0.25) > 1e-9:
        raise ConstructionError(f"pinned threshold check failed: {theta_check!r}")

    return AnalyticDistribution(
        d=d, eta=eta_fn, theta_star=0.25, sampler=sampler,
        discretize=discretize, density=density,
        margin=None,  # the exponent depends on how m, w scale with n
        smoothness=SmoothnessSpec(beta=beta),
        margin_probabilities=_step_margin([phi_max, tau - 0.25],
                                          [2.0 * mw, bulk_mass]),
        extras={"params": p, "C_phi": c_phi, "b_prime": b_prime, "tau": tau,
                "rho": rho, "sigma": sigma, "phi_max": phi_max,
                "exact_atoms": exact_atoms,
                "density_levels": (comp_density[0], comp_density[-1])},
    )


def hard_family_rate_params(n: int, beta: float, d: int,
                            alpha: float) -> HardFamilyParams:
    """Rate-scaled construction parameters for a labeled-sample size n >= 1:
    q = n^(1/(2 beta + d)), m = q^(d - alpha beta) and w = q^-d, each
    truncated and clamped so the parameter invariants hold at small n.

    Valid only when alpha * beta <= d."""
    try:
        n, d = _integer(n, "n", 1), _integer(d, "d", 1)
        beta, alpha = _positive(beta, "beta"), _positive(alpha, "alpha")
    except ValueError as exc:
        raise ConstructionError(*exc.args) from None
    if alpha * beta > d:
        raise ConstructionError("rate-scaled parameters require alpha*beta <= d")
    q = max(2, int(n ** (1.0 / (2.0 * beta + d))))
    m = max(1, int(q ** (d - alpha * beta)))
    m = min(m, q ** d - 1)
    w = q ** (-float(d))
    # at m w = 4/9, tau = 1 - 16 b'/3 lies in (1/4, 1] for every b' <= 1/8
    w = min(w, 4.0 / (9.0 * m))
    return HardFamilyParams(d=d, beta=beta, q=q, m=m, w=w)


def hard_family_mean_eta(family: AnalyticDistribution) -> float:
    """E eta(X) = m w / 2 + tau (1 - 2 m w) for the hard family."""
    p = family.extras["params"]
    tau = family.extras["tau"]
    mw = p.m * p.w
    return mw / 2.0 + tau * (1.0 - 2.0 * mw)
