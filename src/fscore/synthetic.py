"""Synthetic distribution families with known eta, theta*, margin exponent
and smoothness, including the grid-of-bumps lower-bound family, plus
assumption validators (margin exponent, strong density).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn

from .core import solve_threshold
from .discrete import DiscreteDistribution
from .estimators import LabeledDataset, SmoothnessSpec
from .plugin import UnlabeledDataset


class ConstructionError(ValueError):
    """A synthetic family could not be built with the given parameters."""


@dataclass(frozen=True)
class MarginSpec:
    """Margin behaviour near theta*: P(0 < |eta - theta*| <= delta) <= C0 delta^alpha
    for delta <= delta0.  alpha = inf flags a separated margin."""

    alpha: float
    C0: float = 1.0
    delta0: float = 1.0 / 12.0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be positive (use math.inf for separation)")
        if not (self.C0 > 0):
            raise ValueError("C0 must be positive")
        if not (0.0 < self.delta0 <= 1.0 / 12.0):
            raise ValueError("delta0 must lie in (0, 1/12]")

    @property
    def c0_effective(self) -> float:
        """C0 v delta0^{-alpha}, valid for all delta once the local bound holds."""
        if math.isinf(self.alpha):
            return self.C0
        return max(self.C0, self.delta0 ** (-self.alpha))


@dataclass(frozen=True)
class DensitySpec:
    mu_min: float
    mu_max: float
    c0_reg: float
    r0_reg: float

    def __post_init__(self):
        if not (0.0 < self.mu_min <= self.mu_max):
            raise ValueError("need 0 < mu_min <= mu_max")
        if not (self.c0_reg > 0 and self.r0_reg > 0):
            raise ValueError("regularity constants must be positive")


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


def bump_u(t, override: Callable | None = None) -> np.ndarray:
    """Nonincreasing smooth profile: 1 on [0, 1/4], 0 on [1/2, inf)."""
    if override is not None:
        return np.asarray(override(np.asarray(t, dtype=float)), dtype=float)
    return 1.0 - smoothstep(4.0 * (np.asarray(t, dtype=float) - 0.25))


def bump_v(t) -> np.ndarray:
    """Nondecreasing smooth profile: 0 on (-inf, 0], 1 on [1, inf)."""
    return smoothstep(t)


# ---------------------------------------------------------------------------
# Analytic distribution container.

@dataclass(frozen=True)
class AnalyticDistribution:
    """A law of (X, Y) with closed-form eta and a known optimal threshold."""

    name: str
    d: int
    eta: Callable  # (k, d) array -> (k,) array
    theta_star: float
    sampler: Callable  # (rng, n) -> (n, d) array of X draws
    discretizer: Callable  # (n_atoms, seed) -> DiscreteDistribution
    density: Callable | None = None  # (k, d) -> (k,) density values
    density_spec: DensitySpec | None = None
    margin: MarginSpec | None = None
    smoothness: SmoothnessSpec | None = None
    margin_probabilities: Callable | None = None  # exact P(0<|eta-theta*|<=delta)
    extras: dict = field(default_factory=dict)

    def eta_at(self, x) -> np.ndarray:
        return np.asarray(self.eta(np.atleast_2d(np.asarray(x, dtype=float))))

    def discretize(self, n_atoms: int, seed: int = 0) -> DiscreteDistribution:
        return self.discretizer(n_atoms, seed)


def sample(dist: AnalyticDistribution, n: int, seed: int, labeled: bool = True):
    """Draw n i.i.d. copies; X from the marginal, Y ~ Bernoulli(eta(X))."""
    if n < 1:
        raise ValueError("n must be at least 1")
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
    std_errors: np.ndarray
    exponent: float
    exact: bool


def verify_margin(dist: AnalyticDistribution, delta_grid, n_mc: int = 200_000,
                  seed: int = 0) -> MarginReport:
    """Measure P(0 < |eta(X) - theta*| <= delta) per delta and fit the
    log-log slope.  Uses the family's exact component probabilities when
    available, Monte Carlo (with standard errors) otherwise."""
    deltas = np.asarray(delta_grid, dtype=float)
    if dist.margin_probabilities is not None:
        probs = np.asarray(dist.margin_probabilities(deltas), dtype=float)
        ses = np.zeros_like(probs)
        exact = True
    else:
        rng = np.random.default_rng(seed)
        x = np.asarray(dist.sampler(rng, n_mc), dtype=float).reshape(n_mc, dist.d)
        gap = np.abs(dist.eta(x) - dist.theta_star)
        probs = np.array([np.mean((gap > 0) & (gap <= d)) for d in deltas])
        ses = np.sqrt(probs * (1.0 - probs) / n_mc)
        exact = False
    positive = probs > 0
    if not np.any(positive):
        exponent = math.inf
    elif positive.sum() == 1:
        exponent = math.nan
    else:
        exponent = float(np.polyfit(np.log(deltas[positive]),
                                    np.log(probs[positive]), 1)[0])
    return MarginReport(deltas=deltas, probabilities=probs, std_errors=ses,
                        exponent=exponent, exact=exact)


def verify_strong_density(dist: AnalyticDistribution, n_scan: int = 50_000,
                          seed: int = 0) -> dict:
    """Scan the density over sampled support points; report min/max values,
    the set of distinct levels, and the declared regularity constants."""
    report: dict = {"has_density": dist.density is not None}
    if dist.density is None:
        report["note"] = "no Lebesgue density declared (atomic marginal)"
        return report
    rng = np.random.default_rng(seed)
    x = np.asarray(dist.sampler(rng, n_scan), dtype=float).reshape(n_scan, dist.d)
    mu = np.asarray(dist.density(x), dtype=float)
    report["mu_min_observed"] = float(mu.min())
    report["mu_max_observed"] = float(mu.max())
    report["distinct_levels"] = sorted(set(np.round(mu, 10).tolist()))
    if dist.density_spec is not None:
        spec = dist.density_spec
        report["declared"] = {"mu_min": spec.mu_min, "mu_max": spec.mu_max,
                              "c0_reg": spec.c0_reg, "r0_reg": spec.r0_reg}
        report["within_declared_bounds"] = bool(
            mu.min() >= spec.mu_min - 1e-9 and mu.max() <= spec.mu_max + 1e-9)
    return report


# ---------------------------------------------------------------------------
# Smooth one-dimensional family.

def _theta_for_grid(eta_values: np.ndarray, b: float = 1.0) -> float:
    return solve_threshold(eta_values, b=b)


def make_smooth_1d_family(beta: float = 1.0, alpha_target: float = 1.0,
                          slope: float = 0.6, x0: float = 0.5,
                          grid_size: int = 1_000_000) -> AnalyticDistribution:
    """X ~ U[0,1] with eta crossing its own optimal threshold at x0 like
    sign(x - x0) |x - x0|^{1/alpha_target}, so the margin exponent is exactly
    alpha_target.  The crossing level is solved so that it coincides with
    theta* (a scalar fixed point, found by bracketing on the level)."""
    if not (0.0 < beta <= 1.0):
        raise ConstructionError("smooth 1-d family supports beta in (0, 1]")
    if alpha_target <= 0 or slope <= 0 or not (0.0 < x0 < 1.0):
        raise ConstructionError("invalid smooth-family parameters")
    exponent = 1.0 / alpha_target

    def eta_with_level(c, x_flat):
        dx = x_flat - x0
        return np.clip(c + slope * np.sign(dx) * np.abs(dx) ** exponent, 0.0, 1.0)

    def theta_of_level(c, k):
        grid = (np.arange(k) + 0.5) / k
        return _theta_for_grid(eta_with_level(c, grid))

    def gap(c):
        return theta_of_level(c, grid_size) - c

    lo, hi = 0.02, 0.49
    if gap(lo) <= 0 or gap(hi) >= 0:
        raise ConstructionError("could not bracket the crossing level")
    level = brentq(gap, lo, hi, xtol=1e-10)
    theta_star = float(level)
    # Refinement check: doubling the grid must not move the solved threshold.
    if abs(theta_of_level(level, 2 * grid_size) - theta_star) > 1e-6:
        raise ConstructionError("threshold did not stabilize under refinement")

    def eta_fn(x):
        return eta_with_level(level, np.asarray(x, dtype=float).reshape(-1))

    def sampler(rng, n):
        return rng.random(n)[:, None]

    def discretizer(n_atoms, seed=0):
        grid = (np.arange(n_atoms) + 0.5) / n_atoms
        return DiscreteDistribution(support=grid[:, None],
                                    mass=np.full(n_atoms, 1.0 / n_atoms),
                                    eta=eta_with_level(level, grid))

    # Margin probabilities from a dense deterministic grid (exact up to the
    # grid pitch, which is far below every tested delta).
    _margin_grid = (np.arange(grid_size) + 0.5) / grid_size
    _margin_gap = np.abs(eta_with_level(level, _margin_grid) - theta_star)

    def margin_probabilities(deltas):
        deltas = np.asarray(deltas, dtype=float)
        return np.array([np.mean((_margin_gap > 1e-12) & (_margin_gap <= dl))
                         for dl in deltas])

    family = AnalyticDistribution(
        name="smooth_1d", d=1, eta=eta_fn, theta_star=theta_star,
        sampler=sampler, discretizer=discretizer,
        density=lambda x: np.where(
            (np.asarray(x, dtype=float).reshape(-1) >= 0)
            & (np.asarray(x, dtype=float).reshape(-1) <= 1), 1.0, 0.0),
        density_spec=DensitySpec(mu_min=1.0, mu_max=1.0, c0_reg=0.5, r0_reg=0.5),
        margin=MarginSpec(alpha=alpha_target, C0=2.0 * slope ** (-alpha_target)),
        smoothness=SmoothnessSpec(beta=min(beta, exponent, 1.0), L=slope),
        margin_probabilities=margin_probabilities,
        extras={"level": float(level), "slope": slope, "x0": x0,
                "exponent": exponent},
    )
    report = verify_margin(family, 2.0 ** -np.arange(3, 10))
    if not math.isinf(report.exponent) and abs(report.exponent - alpha_target) > 0.2:
        raise ConstructionError(
            f"measured margin exponent {report.exponent:.3f} is off target "
            f"{alpha_target:.3f} by more than 0.2")
    return family


def make_constant_family(eta_value: float = 0.5) -> AnalyticDistribution:
    """X ~ U[0,1], eta identically constant: no margin crossing (alpha = inf)."""
    if not (0.0 < eta_value <= 1.0):
        raise ConstructionError("eta_value must lie in (0, 1]")
    theta_star = solve_threshold(np.array([eta_value]), np.array([1.0]), 1.0)

    def eta_fn(x):
        return np.full(np.asarray(x, dtype=float).reshape(-1).size, eta_value)

    def discretizer(n_atoms, seed=0):
        grid = (np.arange(n_atoms) + 0.5) / n_atoms
        return DiscreteDistribution(support=grid[:, None],
                                    mass=np.full(n_atoms, 1.0 / n_atoms),
                                    eta=np.full(n_atoms, eta_value))

    return AnalyticDistribution(
        name="constant", d=1, eta=eta_fn, theta_star=float(theta_star),
        sampler=lambda rng, n: rng.random(n)[:, None], discretizer=discretizer,
        density=lambda x: np.ones(np.asarray(x, dtype=float).reshape(-1).size),
        density_spec=DensitySpec(mu_min=1.0, mu_max=1.0, c0_reg=0.5, r0_reg=0.5),
        margin=MarginSpec(alpha=math.inf),
        margin_probabilities=lambda deltas: np.zeros(np.asarray(deltas).size),
        extras={"eta_value": eta_value},
    )


def make_two_point_family(eta_low: float = 0.1, eta_high: float = 0.9) -> AnalyticDistribution:
    """Two feature atoms at x=0 and x=1 with masses 1/2; separated margin."""
    atoms = DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                 mass=np.array([0.5, 0.5]),
                                 eta=np.array([eta_high, eta_low]))
    theta_star = solve_threshold(atoms.eta, atoms.mass, 1.0)

    def eta_fn(x):
        return np.where(np.asarray(x, dtype=float).reshape(-1) < 0.5,
                        eta_high, eta_low)

    def margin_probabilities(deltas):
        deltas = np.asarray(deltas, dtype=float)
        gaps = np.abs(atoms.eta - theta_star)
        return np.array([atoms.mass[(gaps > 0) & (gaps <= d)].sum() for d in deltas])

    return AnalyticDistribution(
        name="two_point", d=1, eta=eta_fn, theta_star=float(theta_star),
        sampler=lambda rng, n: rng.integers(0, 2, size=n).astype(float)[:, None],
        discretizer=lambda n_atoms, seed=0: atoms,
        margin=MarginSpec(alpha=math.inf, delta0=1.0 / 12.0),
        margin_probabilities=margin_probabilities,
        extras={"atoms": atoms},
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
    C_phi: float | None = None  # resolved at build time when omitted
    rho: float | None = None    # smallest feasible dyadic value when omitted
    sigma: tuple | None = None  # +-1 per active cell; random when omitted
    L: float = 1.0

    def __post_init__(self):
        if self.d < 1 or self.q < 1:
            raise ValueError("d and q must be positive integers")
        if not (self.beta > 0):
            raise ValueError("beta must be positive")
        if not (1 <= self.m <= self.q ** self.d):
            raise ValueError("need 1 <= m <= q^d")
        if self.m >= self.q ** self.d:
            raise ValueError("need m < q^d so the bulk ball has positive volume")
        if not (0.0 < self.w <= 1.0 / self.m):
            raise ValueError("need 0 < w <= 1/m")
        if not (self.m * self.w < 0.5):
            raise ValueError("need m*w < 1/2 (tau formula and mass budget)")
        if self.sigma is not None and len(self.sigma) != self.m:
            raise ValueError("sigma must have length m")


def _ball_volume(d: int, r: float) -> float:
    return math.pi ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0) * r ** d


def _holder_ok(profile: Callable, lo: float, hi: float, beta: float, L: float,
               n_grid: int = 160) -> bool:
    """Pairwise numeric Holder check of a radial profile on [lo, hi]."""
    r = np.linspace(lo, hi, n_grid)
    f = np.asarray(profile(r), dtype=float)
    df = np.abs(f[:, None] - f[None, :])
    dr = np.abs(r[:, None] - r[None, :]) ** beta
    mask = dr > 0
    return bool(np.all(df[mask] <= L * dr[mask] * (1.0 + 1e-9) + 1e-12))


def compute_bprime(p: HardFamilyParams, u_override: Callable | None = None,
                   C_phi: float | None = None) -> float:
    """Average bump height over one mass-carrying ball:
    integral of phi d(mu) over a cell divided by the cell's mu-mass.

    Since mu is constant on the ball, this reduces to a radial quadrature of
    u(q r) against r^{d-1} over the ball radius 1/(4q)."""
    c_phi = C_phi if C_phi is not None else p.C_phi
    if c_phi is None:
        raise ValueError("C_phi is unresolved; build the family first")
    rb = 1.0 / (4.0 * p.q)
    num, num_err = quad(lambda r: float(bump_u(p.q * r, u_override)) * r ** (p.d - 1),
                        0.0, rb, epsabs=0.0, epsrel=1e-10, limit=200)
    den = rb ** p.d / p.d
    if not np.isfinite(num) or num_err > 1e-8 * max(num, 1e-300):
        raise ArithmeticError("bump quadrature did not converge")
    return c_phi * p.q ** (-p.beta) * num / den


def _default_c_phi(p: HardFamilyParams) -> float:
    # Largest halving-search value compatible with b' <= 1/8 and with the
    # numeric Holder check of the radial bump profile at the family's (beta, L).
    c = 0.99 * p.q ** p.beta / 8.0

    def profile(r, c_phi):
        return c_phi * p.q ** (-p.beta) * bump_u(p.q * np.asarray(r))

    for _ in range(60):
        if _holder_ok(lambda r: profile(r, c), 0.0, 1.0 / p.q, p.beta, p.L):
            return c
        c *= 0.5
    raise ConstructionError("no bump amplitude satisfies the smoothness check")


def _resolve_rho(p: HardFamilyParams, tau: float) -> float:
    sqrt_d = math.sqrt(p.d)
    for rho in (1.0 * 2 ** i for i in range(0, 9)):
        def profile(r):
            return (tau - 0.25) * bump_v((np.asarray(r) - sqrt_d) / rho) + 0.25

        if _holder_ok(profile, sqrt_d, sqrt_d + rho, p.beta, p.L):
            return rho
    raise ConstructionError("no annulus width on the dyadic grid satisfies "
                            "the smoothness check")


def build_hard_family(p: HardFamilyParams, seed: int = 0,
                      u_override: Callable | None = None) -> AnalyticDistribution:
    """Grid-of-bumps construction with the optimal threshold pinned at 1/4.

    eta takes 1/4 +- sigma_j * phi on the mirrored active cells, 1/4 on the
    rest of the central ball, tau far outside, and a smooth radial bridge on
    the annulus.  The marginal density places mass w on a small ball inside
    each active cell (and its mirror) and the rest on a far-away bulk ball.
    """
    q, m, w, d, beta = p.q, p.m, p.w, p.d, p.beta
    c_phi = p.C_phi if p.C_phi is not None else _default_c_phi(p)
    if c_phi <= 0:
        raise ConstructionError("C_phi must be positive")
    resolved = HardFamilyParams(d=d, beta=beta, q=q, m=m, w=w, C_phi=c_phi,
                                rho=p.rho, sigma=p.sigma, L=p.L)
    b_prime = compute_bprime(resolved, u_override=u_override)
    if b_prime > 1.0 / 8.0 + 1e-12:
        raise ConstructionError(
            f"b_prime = {b_prime:.6g} violates the regime bound b_prime <= 1/8")
    mw = m * w
    tau = 1.0 / 3.0 + (1.0 / 12.0 - 2.0 * b_prime / 3.0) * (2.0 * mw / (1.0 - 2.0 * mw))
    if not (0.25 < tau <= 1.0):
        raise ConstructionError(f"tau = {tau:.6g} outside (1/4, 1]; the mass "
                                "budget m*w <= 1/2 is required")
    rho = p.rho if p.rho is not None else _resolve_rho(resolved, tau)
    rng = np.random.default_rng(seed)
    if p.sigma is not None:
        sigma = np.asarray(p.sigma, dtype=float)
        if not np.all(np.isin(sigma, (-1.0, 1.0))):
            raise ConstructionError("sigma entries must be +-1")
    else:
        sigma = rng.choice([-1.0, 1.0], size=m)

    sqrt_d = math.sqrt(d)
    phi_max = c_phi * q ** (-beta)
    ball_r = 1.0 / (4.0 * q)
    lam_a0 = 1.0 - m * q ** (-d)
    r0 = (lam_a0 / _ball_volume(d, 1.0)) ** (1.0 / d)
    a0_center = np.zeros(d)
    a0_center[0] = sqrt_d + rho + 2.0 * r0  # clear of the annulus ball
    bulk_mass = 1.0 - 2.0 * mw

    # Active grid points in C-order over cell indices.
    ks = np.stack(np.unravel_index(np.arange(m), (q,) * d), axis=1)
    centers = (2.0 * ks + 1.0) / (2.0 * q)  # (m, d)

    def nearest_grid(x_pos):
        k = np.clip(np.floor(x_pos * q), 0, q - 1)
        return (2.0 * k + 1.0) / (2.0 * q)

    def cell_rank(x_pos):
        k = np.clip(np.floor(x_pos * q), 0, q - 1).astype(int)
        return np.ravel_multi_index(k.T, (q,) * d)

    def phi(x_pos):
        z = nearest_grid(x_pos)
        r = np.linalg.norm(x_pos - z, axis=1)
        return phi_max * bump_u(q * r, u_override)

    def xi(r):
        return (tau - 0.25) * bump_v((r - sqrt_d) / rho) + 0.25

    def eta_fn(x):
        x = np.asarray(x, dtype=float).reshape(-1, d)
        r = np.linalg.norm(x, axis=1)
        out = np.full(x.shape[0], tau)
        ann = (r >= sqrt_d) & (r < sqrt_d + rho)
        out[ann] = xi(r[ann])
        inside = r < sqrt_d
        out[inside] = 0.25
        in_cube = inside & np.all((x >= 0.0) & (x <= 1.0), axis=1)
        if np.any(in_cube):
            xp = x[in_cube]
            rank = cell_rank(xp)
            active = rank < m
            if np.any(active):
                vals = out[in_cube]
                vals[active] = 0.25 + sigma[rank[active]] * phi(xp[active])
                out[in_cube] = vals
        in_mirror = inside & np.all((x <= 0.0) & (x >= -1.0), axis=1)
        if np.any(in_mirror):
            xp = -x[in_mirror]
            rank = cell_rank(xp)
            active = rank < m
            if np.any(active):
                vals = out[in_mirror]
                vals[active] = 0.25 - sigma[rank[active]] * phi(xp[active])
                out[in_mirror] = vals
        return np.clip(out, 0.0, 1.0)

    ball_density = w / _ball_volume(d, ball_r)
    bulk_density = bulk_mass / _ball_volume(d, r0)

    def density(x):
        x = np.asarray(x, dtype=float).reshape(-1, d)
        out = np.zeros(x.shape[0])
        for s in (1.0, -1.0):
            xs = s * x
            in_cube = np.all((xs >= 0.0) & (xs <= 1.0), axis=1)
            if np.any(in_cube):
                xp = xs[in_cube]
                z = nearest_grid(xp)
                close = np.linalg.norm(xp - z, axis=1) <= ball_r
                active = cell_rank(xp) < m
                vals = out[in_cube]
                vals[close & active] = ball_density
                out[in_cube] = vals
        in_bulk = np.linalg.norm(x - a0_center, axis=1) <= r0
        out[in_bulk] = bulk_density
        return out

    def _uniform_in_ball(rng_, n, center, radius):
        u = rng_.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rad = radius * rng_.random(n) ** (1.0 / d)
        return center + u * rad[:, None]

    comp_centers = np.vstack([centers, -centers, a0_center[None, :]])
    comp_radii = np.concatenate([np.full(2 * m, ball_r), [r0]])
    comp_masses = np.concatenate([np.full(2 * m, w), [bulk_mass]])

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

    def discretizer(n_atoms, seed_=0):
        rng_ = np.random.default_rng(seed_)
        per = max(1, n_atoms // comp_masses.size)
        points, masses = [], []
        for idx in range(comp_masses.size):
            pts = _uniform_in_ball(rng_, per, comp_centers[idx], comp_radii[idx])
            points.append(pts)
            masses.append(np.full(per, comp_masses[idx] / per))
        support = np.vstack(points)
        return DiscreteDistribution(support=support,
                                    mass=np.concatenate(masses),
                                    eta=eta_fn(support))

    def margin_probabilities(deltas):
        deltas = np.asarray(deltas, dtype=float)
        gaps = np.array([phi_max, tau - 0.25])
        masses = np.array([2.0 * mw, bulk_mass])
        return np.array([masses[(gaps > 0) & (gaps <= dl)].sum() for dl in deltas])

    theta_check = solve_threshold(exact_atoms.eta, exact_atoms.mass, 1.0)
    if abs(theta_check - 0.25) > 1e-9:
        raise ConstructionError(f"pinned threshold check failed: {theta_check!r}")

    family = AnalyticDistribution(
        name="hard", d=d, eta=eta_fn, theta_star=0.25, sampler=sampler,
        discretizer=discretizer, density=density,
        density_spec=DensitySpec(mu_min=min(ball_density, bulk_density),
                                 mu_max=max(ball_density, bulk_density),
                                 c0_reg=2.0 ** (-d), r0_reg=min(ball_r, r0)),
        margin=None,  # the exponent depends on how m, w scale with n
        smoothness=SmoothnessSpec(beta=beta, L=p.L),
        margin_probabilities=margin_probabilities,
        extras={"params": resolved, "b_prime": b_prime, "tau": tau, "rho": rho,
                "sigma": sigma, "phi_max": phi_max, "exact_atoms": exact_atoms,
                "a0_center": a0_center, "a0_radius": r0,
                "ball_radius": ball_r,
                "density_levels": (ball_density, bulk_density)},
    )
    return family


def hard_family_rate_params(n: int, beta: float, d: int, alpha: float,
                            cbar: float = 1.0, cprime: float = 1.0,
                            cdouble: float = 1.0) -> HardFamilyParams:
    """Rate-scaled construction parameters q, w, m for a labeled-sample size.

    Valid only when alpha * beta <= d; the constants default to 1 and are
    clamped so the parameter invariants hold at small n."""
    if alpha * beta > d:
        raise ConstructionError("rate-scaled parameters require alpha*beta <= d")
    q = max(2, int(cbar * n ** (1.0 / (2.0 * beta + d))))
    m = max(1, int(cdouble * q ** (d - alpha * beta)))
    m = min(m, q ** d - 1)
    w = cprime * q ** (-float(d))
    w = min(w, 0.499 / m)
    return HardFamilyParams(d=d, beta=beta, q=q, m=m, w=w)


def hard_family_mean_eta(family: AnalyticDistribution) -> float:
    """E eta(X) = m w / 2 + tau (1 - 2 m w) for the hard family."""
    p = family.extras["params"]
    tau = family.extras["tau"]
    mw = p.m * p.w
    return mw / 2.0 + tau * (1.0 - 2.0 * mw)
