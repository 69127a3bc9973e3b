import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import fscore as fs
from fscore.synthetic import bump_u, bump_v, smoothstep


def test_bump_u_plateau_and_support():
    t = np.array([0.0, 0.25, 0.5, 1.0])
    u = bump_u(t)
    assert u[0] == 1.0 and u[1] == 1.0
    assert u[2] == 0.0 and u[3] == 0.0
    mid = bump_u(np.array([0.3, 0.4]))
    assert np.all((0 < mid) & (mid < 1))


def test_bump_v_ramp():
    assert bump_v(np.array([-1.0]))[0] == 0.0
    assert bump_v(np.array([1.5]))[0] == 1.0
    assert 0 < bump_v(np.array([0.5]))[0] < 1


def test_smoothstep_monotone():
    t = np.linspace(-0.5, 1.5, 101)
    s = smoothstep(t)
    assert np.all(np.diff(s) >= -1e-15)


# ---------------------------------------------------------------------------
# smooth 1-d family


def test_smooth_family_fixed_point():
    fam = fs.make_smooth_1d_family()
    disc = fam.discretize(500_000)
    theta = fs.bayes_threshold(disc, fs.FBetaParams(b=1.0))
    assert theta == pytest.approx(fam.theta_star, abs=1e-5)


def grid_smooth_family(alpha, slope, x0, k=1_000_000):
    """Reference for the closed form: the level by brentq over the exact
    threshold of a k-point midpoint grid, and margin probabilities read off
    that grid, or None where the level cannot be bracketed."""
    grid = (np.arange(k) + 0.5) / k
    dx = grid - x0
    rise = slope * np.sign(dx) * np.abs(dx) ** (1.0 / alpha)

    def gap(c):
        return fs.solve_threshold(np.clip(c + rise, 0.0, 1.0)) - c

    if gap(0.02) <= 0 or gap(0.49) >= 0:
        return None
    level = brentq(gap, 0.02, 0.49, xtol=1e-10)
    # no midpoint sits on x0, so every positive distance counts; a floor
    # such as 1e-12 would drop the points where eta is flat at x0
    dist = np.abs(np.clip(level + rise, 0.0, 1.0) - level)
    return level, lambda deltas: np.array(
        [np.mean((dist > 0) & (dist <= dl)) for dl in deltas])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("slope, x0", [(0.6, 0.5), (0.3, 0.5), (2.0, 0.3),
                                       (1.5, 0.3)])
def test_smooth_family_matches_grid_reference(alpha, slope, x0):
    # (0.6, 0.5) clips eta at 0 for alpha >= 1; (2.0, 0.3) and (1.5, 0.3)
    # clip it at 1
    reference = grid_smooth_family(alpha, slope, x0)
    if reference is None:
        # at alpha = 2, (2.0, 0.3) puts the level above the bracket's 0.49
        with pytest.raises(fs.ConstructionError, match="bracket"):
            fs.make_smooth_1d_family(alpha_target=alpha, slope=slope, x0=x0)
        return
    level, grid_margin = reference
    fam = fs.make_smooth_1d_family(alpha_target=alpha, slope=slope, x0=x0)
    assert fam.theta_star == pytest.approx(level, abs=1e-9)
    caps = np.array([fam.theta_star, 1.0 - fam.theta_star])
    deltas = np.concatenate([[1e-3, 1e-2], caps * (1 - 1e-3), caps * (1 + 1e-3)])
    np.testing.assert_allclose(fam.margin_probabilities(deltas),
                               grid_margin(deltas), rtol=0, atol=2e-6)
    # below both caps and both widths each side contributes (delta/slope)^alpha
    assert fam.margin_probabilities(np.array([1e-4]))[0] == pytest.approx(
        2 * (1e-4 / slope) ** alpha, rel=1e-12)


def test_smooth_family_build_is_small():
    tracemalloc.start()
    try:
        fs.make_smooth_1d_family(alpha_target=2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_smooth_family_margin_exponent_near_one():
    fam = fs.make_smooth_1d_family()
    rep = fs.verify_margin(fam, [0.01, 0.02, 0.05, 0.1])
    assert rep.exponent == pytest.approx(1.0, abs=0.1)


def test_smooth_family_sampling_labels_match_eta():
    fam = fs.make_smooth_1d_family()
    data = fs.sample(fam, 50_000, seed=3, labeled=True)
    mean_eta = float(fam.eta(data.points).mean())
    assert data.labels.mean() == pytest.approx(mean_eta, abs=0.01)


def test_smooth_family_density_uniform():
    fam = fs.make_smooth_1d_family()
    rep = fs.verify_strong_density(fam)
    assert rep["mu_min_observed"] == rep["mu_max_observed"] == 1.0


@pytest.mark.parametrize("kw, name", [
    ({"alpha_target": float("nan")}, "alpha_target"),
    ({"alpha_target": -1.0}, "alpha_target"),
    ({"beta": float("nan")}, "beta"),
    ({"slope": float("inf")}, "slope"),
    ({"slope": float("nan")}, "slope"),
    ({"x0": float("nan")}, "x0"),
])
def test_smooth_family_rejects_bad_parameters(kw, name):
    # slope = inf and alpha_target = nan used to reach brentq, which failed
    # on a NaN function value
    with pytest.raises(fs.ConstructionError, match=name):
        fs.make_smooth_1d_family(**kw)


# ---------------------------------------------------------------------------
# constant and two-point families


def test_constant_family_threshold():
    fam = fs.make_constant_family(eta_value=0.5)
    assert fam.theta_star == pytest.approx(1 / 3, abs=1e-12)
    rep = fs.verify_margin(fam, [0.01, 0.1])
    assert np.all(rep.probabilities == 0.0)
    assert np.isinf(fam.margin.alpha)


def test_constant_family_margin_and_density():
    # |eta - theta*| = 1/2 - 1/3 = 1/6 on all of [0, 1]; the margin reported
    # 0 past it and the density 1 outside [0, 1]
    fam = fs.make_constant_family(0.5)
    np.testing.assert_array_equal(fam.margin_probabilities([0.2]), [1.0])
    np.testing.assert_array_equal(fam.margin_probabilities([1 / 6 - 1e-9]), [0.0])
    # a scalar delta, as the smooth family takes it, failed to iterate
    assert fam.margin_probabilities(0.2) == 1.0
    assert fs.make_two_point_family().margin_probabilities(0.5) == 1.0
    np.testing.assert_array_equal(fam.density([[1.5]]), [0.0])
    np.testing.assert_array_equal(fam.density([[-0.1], [0.0], [0.5], [1.0]]),
                                  [0.0, 1.0, 1.0, 1.0])


def test_two_point_family_exact():
    fam = fs.make_two_point_family(eta_low=0.1, eta_high=0.9)
    assert fam.theta_star == pytest.approx(0.45, abs=1e-12)
    disc = fam.discretize(10)
    assert disc.size == 2
    assert fs.bayes_threshold(disc) == pytest.approx(0.45, abs=1e-12)


# ---------------------------------------------------------------------------
# hard family


def hard_params(**kw):
    base = dict(d=1, beta=1.0, q=8, m=3, w=0.02)
    base.update(kw)
    return fs.HardFamilyParams(**base)


def test_hard_family_threshold_pinned():
    for seed in range(4):
        fam = fs.build_hard_family(hard_params(), seed=seed)
        assert fam.theta_star == 0.25
        atoms = fam.extras["exact_atoms"]
        assert fs.bayes_threshold(atoms) == pytest.approx(0.25, abs=1e-9)


def test_hard_family_tau_balance():
    fam = fs.build_hard_family(hard_params(), seed=0)
    atoms = fam.extras["exact_atoms"]
    lhs = 0.25 * float(atoms.mass @ atoms.eta)
    rhs = float(atoms.mass @ np.clip(atoms.eta - 0.25, 0.0, None))
    assert abs(lhs - rhs) < 1e-12


def test_hard_family_mean_eta_identity():
    fam = fs.build_hard_family(hard_params(), seed=1)
    atoms = fam.extras["exact_atoms"]
    assert fs.hard_family_mean_eta(fam) == pytest.approx(
        float(atoms.mass @ atoms.eta), abs=1e-12)


RATE_NS = (250, 500, 1000, 2000, 4000, 8000, 16000, 32000)


@pytest.mark.parametrize("d, alpha", [(1, 0.5), (1, 1.0), (2, 1.0)])
def test_rate_params_pinned_at_beta_one(d, alpha):
    # C_phi = min(1 / |u|_1, 1/8) = 1/8 whatever q is; the mass balls of
    # radius 1/(4q) sit on the bump's plateau, so b' = phi_max; and the
    # bridge from 1/4 to tau needs no widening
    for n in RATE_NS:
        p = fs.hard_family_rate_params(n, beta=1.0, d=d, alpha=alpha)
        ex = fs.build_hard_family(p, seed=0).extras
        assert ex["C_phi"] == 0.125
        assert ex["phi_max"] == pytest.approx(0.125 / p.q, rel=1e-15)
        assert ex["b_prime"] == ex["phi_max"]
        assert ex["rho"] == 1.0
        # pairwise Holder check of the radial bump profile at constant 1
        r = np.linspace(0.0, 1.0 / p.q, 160)
        f = ex["phi_max"] * bump_u(p.q * r)
        i, j = np.triu_indices(r.size, k=1)
        assert np.all(np.abs(f[i] - f[j]) <= (r[j] - r[i]) ** p.beta * (1 + 1e-9))
    with pytest.raises(ValueError, match="beta"):
        fs.hard_family_rate_params(1000, beta=1.5, d=1, alpha=0.5)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_rate_params_always_build(d, alpha):
    # m w is clamped at 4/9, where tau = 1 - 16 b'/3 stays in (1/4, 1]
    for n in RATE_NS:
        p = fs.hard_family_rate_params(n, beta=1.0, d=d, alpha=alpha)
        fam = fs.build_hard_family(p, seed=0)
        assert p.m * p.w <= 4 / 9 + 1e-15
        assert fs.bayes_threshold(fam.extras["exact_atoms"]) == pytest.approx(
            0.25, abs=1e-9)


def test_hard_family_margin_two_term_bound():
    p = hard_params()
    fam = fs.build_hard_family(p, seed=2)
    phi_max = fam.extras["phi_max"]
    mw = p.m * p.w
    deltas = np.array([phi_max / 2, phi_max, 0.03, 0.1, 0.3])
    rep = fs.verify_margin(fam, deltas)
    bound = 2 * mw * (deltas >= phi_max - 1e-12) + 12.0 * deltas
    assert np.all(rep.probabilities <= bound + 1e-9)


def test_hard_family_eta_cases():
    p = hard_params()
    fam = fs.build_hard_family(p, seed=3)
    sigma = fam.extras["sigma"]
    atoms = fam.extras["exact_atoms"]
    phi_max = fam.extras["phi_max"]
    # component atoms: m signed cells, m mirrored (opposite sign), 1 remote
    eta = atoms.eta
    for j in range(p.m):
        assert eta[j] == pytest.approx(0.25 + sigma[j] * phi_max, abs=1e-12)
        assert eta[p.m + j] == pytest.approx(0.25 - sigma[j] * phi_max, abs=1e-12)
    assert eta[-1] == pytest.approx(fam.extras["tau"], abs=1e-12)


def test_hard_family_density_levels():
    p = hard_params()
    fam = fs.build_hard_family(p, seed=0)
    levels = fam.extras["density_levels"]
    assert len(levels) == 2
    # the component table: each mass ball carries its own level at its centre
    np.testing.assert_array_equal(fam.density(fam.extras["exact_atoms"].support),
                                  [levels[0]] * (2 * p.m) + [levels[1]])
    # sampled points carry positive density
    x = fs.sample(fam, 2000, seed=5, labeled=False).points
    dens = fam.density(x)
    assert np.all(dens > 0)


def test_hard_family_sampler_mass_split():
    p = hard_params()
    fam = fs.build_hard_family(p, seed=0)
    x = fs.sample(fam, 40_000, seed=9, labeled=False).points
    near = np.abs(x[:, 0]) <= np.sqrt(p.d) + 1e-9
    # the grid balls (and mirrors) carry 2mw of the mass
    assert near.mean() == pytest.approx(2 * p.m * p.w, abs=0.01)


def test_hard_family_sigma_drawn_from_seed():
    # the Holder constant is 1 and sigma comes from the seed alone; a
    # Generator seed is used as it is
    assert [f.name for f in dataclasses.fields(fs.HardFamilyParams)] == [
        "d", "beta", "q", "m", "w"]
    p = hard_params()
    for seed in (0, 5):
        want = np.random.default_rng(seed).choice([-1.0, 1.0], size=p.m)
        np.testing.assert_array_equal(fs.build_hard_family(p, seed=seed).extras["sigma"],
                                      want)
        fam = fs.build_hard_family(p, seed=np.random.default_rng(seed))
        np.testing.assert_array_equal(fam.extras["sigma"], want)


def test_hard_family_invalid_params():
    with pytest.raises(ValueError):
        fs.HardFamilyParams(d=1, beta=1.0, q=8, m=0, w=0.02)
    with pytest.raises(ValueError):
        fs.HardFamilyParams(d=1, beta=1.0, q=2, m=1, w=0.6)  # m w >= 1/2
    with pytest.raises(ValueError, match=r"need m < q\^d"):
        fs.HardFamilyParams(d=2, beta=1.0, q=2, m=4, w=0.01)
    with pytest.raises(ValueError, match="need 0 < w <= 1/m"):
        fs.HardFamilyParams(d=1, beta=1.0, q=8, m=3, w=0.34)


def test_hard_family_tau_bound_names_its_condition():
    # m w = 0.48 is below 1/2, but tau <= 1 needs m w <= 4/9
    p = fs.HardFamilyParams(d=1, beta=1.0, q=64, m=3, w=0.16)
    with pytest.raises(fs.ConstructionError,
                       match=r"tau = 2\.30208 outside \(1/4, 1\]; .*m\*w <= 4/9.*0\.48"):
        fs.build_hard_family(p)
    fs.build_hard_family(fs.HardFamilyParams(d=1, beta=1.0, q=64, m=3, w=4 / 27))


def test_hard_family_integer_params():
    # q = 8.5 used to build and fail later with a TypeError; True was taken as 1
    for kw, name in (({"q": 8.5}, "q"), ({"d": 1.5}, "d"), ({"m": 2.5}, "m"),
                     ({"q": True}, "q"), ({"d": 0}, "d"), ({"q": "8"}, "q")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            hard_params(**kw)
    p = hard_params(q=8.0, m=np.int64(3))
    assert type(p.q) is int and type(p.m) is int
    assert fs.build_hard_family(p, seed=0).extras["params"].q == 8


def test_sample_size_must_be_a_positive_integer():
    # a fraction or a boolean failed inside numpy naming nothing, a negative
    # n in the rate parameters raised about a complex number, and n = 0
    # gave q = 2
    fam = fs.make_constant_family()
    for n in (2.5, True, 0, -5, "10"):
        with pytest.raises(ValueError, match="^n must"):
            fs.sample(fam, n, 0)
        with pytest.raises(ValueError, match="^n must"):
            fs.hard_family_rate_params(n, 1.0, 2, 1.0)
    assert fs.sample(fam, 3.0, 0).n == 3
    assert fs.hard_family_rate_params(2000.0, 1.0, 2, 1.0) == \
        fs.hard_family_rate_params(2000, 1.0, 2, 1.0)


def test_rate_params_helper():
    p = fs.hard_family_rate_params(2000, beta=1.0, d=1, alpha=1.0)
    assert p.q == int(2000 ** (1 / 3))
    assert p.m >= 1 and p.m * p.w < 0.5
    with pytest.raises(ValueError):
        fs.hard_family_rate_params(2000, beta=2.0, d=1, alpha=1.0)  # alpha beta > d


def test_discretizer_reproducible():
    fam = fs.build_hard_family(hard_params(), seed=0)
    a = fam.discretize(5000, seed=1)
    b = fam.discretize(5000, seed=1)
    np.testing.assert_array_equal(a.support, b.support)
    np.testing.assert_array_equal(a.eta, b.eta)


def test_crossing_level_is_a_sign_change_between_adjacent_floats():
    # on every bracketed (alpha, slope, x0) of a grid, the level L has
    # f(L) >= 0 > f(the float below L), and it lies within 128 ulps of
    # scipy's brentq root
    from fscore import synthetic
    bracketed = 0
    for alpha in np.geomspace(0.2, 5.0, 29):
        for slope in np.geomspace(0.05, 20.0, 30):
            for x0 in np.linspace(0.05, 0.95, 19):
                equation = synthetic._level_equation(float(slope), float(x0), float(alpha))
                if not (equation(0.02) < 0 < equation(0.49)):
                    continue
                bracketed += 1
                level = synthetic._crossing(equation, 0.02, 0.49)
                assert equation(np.nextafter(level, 0.0)) < 0 <= equation(level), \
                    (alpha, slope, x0)
                root = brentq(equation, 0.02, 0.49, xtol=1e-15)
                assert abs(level - root) <= 128 * np.spacing(root), (alpha, slope, x0)
    assert bracketed > 12_000
