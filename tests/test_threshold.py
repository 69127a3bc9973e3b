import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fscore as fs


def test_three_point_rational_root():
    # mean = 0.6; root of theta * 0.6 = mean((s - theta)_+) is 8/19.
    s = fs.ScoreSample(values=np.array([0.2, 0.6, 1.0]))
    assert fs.empirical_threshold(s, fs.FBetaParams(b=1.0)) == pytest.approx(8 / 19, abs=1e-12)


def test_all_zero_scores_warn_and_return_zero():
    s = fs.ScoreSample(values=np.zeros(5))
    with pytest.warns(fs.DegenerateScoreSample):
        assert fs.empirical_threshold(s) == 0.0


def test_scores_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        fs.ScoreSample(values=np.array([0.5, 1.2]))


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        fs.ScoreSample(values=np.array([]))


def test_nonpositive_tol_rejected():
    with pytest.raises(ValueError):
        fs.solve_threshold_bisect(np.array([0.5]), np.array([1.0]), tol=0.0)


def test_bisect_matches_exact_within_tol():
    rng = np.random.default_rng(7)
    for _ in range(30):
        values = rng.random(50)
        exact = fs.empirical_threshold(fs.ScoreSample(values=values))
        approx = fs.solve_threshold_bisect(values, np.full(50, 1 / 50), tol=1e-6)
        assert approx == pytest.approx(exact, abs=1e-6)


def test_shuffled_sample_same_threshold():
    rng = np.random.default_rng(12)
    for size in (1, 7, 1000, 200_000):
        values = np.round(rng.random(size), 3)  # ties included
        theta = fs.empirical_threshold(fs.ScoreSample(values=values))
        for _ in range(3):
            shuffled = rng.permutation(values)
            assert fs.empirical_threshold(fs.ScoreSample(values=shuffled)) == theta


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
       st.floats(0.5, 2.0))
def test_empirical_threshold_invariants(scores, b):
    values = np.array(scores)
    params = fs.FBetaParams(b=b)
    s = fs.ScoreSample(values=values)
    if values.mean() == 0.0:
        with pytest.warns(fs.DegenerateScoreSample):
            assert fs.empirical_threshold(s, params) == 0.0
        return
    theta = fs.empirical_threshold(s, params)
    assert 0.0 <= theta <= params.score_cap + 1e-12


def test_empirical_cdf_right_continuous():
    cdf = fs.empirical_cdf(np.array([0.2, 0.4, 0.4, 0.8]))
    assert cdf(0.1) == 0.0
    assert cdf(0.2) == 0.25
    assert cdf(0.4) == 0.75
    assert cdf(1.0) == 1.0


def test_cdf_gap_bound_point_mass():
    # Point mass at 0.5; sample (0.5, 0.5, 0.7).  L1 gap = 0.2 * (1/3),
    # divided by P(Y=1) = 0.5.
    def cdf(t):
        return 1.0 if t >= 0.5 else 0.0

    s = fs.ScoreSample(values=np.array([0.5, 0.5, 0.7]))
    got = fs.cdf_gap_bound(cdf, s, p_y1=0.5, breakpoints=np.array([0.5]))
    assert got == pytest.approx((0.2 / 3) / 0.5, abs=1e-12)


def test_cdf_gap_bound_quadrature_matches_breakpoints():
    def cdf(t):
        return min(max(float(t), 0.0), 1.0)  # U[0,1] scores

    s = fs.ScoreSample(values=np.array([0.1, 0.5, 0.9]))
    smooth = fs.cdf_gap_bound(cdf, s, p_y1=0.5)
    assert smooth > 0
    # identical sample against its own empirical CDF -> near-zero on knots
    assert fs.cdf_gap_bound(fs.empirical_cdf(s.values), s, p_y1=0.5,
                            breakpoints=s.values) == pytest.approx(0.0, abs=1e-12)


def test_cdf_gap_bound_rejects_bad_p():
    s = fs.ScoreSample(values=np.array([0.5]))
    with pytest.raises(ValueError):
        fs.cdf_gap_bound(lambda t: 0.0, s, p_y1=0.0)


def test_gap_bound_controls_threshold_error():
    rng = np.random.default_rng(1)
    p = fs.FBetaParams(b=1.0)
    for _ in range(50):
        dist = fs.random_distribution(rng)
        theta_star = fs.bayes_threshold(dist, p)
        scores = np.clip(rng.choice(dist.eta, size=200, p=dist.mass)
                         + rng.normal(0, 0.03, 200), 0, 1)
        s = fs.ScoreSample(values=scores)
        theta_hat = fs.empirical_threshold(s, p)
        eta_sorted = np.sort(dist.eta)
        cum = np.cumsum(dist.mass[np.argsort(dist.eta)])

        def cdf(t, eta_sorted=eta_sorted, cum=cum):
            j = np.searchsorted(eta_sorted, t, side="right")
            return 0.0 if j == 0 else float(cum[j - 1])

        bound = fs.cdf_gap_bound(cdf, s, dist.p_y1, breakpoints=dist.eta)
        assert bound >= abs(theta_hat - theta_star) - 1e-10


def test_nan_residual_fails_the_check(monkeypatch):
    # `abs(residual) > limit` is False for a NaN residual, which let a NaN
    # root through both residual checks
    from fscore import core, threshold
    for module in (core, threshold):
        monkeypatch.setattr(module, "solve_threshold", lambda *a, **k: np.nan)
    with pytest.raises(ArithmeticError, match="residual"):
        fs.bayes_threshold(fs.uniform_eta_grid(10))
    with pytest.raises(ArithmeticError, match="residual"):
        fs.empirical_threshold(fs.ScoreSample(values=np.array([0.2, 0.7])))


def test_solve_memory_bounded():
    # the uniform solve holds a sorted copy and one running-sum buffer
    values = np.random.default_rng(4).random(4_000_000)
    sample = fs.ScoreSample(values=values)
    tracemalloc.start()
    try:
        fs.empirical_threshold(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * values.nbytes
