import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    # a NaN tol ran no bisection: on uniform_eta_grid(50) it returned the
    # midpoint 0.25 of [0, 1/2], where theta* = 0.382
    d = fs.uniform_eta_grid(50)
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol"):
            fs.solve_threshold_bisect(d.eta, d.mass, tol=tol)


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
# the mean of these scores underflows to 0.0, but one of them is positive
@example(scores=[0.0, 5e-324], b=1.0)
def test_empirical_threshold_invariants(scores, b):
    values = np.array(scores)
    params = fs.FBetaParams(b=b)
    s = fs.ScoreSample(values=values)
    if values.max() == 0.0:
        with pytest.warns(fs.DegenerateScoreSample):
            assert fs.empirical_threshold(s, params) == 0.0
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", fs.DegenerateScoreSample)
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


def test_cdf_gap_bound_zero_against_own_cdf():
    s = fs.ScoreSample(values=np.array([0.1, 0.5, 0.9]))
    # identical sample against its own empirical CDF -> near-zero on knots
    assert fs.cdf_gap_bound(fs.empirical_cdf(s.values), s, p_y1=0.5,
                            breakpoints=s.values) == pytest.approx(0.0, abs=1e-12)


def test_cdf_gap_bound_rejects_bad_p():
    # a NaN passed the old check p_y1 <= 0 and returned a NaN bound
    s = fs.ScoreSample(values=np.array([0.5]))
    for p_y1 in (0.0, -0.5, float("nan"), float("inf"), "0.5", True):
        with pytest.raises(ValueError, match="^p_y1 must"):
            fs.cdf_gap_bound(lambda t: 0.0, s, p_y1=p_y1, breakpoints=[0.5])


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
    # `abs(residual) > limit` is False for a NaN residual, which would let a
    # NaN root through the residual check of solve_threshold
    from fscore import core
    monkeypatch.setattr(core, "_segment_scan", lambda *a, **k: np.nan)
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


def test_degenerate_only_when_no_score_is_positive():
    # a mean that underflows to 0 is not "no positive score": neither the
    # whole solve nor the band solve warns, and both give the same root
    import warnings
    from fscore import plugin
    tiny = np.zeros((1 << 18) + 7)
    tiny[3] = 5e-324
    tiny.setflags(write=False)
    assert float(tiny.mean()) == 0.0
    identity = SimpleNamespace(evaluate=lambda x: x[:, 0].copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error", fs.DegenerateScoreSample)
        small = fs.empirical_threshold(fs.ScoreSample(values=[5e-324, 0, 0, 0]))
        whole = fs.empirical_threshold(fs.ScoreSample(values=tiny))
        band = plugin._band_threshold(identity, fs.UnlabeledDataset(points=tiny[:, None]),
                                      fs.FBetaParams())
    assert 0.0 <= small <= 5e-324 and band == whole
    zeros = np.zeros((1 << 18) + 7)
    with pytest.warns(fs.DegenerateScoreSample, match="no score is positive"):
        assert plugin._band_threshold(identity, fs.UnlabeledDataset(points=zeros[:, None]),
                                      fs.FBetaParams()) == 0.0
