import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fscore as fs


def two_point():
    return fs.DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                   mass=np.array([0.5, 0.5]),
                                   eta=np.array([0.9, 0.1]))


def test_two_point_threshold_exact():
    assert fs.bayes_threshold(two_point(), fs.FBetaParams(b=1.0)) == pytest.approx(0.45, abs=1e-12)


def test_two_point_bayes_classifier():
    np.testing.assert_array_equal(fs.bayes_classifier(two_point()), [1, 0])


def test_two_point_scores_and_excess():
    d = two_point()
    p = fs.FBetaParams(b=1.0)
    assert fs.population_fbeta(d, np.array([1, 1]), p) == pytest.approx(1 / 3, abs=1e-14)
    assert fs.excess_fbeta(d, np.array([1, 1]), p) == pytest.approx(7 / 60, abs=1e-14)


def test_constant_half_threshold():
    d = fs.DiscreteDistribution(support=np.array([[0.0]]), mass=np.array([1.0]),
                                eta=np.array([0.5]))
    assert fs.bayes_threshold(d, fs.FBetaParams(b=1.0)) == pytest.approx(1 / 3, abs=1e-10)


def test_constant_one_hits_cap():
    d = fs.DiscreteDistribution(support=np.array([[0.0]]), mass=np.array([1.0]),
                                eta=np.array([1.0]))
    for b in (0.5, 1.0, 2.0):
        p = fs.FBetaParams(b=b)
        assert fs.bayes_threshold(d, p) == pytest.approx(p.score_cap, abs=1e-12)


def test_uniform_grid_threshold_analytic_root():
    # theta* for eta ~ U[0,1], b=1 solves theta^2 - 3 theta + 1 = 0.
    d = fs.uniform_eta_grid(10 ** 6)
    expected = (3 - np.sqrt(5)) / 2
    assert fs.bayes_threshold(d, fs.FBetaParams(b=1.0)) == pytest.approx(expected, abs=1e-4)


def test_exact_and_bisect_agree():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = fs.random_distribution(rng)
        a = fs.solve_threshold(d.eta, d.mass, 1.0)
        b = fs.solve_threshold_bisect(d.eta, d.mass, 1.0, tol=1e-13)
        assert a == pytest.approx(b, abs=1e-12)


def test_threshold_equation_signs():
    d = two_point()
    theta = fs.bayes_threshold(d)
    g = fs.threshold_equation(np.array([theta - 0.01, theta, theta + 0.01]),
                              d.eta, d.mass, 1.0)
    assert g[0] < 0 < g[2]
    assert abs(g[1]) < 1e-12


def test_degenerate_all_zero_scores():
    assert fs.solve_threshold(np.zeros(4), np.full(4, 0.25), 1.0) == 0.0


def test_zero_positive_mass_rejected_at_construction():
    with pytest.raises(ValueError):
        fs.DiscreteDistribution(support=np.array([[0.0]]), mass=np.array([1.0]),
                                eta=np.array([0.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
       st.floats(0.25, 4.0))
def test_threshold_invariants(etas, b):
    values = np.array(etas)
    weights = np.full(values.size, 1.0 / values.size)
    theta = fs.solve_threshold(values, weights, b)
    cap = 1.0 / (1.0 + b * b)
    assert 0.0 <= theta <= cap + 1e-12
    if float(weights @ values) > 0:
        resid = fs.threshold_equation(theta, values, weights, b)
        assert abs(resid) < 1e-9
    # the uniform route (no weights) solves the same equation
    assert fs.solve_threshold(values, b=b) == pytest.approx(theta, abs=1e-12)
    assert fs.solve_threshold(values, b=b) == pytest.approx(
        fs.solve_threshold_bisect(values, weights, b, tol=1e-13), abs=1e-11)


def uniform_route_cases():
    rng = np.random.default_rng(21)
    yield np.array([0.3])
    yield np.array([1.0])
    yield np.zeros(6)
    yield np.array([0.0, 0.0, 0.0, 0.8])
    yield np.full(9, 0.25)
    yield np.repeat([0.1, 0.5, 0.5, 0.9], 5)
    for size in (2, 17, 500):
        yield rng.random(size)
        yield rng.integers(0, 5, size) / 4.0  # heavy ties, zeros and ones


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_uniform_route_matches_weighted_and_bisect(b):
    for values in uniform_route_cases():
        weights = np.full(values.size, 1.0 / values.size)
        theta = fs.solve_threshold(values, b=b)
        if not values.any():
            assert theta == 0.0
            continue
        assert theta == pytest.approx(fs.solve_threshold(values, weights, b),
                                      abs=1e-12)
        assert theta == pytest.approx(
            fs.solve_threshold_bisect(values, weights, b, tol=1e-13), abs=1e-11)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 8 - 1))
def test_bayes_rule_dominates_random_rules(code):
    rng = np.random.default_rng(code)
    d = fs.random_distribution(rng, k_max=8)
    p = fs.FBetaParams(b=1.0)
    g = np.array([(code >> i) & 1 for i in range(d.size)])
    best = fs.population_fbeta(d, fs.bayes_classifier(d, p), p)
    assert best >= fs.population_fbeta(d, g, p) - 1e-12


def test_excess_modes_agree():
    rng = np.random.default_rng(11)
    p = fs.FBetaParams(b=1.0)
    for _ in range(100):
        d = fs.random_distribution(rng)
        g = rng.integers(0, 2, size=d.size)
        direct = fs.excess_fbeta(d, g, p, mode="direct")
        lemma = fs.excess_fbeta(d, g, p, mode="lemma1")
        assert direct == pytest.approx(lemma, abs=1e-12)
        assert direct >= -1e-12


def test_unnormalized_scaling():
    d = two_point()
    g = np.array([1, 0])
    norm = fs.population_fbeta(d, g, fs.FBetaParams(b=1.0, normalized=True))
    raw = fs.population_fbeta(d, g, fs.FBetaParams(b=1.0, normalized=False))
    assert raw == pytest.approx(2.0 * norm, abs=1e-14)
