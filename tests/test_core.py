import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fscore as fs
from fscore.core import _SCAN_CHUNK, _SEGMENT_SLACK, lemma1_excess


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
    # the values are taken in chunks, _SCAN_CHUNK of them for one theta;
    # the dense formula forms every (theta, value) pair at once
    rng = np.random.default_rng(5)
    theta = np.array([0.0, 0.2, 0.45])
    for size in (_SCAN_CHUNK - 1, _SCAN_CHUNK + 1, 3 * _SCAN_CHUNK + 1):
        values = rng.random(size)
        for weights in (None, rng.random(size)):
            w = np.ones(size) if weights is None else weights
            dense = (4.0 * theta * float(w @ values)
                     - np.clip(values[None, :] - theta[:, None], 0.0, None) @ w)
            got = fs.threshold_equation(theta, values, weights, 2.0)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12 * size)
            one = fs.threshold_equation(theta[1], values, weights, 2.0)
            assert isinstance(one, float)
            assert one == pytest.approx(dense[1], abs=1e-12 * size)


def test_every_theta_root_is_checked(monkeypatch):
    # a root off by 1e-3 leaves a residual far above ROOT_RESIDUAL_TOL at
    # every caller of solve_threshold
    from fscore import core, harness
    family = fs.make_smooth_1d_family()
    scan = core._segment_scan
    monkeypatch.setattr(core, "_segment_scan",
                        lambda v, w, b2: scan(v, w, b2) + 1e-3)
    calls = [
        lambda: fs.bayes_threshold(fs.uniform_eta_grid(10)),
        lambda: fs.empirical_threshold(fs.ScoreSample(values=np.array([0.2, 0.7]))),
        fs.make_two_point_family,
        lambda: harness._Oracle(family, 1000, 1.0),
    ]
    for call in calls:
        with pytest.raises(ArithmeticError, match="residual"):
            call()


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


def whole_array_scan(values, weights, b):
    """The segment scan over whole-array suffix sums: sort, take
    np.cumsum(x[::-1])[::-1] of the (weighted) values and the weights, form
    every candidate and return the first admissible one."""
    if weights is None:
        v = np.sort(values)
        active = np.arange(v.size, 0, -1, dtype=float)
        tail = np.cumsum(v[::-1])[::-1]
    else:
        order = np.argsort(values)
        v, w = values[order], weights[order]
        active = np.cumsum(w[::-1])[::-1]
        tail = np.cumsum((w * v)[::-1])[::-1]
    if tail[0] <= 0.0:
        return 0.0
    b2 = b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = tail / (b2 * tail[0] + active)
    lower = np.concatenate(([0.0], v[:-1]))
    ok = (cand <= v + _SEGMENT_SLACK) & (cand >= lower - _SEGMENT_SLACK)
    assert ok.any()
    return min(max(float(cand[np.argmax(ok)]), 0.0), 1.0 / (1.0 + b2))


def chunk_edge_cases():
    rng = np.random.default_rng(31)
    for size in (1, _SCAN_CHUNK - 1, _SCAN_CHUNK, _SCAN_CHUNK + 1, 3 * _SCAN_CHUNK + 1):
        many_zeros = rng.random(size)
        many_zeros[rng.random(size) < 0.9] = 0.0
        for kind, raw in (("random", rng.random(size)),
                          ("ties", rng.integers(0, 5, size) / 4.0),
                          ("many zeros", many_zeros),
                          ("all zeros", np.zeros(size))):
            weights = rng.random(size)
            # sorted per chunk, the values descend at the chunk edges
            per_chunk = np.concatenate([np.sort(raw[i:i + _SCAN_CHUNK])
                                        for i in range(0, size, _SCAN_CHUNK)])
            for order, ordered in (("unsorted", raw), ("sorted", np.sort(raw)),
                                   ("sorted per chunk", per_chunk)):
                for frozen in (False, True):
                    values = ordered.copy()
                    values.setflags(write=not frozen)
                    yield f"{size} {kind} {order} frozen={frozen}", values, weights


def test_chunked_scan_matches_whole_array_scan():
    # the suffix sums are formed per chunk above carries from a first pass,
    # and must give the bits of the whole-array sums on every route
    for label, values, weights in chunk_edge_cases():
        before = values.copy()
        for w in (None, weights):
            got = fs.solve_threshold(values, w, 2.0)
            want = whole_array_scan(values, w, 2.0)
            assert got == want and np.signbit(got) == np.signbit(want), label
        np.testing.assert_array_equal(values, before, err_msg=label)


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
    # excess_fbeta (the weighted-disagreement identity) against the direct
    # subtraction F_b(g*) - F_b(g)
    rng = np.random.default_rng(11)
    p = fs.FBetaParams(b=1.0)
    for _ in range(100):
        d = fs.random_distribution(rng)
        g = rng.integers(0, 2, size=d.size)
        direct = (fs.population_fbeta(d, fs.bayes_classifier(d, p), p)
                  - fs.population_fbeta(d, g, p))
        lemma = fs.excess_fbeta(d, g, p)
        assert direct == pytest.approx(lemma, abs=1e-12)
        assert direct >= -1e-12


def exact_lemma1(mass, gap, star, bits, b2, p_y1):
    """Lemma 1's num / den over all atoms, in exact rationals of the floats."""
    num = sum((Fraction(m) * Fraction(g) for m, g, differ
               in zip(mass.tolist(), gap.tolist(), (bits != star).tolist()) if differ),
              Fraction(0))
    on = sum((Fraction(m) for m, bit in zip(mass.tolist(), bits.tolist()) if bit), Fraction(0))
    return num / (Fraction(b2) * Fraction(p_y1) + on)


def test_sparse_excess_matches_exact_rationals():
    # the sums over the atoms where g and g* disagree, with P(g = 1) from
    # P(g* = 1), against num and den over every atom in exact arithmetic;
    # zero masses and atoms at eta = theta (gap 0) included
    rng = np.random.default_rng(23)
    for trial in range(60):
        k = int(rng.integers(1, 2001))
        mass = rng.random(k)
        mass[rng.random(k) < 0.1] = 0.0
        mass[0] += 1.0
        mass /= mass.sum()
        eta = rng.random(k)
        theta = float(rng.random()) * 0.5
        eta[rng.random(k) < 0.1] = theta
        gap, star = np.abs(eta - theta), eta > theta
        b2 = float(rng.choice([0.25, 1.0, 4.0]))
        p_y1 = float(mass @ eta)
        kind = ("same", "negated", "flipped", "random")[trial % 4]
        bits = {"same": star.copy(), "negated": ~star,
                "flipped": star ^ (rng.random(k) < 0.05),
                "random": rng.random(k) < 0.5}[kind]
        p_star = float(mass[star].sum())
        got = lemma1_excess(mass, gap, star, bits, b2, p_y1, p_star)
        # as_bits gives int64 bits; excess_fbeta passes them as they are
        assert lemma1_excess(mass, gap, star, bits.astype(np.int64), b2, p_y1, p_star) == got
        if kind == "same":
            assert got == 0.0 and type(got) is float
            continue
        exact = exact_lemma1(mass, gap, star, bits, b2, p_y1)
        assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact, (trial, kind)
    # and through excess_fbeta, whose theta* is the law's own
    for _ in range(20):
        d = fs.random_distribution(rng, k_max=2000)
        p = fs.FBetaParams(b=float(rng.choice([0.5, 1.0, 2.0])))
        theta = fs.bayes_threshold(d, p)
        g = rng.random(d.size) < 0.5
        exact = exact_lemma1(d.mass, np.abs(d.eta - theta), d.eta > theta, g, p.b2, d.p_y1)
        got = fs.excess_fbeta(d, g, p)
        assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact
        assert fs.excess_fbeta(d, d.eta > theta, p) == 0.0


def test_excess_does_not_depend_on_blas_threads(tmp_path):
    # the excess, and P(Y = 1) in its denominator, were BLAS dot products,
    # which OpenBLAS splits over its threads, so their last bits moved with
    # the thread count
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = """
import numpy as np
from fscore.core import lemma1_excess
from fscore.discrete import DiscreteDistribution
rng = np.random.default_rng(0)
k = 200_000
for _ in range(10):
    mass = rng.random(k)
    mass /= mass.sum()
    bits = (rng.random(k) < 0.5).astype(np.int64)
    gap, star = rng.random(k), rng.random(k) < 0.5
    print(repr(lemma1_excess(mass, gap, star, bits, 1.0, 0.4, float(mass[star].sum()))))
    print(repr(DiscreteDistribution(support=np.zeros((k, 1)), mass=mass,
                                    eta=rng.random(k)).p_y1))
"""
    values = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        values.add(subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                                  capture_output=True, text=True, check=True).stdout)
    assert len(values) == 1
