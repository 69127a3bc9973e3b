import warnings

import numpy as np
import pytest

import fscore as fs


def test_mass_must_sum_to_one():
    with pytest.raises(ValueError):
        fs.DiscreteDistribution(support=np.array([[0.0]]), mass=np.array([0.9]),
                                eta=np.array([0.5]))


def test_eta_range_checked():
    with pytest.raises(ValueError):
        fs.DiscreteDistribution(support=np.array([[0.0]]), mass=np.array([1.0]),
                                eta=np.array([1.5]))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        fs.DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                mass=np.array([1.0]), eta=np.array([0.5]))


def test_nonfinite_inputs_rejected_by_field_and_row():
    # a NaN passes every comparison check: a NaN mass or eta gave a NaN
    # P(Y=1), and a support point at inf was accepted
    base = dict(support=np.array([[0.0], [1.0]]), mass=np.array([0.5, 0.5]),
                eta=np.array([0.2, 0.8]))
    for field, bad in (("support", np.array([[0.0], [np.inf]])),
                       ("support", np.array([[0.0], [np.nan]])),
                       ("mass", np.array([0.5, np.nan])),
                       ("eta", np.array([0.2, np.nan]))):
        with pytest.raises(ValueError, match=f"^{field}: row 1 is not finite"):
            fs.DiscreteDistribution(**{**base, field: bad})


def test_from_csv_rejects_nan(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("x_1,mass,eta\r\n0.0,0.5,0.2\r\n1.0,0.5,nan\r\n")
    with pytest.raises(ValueError, match="^eta: row 1 is not finite"):
        fs.DiscreteDistribution.from_csv(path)


def test_negative_mass_rejected():
    # the masses sum to 1, so only the sign check stops them
    with pytest.raises(ValueError, match="masses must be nonnegative"):
        fs.DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                mass=np.array([1.5, -0.5]), eta=np.array([0.5, 0.5]))


def test_from_csv_needs_trailing_mass_and_eta(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("x_1,eta,mass\r\n0.0,0.2,1.0\r\n")
    with pytest.raises(ValueError, match="expected trailing columns 'mass' and 'eta'"):
        fs.DiscreteDistribution.from_csv(path)


def test_p_y1():
    d = fs.DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                mass=np.array([0.25, 0.75]),
                                eta=np.array([0.8, 0.4]))
    assert d.p_y1 == pytest.approx(0.25 * 0.8 + 0.75 * 0.4, abs=1e-15)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    d = fs.random_distribution(rng)
    path = tmp_path / "dist.csv"
    d.to_csv(path)
    back = fs.DiscreteDistribution.from_csv(path)
    np.testing.assert_array_equal(back.support, d.support)
    np.testing.assert_array_equal(back.mass, d.mass)
    np.testing.assert_array_equal(back.eta, d.eta)


def test_as_bits_accepts_vector_rejects_callable():
    d = fs.DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                mass=np.array([0.5, 0.5]),
                                eta=np.array([0.9, 0.1]))
    np.testing.assert_array_equal(fs.as_bits(d, np.array([1, 0])), [1, 0])
    # a classifier is a bit vector; a predicate is no longer evaluated, on
    # a one-point support too, where its length would match
    one = fs.DiscreteDistribution(support=[[0.0]], mass=[1.0], eta=[0.5])
    for dist in (d, one):
        with pytest.raises(ValueError, match="classifier"):
            fs.as_bits(dist, lambda x: int(x[0] < 0.5))


def test_as_bits_rejects_non_binary():
    d = fs.uniform_eta_grid(4)
    with pytest.raises(ValueError):
        fs.as_bits(d, np.array([0, 1, 2, 0]))


def test_random_distribution_valid():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = fs.random_distribution(rng, k_max=12)
        assert 1 <= d.size <= 12
        assert d.p_y1 > 0
        assert abs(d.mass.sum() - 1.0) < 1e-12


def test_uniform_eta_grid_midpoints():
    d = fs.uniform_eta_grid(4)
    np.testing.assert_allclose(d.eta, [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(d.mass, 0.25)


def test_params_validation():
    # b = inf or 1e200 made b^2 infinite and the score cap 0
    for b in (0.0, -1.0, np.inf, np.nan, 1e200):
        with pytest.raises(ValueError, match="b must"):
            fs.FBetaParams(b=b)
    # a string failed on '>', an int past the float range raised an
    # OverflowError, and True was taken as 1
    for b in ("2", True, np.bool_(True), None, 1 + 2j, 10**400):
        with pytest.raises(ValueError, match="b must"):
            fs.FBetaParams(b=b)
    assert fs.FBetaParams(b=np.int64(2)).b2 == 4 and fs.FBetaParams(b=10**20).b2 == 10**40
    assert fs.FBetaParams(b=2.0).score_cap == pytest.approx(0.2)


def test_params_square_b_in_double_precision():
    # a float32 b was squared in float32: 1e30 overflowed to inf with a
    # RuntimeWarning and the score cap became 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = fs.FBetaParams(b=np.float32(1e30))
        assert type(params.b) is float
        assert params.b2 == pytest.approx(1e60, rel=1e-6)
        assert params.score_cap > 0
        assert type(fs.FBetaParams(b=np.int64(3)).b) is int
