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


def test_as_bits_accepts_callable_and_vector():
    d = fs.DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                mass=np.array([0.5, 0.5]),
                                eta=np.array([0.9, 0.1]))
    np.testing.assert_array_equal(fs.as_bits(d, np.array([1, 0])), [1, 0])
    np.testing.assert_array_equal(fs.as_bits(d, lambda x: int(x[0] < 0.5)),
                                  [1, 0])


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
    assert fs.FBetaParams(b=2.0).score_cap == pytest.approx(0.2)
