import tracemalloc

import numpy as np
import pytest

import fscore as fs
from fscore.estimators import LabeledDataset


def make_data(n=200, seed=0, d=1):
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    eta = 0.2 + 0.6 * x[:, 0]
    y = (rng.random(n) < eta).astype(float)
    return LabeledDataset(points=x, labels=y)


def test_labels_must_be_binary():
    with pytest.raises(ValueError):
        LabeledDataset(points=np.zeros((2, 1)), labels=np.array([0.0, 0.5]))


def test_default_bandwidth_exponents():
    scale = fs.default_bandwidth(1000, fs.SmoothnessSpec(beta=1.0), 1)
    assert scale.h == pytest.approx(1000 ** (-1 / 3))
    assert scale.a_n == pytest.approx(1000 ** (2 / 3))
    scale = fs.default_bandwidth(1000, fs.SmoothnessSpec(beta=2.0), 3)
    assert scale.h == pytest.approx(1000 ** (-1 / 7))
    assert scale.a_n == pytest.approx(1000 ** (4 / 7))


def test_knn_exact_small_case():
    data = LabeledDataset(points=np.array([[0.0], [1.0], [2.0], [3.0]]),
                          labels=np.array([0.0, 1.0, 1.0, 0.0]))
    est = fs.fit_knn(data, k=2)
    # at 0.9 the two nearest are x=1 (d=.1) and x=0 (d=.9)
    assert est.evaluate(np.array([[0.9]]))[0] == pytest.approx(0.5)
    assert est.evaluate(np.array([[2.9]]))[0] == pytest.approx(0.5)


def test_knn_tie_break_lowest_index():
    data = LabeledDataset(points=np.array([[0.0], [2.0]]),
                          labels=np.array([1.0, 0.0]))
    est = fs.fit_knn(data, k=1)
    # query at 1.0 is equidistant; the lower-index point (label 1) wins
    assert est.evaluate(np.array([[1.0]]))[0] == 1.0


def test_kernel_recovers_linear_eta():
    data = make_data(n=4000, seed=1)
    est = fs.fit_kernel(data, h=0.08)
    grid = np.linspace(0.1, 0.9, 9).reshape(-1, 1)
    err = np.abs(est.evaluate(grid) - (0.2 + 0.6 * grid[:, 0]))
    assert err.max() < 0.08


def test_kernel_fast_path_matches_general_path():
    base = make_data(n=500, seed=2)
    # features far from 0 must not cost the prefix sums their accuracy
    for offset in (0.0, 1e3, 1e5, 1e6):
        data = LabeledDataset(points=base.points + offset, labels=base.labels)
        grid = np.linspace(0, 1, 101).reshape(-1, 1) + offset
        fast = fs.fit_kernel(data, h=0.1).evaluate(grid)
        # the generic chunked path is exercised via a 2-d embedding with a
        # zeroed second coordinate
        data2 = LabeledDataset(points=np.hstack([data.points, np.zeros((data.n, 1))]),
                               labels=data.labels)
        slow = fs.fit_kernel(data2, h=0.1).evaluate(
            np.hstack([grid, np.zeros((101, 1))]))
        np.testing.assert_allclose(fast, slow, atol=1e-9, err_msg=f"offset {offset}")


def test_kernel_fast_path_query_order():
    # ascending and shuffled queries find their windows by different
    # searches, which must agree exactly, also on queries at distance
    # exactly h from a point, where the window edge decides
    data = make_data(n=200, seed=4)
    x, h = data.points[:, 0], 0.1
    upper, lower = x + h, x - h
    edges = np.concatenate([upper[upper - h == x], lower[lower + h == x]])
    assert edges.size > 100
    queries = np.concatenate([edges, np.linspace(0, 1, 101)]).reshape(-1, 1)
    est = fs.fit_kernel(data, h=h)
    ascending = np.argsort(queries[:, 0])
    np.testing.assert_array_equal(est.evaluate(queries[ascending]),
                                  est.evaluate(queries)[ascending])


def test_kernel_empty_window_falls_back_to_nearest():
    data = LabeledDataset(points=np.array([[0.0], [1.0]]),
                          labels=np.array([1.0, 0.0]))
    est = fs.fit_kernel(data, h=0.01)
    assert est.evaluate(np.array([[0.3]]))[0] == 1.0
    assert est.evaluate(np.array([[0.7]]))[0] == 0.0


def test_gaussian_kernel_runs():
    data = make_data(n=300, seed=3)
    est = fs.fit_kernel(data, h=0.1, kernel="gaussian")
    vals = est.evaluate(np.array([[0.5]]))
    assert 0.0 <= vals[0] <= 1.0


def test_local_poly_reproduces_linear_function_exactly():
    rng = np.random.default_rng(4)
    x = rng.random((300, 1))
    # noiseless binary-free check: local linear fit on exactly linear labels
    y = np.zeros(300)
    y[x[:, 0] > 0.5] = 1.0
    data = LabeledDataset(points=x, labels=y)
    est = fs.fit_local_poly(data, degree=1, h=0.2)
    vals = est.evaluate(np.array([[0.1], [0.9]]))
    assert vals[0] < 0.2 and vals[1] > 0.8


def test_estimates_clipped_to_unit_interval():
    data = make_data(n=100, seed=5)
    for est in (fs.fit_knn(data, 5), fs.fit_kernel(data, 0.05),
                fs.fit_local_poly(data, 1, 0.05)):
        vals = est.evaluate(np.linspace(-0.5, 1.5, 41).reshape(-1, 1))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_fit_from_config_dispatch_and_defaults():
    data = make_data(n=100, seed=6)
    assert fs.fit_from_config(data, {"method": "knn", "k": 3}).method == "knn"
    est = fs.fit_from_config(data, {"method": "kernel"})
    assert est.hyperparameters["h"] == pytest.approx(100 ** (-1 / 3))
    est = fs.fit_from_config(data, {"method": "local_poly"})
    assert est.hyperparameters["degree"] == 1
    with pytest.raises(ValueError):
        fs.fit_from_config(data, {"method": "mystery"})


def test_single_point_evaluation_shape():
    data = make_data(n=50, seed=7)
    est = fs.fit_kernel(data, h=0.2)
    out = est.evaluate(np.array([0.5]))
    assert np.ndim(out) == 0 or out.shape == (1,) or out.shape == ()


def test_csv_round_trip(tmp_path):
    data = make_data(n=20, seed=8, d=2)
    path = tmp_path / "labeled.csv"
    data.to_csv(path)
    back = LabeledDataset.from_csv(path)
    np.testing.assert_array_equal(back.points, data.points)
    np.testing.assert_array_equal(back.labels, data.labels)


def test_kernel_fast_path_memory_bounded():
    # blocks of queries bound the temporaries; the output dominates
    est = fs.fit_kernel(make_data(n=2000, seed=5), h=0.08)
    queries = np.sort(np.random.default_rng(6).random(4_000_000))[:, None]
    tracemalloc.start()
    try:
        out = est.evaluate(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes
