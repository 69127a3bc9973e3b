import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fscore as fs
from fscore import estimators
from fscore.estimators import LabeledDataset


def make_data(n=200, seed=0, d=1):
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    eta = 0.2 + 0.6 * x[:, 0]
    y = (rng.random(n) < eta).astype(float)
    return LabeledDataset(points=x, labels=y)


# -- dense references: every query against all n points ---------------------

def dense_d2(block, points):
    return ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)


def dense_knn(data, k, queries):
    """Mean label of the first k of a stable argsort of d^2 over all n."""
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], 512):
        block = queries[start:start + 512]
        idx = np.argsort(dense_d2(block, data.points), axis=1, kind="stable")[:, :k]
        out[start:start + block.shape[0]] = data.labels[idx].mean(axis=1)
    return np.clip(out, 0.0, 1.0)


def dense_epanechnikov(data, h, queries):
    """Epanechnikov weights over all n points; an empty window takes the
    label of the nearest point, the lowest index among equidistant ones."""
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], 512):
        block = queries[start:start + 512]
        d2 = dense_d2(block, data.points)
        w = np.clip(1.0 - d2 / (h * h), 0.0, None)
        den = w.sum(axis=1)
        vals = np.where(den > 0, (w @ data.labels) / np.where(den > 0, den, 1.0), 0.0)
        empty = den <= 0
        vals[empty] = data.labels[np.argmin(d2[empty], axis=1)]
        out[start:start + block.shape[0]] = vals
    return np.clip(out, 0.0, 1.0)


def dense_local_poly(data, degree, h, queries):
    """The local fit by least squares over a window found among all n
    points.  A singular design takes the locally constant value: fewer
    distinct points than monomials, or an eigenvalue of the design's Gram
    matrix, scaled to unit diagonal, at most the estimator's bound."""
    exps = np.array([e for e in itertools.product(range(degree + 1), repeat=data.d)
                     if sum(e) <= degree])
    out = np.empty(queries.shape[0])
    for i, q in enumerate(queries):
        d2 = ((data.points - q) ** 2).sum(axis=1)
        in_window = d2 < h * h
        z = (data.points[in_window] - q) / h
        sw = np.sqrt(1.0 - d2[in_window] / (h * h))
        design = np.prod(z[:, None, :] ** exps[None, :, :], axis=2) * sw[:, None]
        out[i] = dense_epanechnikov(data, h, q[None])[0]
        if np.unique(data.points[in_window], axis=0).shape[0] < len(exps):
            continue
        gram = design.T @ design
        scale = 1.0 / np.sqrt(np.diag(gram))
        if np.linalg.eigvalsh(gram * np.outer(scale, scale))[0] > estimators._SINGULAR:
            out[i] = np.linalg.lstsq(design, data.labels[in_window] * sw, rcond=None)[0][0]
    return np.clip(out, 0.0, 1.0)


def searched_epanechnikov(data, h, queries):
    """The one-dimensional kernel one query at a time: a binary search for
    the window over the points sorted stably and for the query's anchor
    among the cell edges, that anchor's prefix sums formed afresh, and the
    estimator's expansion of the window sums; an empty window takes the
    label of the nearest point, the lowest index among equidistant ones."""
    order = np.argsort(data.points[:, 0], kind="stable")
    x, y = data.points[order, 0], data.labels[order]
    k = np.floor((x - x[0]) / (2.0 * h))
    k = np.unique(np.concatenate([k, k + 1]))
    anchors, cells = x[0] + (2.0 * h) * k, x[0] + h * (k[:-1] + k[1:])
    edges = np.r_[-np.inf, cells, np.inf]
    out = np.empty(queries.shape[0])
    for i, t in enumerate(queries[:, 0]):
        lo = np.searchsorted(x, t - h, side="right")
        hi = np.searchsorted(x, t + h, side="left")
        c = np.searchsorted(cells, t, side="right")
        first = np.searchsorted(x, edges[c] - h, side="right")
        last = np.searchsorted(x, edges[c + 1] + h, side="left")
        v = (x[first:last] - anchors[c]) / h
        s = (anchors[c] - t) / h

        def window(term):
            cum = np.concatenate([np.zeros(1), np.cumsum(term)])
            return cum[hi - first] - cum[lo - first]

        def z2(s0, s1, s2):  # the window sum of (v + s)^2
            return (s0 * s + 2.0 * s1) * s + s2

        count = float(hi - lo)
        yw = y[first:last]
        den = count - z2(count, window(v), window(v * v))
        num = window(yw) - z2(window(yw), window(yw * v), window(yw * (v * v)))
        if den > 1e-12:
            out[i] = num / den
        else:
            out[i] = data.labels[np.argmin((data.points[:, 0] - t) ** 2)]
    return np.clip(out, 0.0, 1.0)


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(np.asarray(actual).view(np.int64),
                                  np.asarray(expected).view(np.int64))


def tie_grid(d, seed=0):
    """Integer grid points, some repeated, in shuffled index order, and
    queries on the grid, halfway between grid points and at random."""
    side = {1: 12, 2: 5, 3: 3}[d]
    grid = np.array(list(itertools.product(range(side), repeat=d)), dtype=float)
    rng = np.random.default_rng(seed)
    points = np.concatenate([grid, grid[::2], grid[:3], grid[:3]])
    points = points[rng.permutation(points.shape[0])]
    labels = (rng.random(points.shape[0]) < 0.5).astype(float)
    halves = np.array(list(itertools.product(np.arange(-0.5, side, 0.5),
                                             repeat=d)))
    queries = np.concatenate([grid, halves, rng.random((50, d)) * side])
    return LabeledDataset(points=points, labels=labels), queries


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
    est = fs.KNNEstimate(data, k=2)
    # at 0.9 the two nearest are x=1 (d=.1) and x=0 (d=.9)
    assert est.evaluate(np.array([[0.9]]))[0] == pytest.approx(0.5)
    assert est.evaluate(np.array([[2.9]]))[0] == pytest.approx(0.5)


def test_knn_tie_break_lowest_index():
    data = LabeledDataset(points=np.array([[0.0], [2.0]]),
                          labels=np.array([1.0, 0.0]))
    est = fs.KNNEstimate(data, k=1)
    # query at 1.0 is equidistant; the lower-index point (label 1) wins
    assert est.evaluate(np.array([[1.0]]))[0] == 1.0


def test_kernel_recovers_linear_eta():
    data = make_data(n=4000, seed=1)
    est = fs.KernelEstimate(data, h=0.08)
    grid = np.linspace(0.1, 0.9, 9).reshape(-1, 1)
    err = np.abs(est.evaluate(grid) - (0.2 + 0.6 * grid[:, 0]))
    assert err.max() < 0.08


def test_kernel_fast_path_matches_general_path():
    base = make_data(n=500, seed=2)
    # features far from 0 must not cost the prefix sums their accuracy
    for offset in (0.0, 1e3, 1e5, 1e6):
        data = LabeledDataset(points=base.points + offset, labels=base.labels)
        grid = np.linspace(0, 1, 101).reshape(-1, 1) + offset
        fast = fs.KernelEstimate(data, h=0.1).evaluate(grid)
        # the generic chunked path is exercised via a 2-d embedding with a
        # zeroed second coordinate
        data2 = LabeledDataset(points=np.hstack([data.points, np.zeros((data.n, 1))]),
                               labels=data.labels)
        slow = fs.KernelEstimate(data2, h=0.1).evaluate(
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
    est = fs.KernelEstimate(data, h=h)
    ascending = np.argsort(queries[:, 0])
    np.testing.assert_array_equal(est.evaluate(queries[ascending]),
                                  est.evaluate(queries)[ascending])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_sweep_matches_binary_search(draw):
    # Eighths are exact, so grid queries land exactly h from grid points,
    # where the window edge decides, and repeat; points are duplicated with
    # mixed labels, queries reach past the data on both sides, and small
    # blocks put block boundaries anywhere, with blocks wholly outside it.
    eighths = st.integers(-12, 52).map(lambda k: k / 8)
    x = draw.draw(st.lists(eighths, min_size=1, max_size=40))
    y = draw.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(x),
                           max_size=len(x)))
    h = draw.draw(st.sampled_from([0.125, 0.5, 1.0, 3.0]))
    q = sorted(draw.draw(st.lists(eighths | st.floats(-3.0, 9.0), min_size=1,
                                  max_size=200)))
    q = draw.draw(st.sampled_from([q, q[::-1], draw.draw(st.permutations(q))]))
    chunk = draw.draw(st.sampled_from([1, 2, 5, 64, 16_384, 65_536]))
    data = LabeledDataset(points=np.array(x)[:, None], labels=y)
    queries = np.array(q)[:, None]
    est = fs.KernelEstimate(data, h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_PREFIX_CHUNK", chunk)
        out = est.evaluate(queries)
        single = est.evaluate(queries[0])
    expected = searched_epanechnikov(data, h, queries)
    assert_same_bits(out, expected)
    assert_same_bits(single, expected[0])


@pytest.mark.parametrize("n, per_run", [(20, True), (2000, False)])
def test_kernel_sweep_expansions(n, per_run):
    # few points per block make long runs, whose sums are taken once and
    # copied along them; many make short runs, summed per query
    data, h = make_data(n=n, seed=n), 0.1 if n == 20 else 0.05
    rng = np.random.default_rng(n)
    t = np.sort(rng.random(4000) * 1.2 - 0.1)
    est = fs.KernelEstimate(data, h)
    lo, _, lengths = est._prefix._runs(t)
    assert (lengths is not None) == per_run
    assert lo.size < 100 if per_run else lo.size == t.size
    for queries in (t, t[::-1], rng.permutation(t)):
        assert_same_bits(est.evaluate(queries[:, None]),
                         searched_epanechnikov(data, h, queries[:, None]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_local_poly_sweep_matches_dense(draw):
    # the grid of test_kernel_sweep_matches_binary_search: duplicated points,
    # queries exactly h from a point and past the data, small blocks, any order
    eighths = st.integers(-12, 52).map(lambda k: k / 8)
    x = draw.draw(st.lists(eighths, min_size=1, max_size=40))
    y = draw.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(x),
                           max_size=len(x)))
    h = draw.draw(st.sampled_from([0.125, 0.5, 1.0, 3.0]))
    degree = draw.draw(st.sampled_from([1, 2]))
    q = draw.draw(st.lists(eighths | st.floats(-3.0, 9.0), min_size=1, max_size=60))
    q = draw.draw(st.sampled_from([sorted(q), q]))
    chunk = draw.draw(st.sampled_from([1, 2, 5, 64, 16_384]))
    data = LabeledDataset(points=np.array(x)[:, None], labels=y)
    queries = np.array(q)[:, None]
    est = fs.LocalPolyEstimate(data, degree, h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_PREFIX_CHUNK", chunk)
        out = est.evaluate(queries)
        single = est.evaluate(queries[0])
    np.testing.assert_allclose(out, dense_local_poly(data, degree, h, queries),
                               rtol=0, atol=1e-9)
    assert_same_bits(single, out[0])


@pytest.mark.parametrize("d", [1, 2])
def test_kernel_is_local_poly_of_degree_0(d):
    data = make_data(n=400, seed=40 + d, d=d)
    queries = np.random.default_rng(d).random((500, d)) * 1.4 - 0.2
    for h in (0.02, 0.1, 0.5):
        assert_same_bits(fs.LocalPolyEstimate(data, 0, h).evaluate(queries),
                         fs.KernelEstimate(data, h).evaluate(queries))


@pytest.mark.parametrize("n, span, h, offset", [
    (2000, 1.0, 0.01, 0.0), (2000, 1.0, 0.01, 1e6), (2000, 10.0, 0.01, 1e3),
    (20000, 1000.0, 0.01, 0.0), (20000, 1e5, 0.5, 1e6)])
def test_wide_spans_hold_eta_to_rounding(n, span, h, offset):
    # span / h from 100 to 2e5: window sums taken from prefix sums over the
    # whole range lost eta_hat like eps (span / h)^3, up to 0.05 here
    rng = np.random.default_rng(n)
    labels = (rng.random(n) < 0.5).astype(float)
    queries = rng.random((400, 2)) * span * 1.02 - 0.01 * span + offset
    data = LabeledDataset(points=rng.random((n, 1)) * span + offset, labels=labels)
    np.testing.assert_allclose(fs.KernelEstimate(data, h).evaluate(queries[:, :1]),
                               dense_epanechnikov(data, h, queries[:, :1]),
                               rtol=0, atol=1e-12)
    # the plane data fill a strip 20 h wide, so that its windows hold points
    plane = LabeledDataset(points=np.column_stack(
        [data.points[:, 0], rng.random(n) * 20 * h + offset]), labels=labels)
    queries[:, 1] = rng.random(400) * 20 * h + offset
    for fitted, q in ((data, queries[:200, :1]), (plane, queries[:200])):
        for degree in (1, 2):
            est = fs.LocalPolyEstimate(fitted, degree, h)
            np.testing.assert_allclose(est.evaluate(q),
                                       dense_local_poly(fitted, degree, h, q),
                                       rtol=0, atol=1e-9,
                                       err_msg=f"d={fitted.d}, degree={degree}")


@pytest.mark.parametrize("ties", [True, False])
def test_kernel_fit_sort_matches_stable_order(ties):
    # tied features with different labels in shuffled index order.  The fit
    # sorts with the default argsort, which may order tied points any way;
    # with binary labels every order gives the same prefix sums at each
    # window edge, so eta_hat must match the stable-order reference bit for
    # bit.  This guards that the order of tied points cannot move eta_hat.
    rng = np.random.default_rng(31)
    x = rng.random(3000)
    if ties:
        x = np.round(x, 2)[rng.permutation(x.size)]
    data = LabeledDataset(points=x[:, None],
                          labels=(rng.random(x.size) < 0.5).astype(float))
    assert (np.unique(x).size < x.size) == ties
    queries = np.linspace(-0.1, 1.1, 2401)[:, None]
    for h in (0.003, 0.03):
        assert_same_bits(fs.KernelEstimate(data, h).evaluate(queries),
                         searched_epanechnikov(data, h, queries))


@pytest.mark.parametrize("offset", [0.0, 1e5, -3e6])
@pytest.mark.parametrize("spread", ["ties", "gaps"])
def test_sweep_error_within_the_certified_bound(offset, spread):
    # _AnchoredPrefix.certify derives delta = u (16 (B + 8)^2 + 4 c (T/h + 1))
    # as a bound on the sweep's error in sum w and sum w y.  Against sums in
    # exact rationals it must hold at any query: tied features, gaps, the
    # window edges x_i -+ h, and features far from 0, where the rounding of
    # t -+ h dominates (these cases read at most 0.28 delta)
    rng = np.random.default_rng(5)
    u = rng.integers(0, 12, 300) / 12.0 if spread == "ties" \
        else np.r_[rng.random(150), 3.0 + rng.random(150)]
    x, y = u + offset, (rng.random(300) < 0.5).astype(float)
    h = 0.05
    prefix = fs.KernelEstimate(LabeledDataset(points=x[:, None], labels=y), h)._prefix
    sx = np.sort(x)
    t = np.sort(np.r_[rng.choice(x, 20) + h, rng.choice(x, 20) - h, rng.choice(x, 20),
                      np.nextafter(rng.choice(x, 10) + h, np.inf),
                      offset - 0.1 + 3.2 * rng.random(30)])
    den, num = prefix.moments(t)
    for i, ti in enumerate(t):
        z = [(Fraction(xj) - Fraction(ti)) / Fraction(h) for xj in x]
        w = [1 - zj * zj if abs(zj) < 1 else 0 for zj in z]
        exact_den, exact_num = sum(w), sum(wj * int(yj) for wj, yj in zip(w, y))
        slack = 2.0 ** -40 * (abs(ti) + h)
        c = np.searchsorted(sx, ti + h + slack, "right") - np.searchsorted(sx, ti - h - slack, "left")
        delta = 2.0 ** -53 * (16.0 * (prefix.block + 8) ** 2 + 4.0 * c * (abs(ti) / h + 1.0))
        assert abs(Fraction(den[i]) - exact_den) <= delta
        assert abs(Fraction(num[i]) - exact_num) <= delta


def test_kernel_empty_window_falls_back_to_nearest():
    data = LabeledDataset(points=np.array([[0.0], [1.0]]),
                          labels=np.array([1.0, 0.0]))
    est = fs.KernelEstimate(data, h=0.01)
    assert est.evaluate(np.array([[0.3]]))[0] == 1.0
    assert est.evaluate(np.array([[0.7]]))[0] == 0.0


def test_kernel_1d_fallback_breaks_ties_by_lowest_index():
    def kernel(points, labels):
        return fs.KernelEstimate(LabeledDataset(points=np.array(points)[:, None],
                                                labels=labels), h=0.01)

    assert kernel([0.0, 0.0], [1.0, 0.0]).evaluate([[0.5], [-0.5]]).tolist() == [1.0, 1.0]
    assert kernel([1.0, 0.0], [1.0, 0.0]).evaluate([[0.5]]).tolist() == [1.0]
    # many duplicates; the halfway queries see no point within h and are
    # equidistant from two locations, so every fallback decides a tie
    rng = np.random.default_rng(12)
    x = rng.integers(0, 5, size=60).astype(float)
    labels = rng.integers(0, 2, size=60).astype(float)
    queries = np.arange(-1.5, 5.6, 1.0)[:, None]
    out = fs.KernelEstimate(LabeledDataset(points=x[:, None], labels=labels),
                            h=0.01).evaluate(queries)
    knn = fs.KNNEstimate(LabeledDataset(points=x[:, None], labels=labels),
                         k=1).evaluate(queries)
    flat = np.column_stack([x, np.zeros_like(x)])
    in_plane = fs.KernelEstimate(LabeledDataset(points=flat, labels=labels),
                                 h=0.01).evaluate(np.column_stack(
                                     [queries[:, 0], np.zeros(len(queries))]))
    np.testing.assert_array_equal(out, knn)
    np.testing.assert_array_equal(out, in_plane)


def test_local_poly_reproduces_linear_function_exactly():
    rng = np.random.default_rng(4)
    x = rng.random((300, 1))
    # noiseless binary-free check: local linear fit on exactly linear labels
    y = np.zeros(300)
    y[x[:, 0] > 0.5] = 1.0
    data = LabeledDataset(points=x, labels=y)
    est = fs.LocalPolyEstimate(data, degree=1, h=0.2)
    vals = est.evaluate(np.array([[0.1], [0.9]]))
    assert vals[0] < 0.2 and vals[1] > 0.8


def test_estimates_clipped_to_unit_interval():
    data = make_data(n=100, seed=5)
    for est in (fs.KNNEstimate(data, 5), fs.KernelEstimate(data, 0.05),
                fs.LocalPolyEstimate(data, 1, 0.05)):
        vals = est.evaluate(np.linspace(-0.5, 1.5, 41).reshape(-1, 1))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_fit_from_config_dispatch_and_defaults():
    data = make_data(n=100, seed=6)
    assert fs.fit_from_config(data, {"method": "knn", "k": 3}).method == "knn"
    assert fs.fit_from_config(data, {"method": "knn"}).k == math.ceil(100 ** (2 / 3))
    est = fs.fit_from_config(data, {"method": "kernel"})
    assert est.hyperparameters["h"] == pytest.approx(100 ** (-1 / 3))
    est = fs.fit_from_config(data, {"beta": 0.5})
    assert est.method == "kernel"
    assert est.hyperparameters["h"] == pytest.approx(100 ** (-1 / 2))
    est = fs.fit_from_config(data, {"method": "local_poly"})
    assert est.hyperparameters["degree"] == 1
    with pytest.raises(ValueError):
        fs.fit_from_config(data, {"method": "mystery"})


def test_single_point_evaluation_shape():
    data = make_data(n=50, seed=7)
    est = fs.KernelEstimate(data, h=0.2)
    out = est.evaluate(np.array([0.5]))
    assert np.ndim(out) == 0 or out.shape == (1,) or out.shape == ()


def test_queries_of_more_than_two_dimensions_rejected():
    # a (4, 1, 3) array failed with a different error in each estimator
    data = make_data(n=50, seed=3)
    for est in (fs.KNNEstimate(data, 3), fs.KernelEstimate(data, 0.1),
                fs.LocalPolyEstimate(data, 1, 0.1)):
        with pytest.raises(ValueError, match="query points"):
            est.evaluate(np.zeros((4, 1, 3)))


def test_csv_round_trip(tmp_path):
    data = make_data(n=20, seed=8, d=2)
    path = tmp_path / "labeled.csv"
    data.to_csv(path)
    back = LabeledDataset.from_csv(path)
    np.testing.assert_array_equal(back.points, data.points)
    np.testing.assert_array_equal(back.labels, data.labels)


@pytest.mark.parametrize("degree", [0, 1])
def test_sorted_batch_placed_once_keeps_every_bit(monkeypatch, degree):
    # an ascending batch of three blocks, placed once: its runs cross the
    # block edges, and the gap in the data leaves windows empty (1-NN).
    # Reversed or permuted, the batch is sorted once at entry and placed
    # whole as well, and every value and bit comes back in the caller's order
    rng = np.random.default_rng(degree)
    x = np.r_[rng.random(20) * 0.4, 0.7 + rng.random(20) * 0.3]
    data = LabeledDataset(points=x[:, None], labels=(rng.random(40) < 0.5).astype(float))
    est = fs.LocalPolyEstimate(data, degree, 0.05)
    size = 1000
    t = np.sort(rng.random(2 * size + 700) * 1.2 - 0.1)
    monkeypatch.setattr(estimators, "_PREFIX_CHUNK", size)
    assert est._prefix._regime(t) == "runs"
    _, _, lengths = est._prefix._runs(t)
    assert not np.isin([size, 2 * size], np.cumsum(lengths)).all()  # a run crosses
    assert np.any(est._prefix.moments(t)[0] == 0.0)  # empty windows
    out = est.evaluate(t[:, None])
    blocks = [est.evaluate(t[start:start + size, None]) for start in range(0, t.size, size)]
    assert_same_bits(out, np.concatenate(blocks))
    if degree == 0:
        assert_same_bits(out, searched_epanechnikov(data, 0.05, t[:, None]))
    runs, calls = estimators._AnchoredPrefix._runs, []

    def counted(self, queries):
        calls.append(queries.size)
        return runs(self, queries)
    monkeypatch.setattr(estimators._AnchoredPrefix, "_runs", counted)
    for order in (np.arange(t.size)[::-1], rng.permutation(t.size)):
        calls.clear()
        assert_same_bits(est.evaluate(t[order, None]), out[order])
        assert calls == [t.size]
        np.testing.assert_array_equal(est.exceeds(t[order, None], 0.5), out[order] > 0.5)


def test_kernel_fast_path_memory_bounded():
    # blocks of queries bound the temporaries; the output dominates.  The
    # sorted batch is placed once (regime "runs"), without edges for all of it
    est = fs.KernelEstimate(make_data(n=2000, seed=5), h=0.08)
    queries = np.sort(np.random.default_rng(6).random(4_000_000))[:, None]
    assert est._prefix._regime(queries[:, 0]) == "runs"
    tracemalloc.start()
    try:
        out = est.evaluate(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes


@pytest.mark.parametrize("d", [1, 2, 3])
def test_knn_matches_dense_reference_on_ties(d):
    data, queries = tie_grid(d)
    for k in (1, 2, 5, 17, data.n):
        est = fs.KNNEstimate(data, k)
        np.testing.assert_array_equal(est.evaluate(queries),
                                      dense_knn(data, k, queries), err_msg=f"k={k}")
        assert est.evaluate(queries[7]) == dense_knn(data, k, queries[7:8])[0]
        assert est.evaluate(np.empty((0, d))).shape == (0,)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_knn_matches_dense_reference_on_random_data(d):
    data = make_data(n=400, seed=10 + d, d=d)
    queries = np.random.default_rng(d).random((700, d))
    for k in (1, 2, 5, 17, data.n):
        np.testing.assert_array_equal(fs.KNNEstimate(data, k).evaluate(queries),
                                      dense_knn(data, k, queries), err_msg=f"k={k}")


@pytest.mark.parametrize("d", [2, 3])
def test_epanechnikov_matches_dense_reference(d):
    data = make_data(n=600, seed=20 + d, d=d)
    queries = np.random.default_rng(d).random((900, d)) * 1.4 - 0.2
    for h in (0.05, 0.2, 0.6):
        np.testing.assert_allclose(fs.KernelEstimate(data, h).evaluate(queries),
                                   dense_epanechnikov(data, h, queries),
                                   rtol=0, atol=1e-12, err_msg=f"h={h}")


@pytest.mark.parametrize("d", [2, 3])
def test_epanechnikov_empty_windows_on_ties(d):
    # h = 0.3 < 0.5: the halfway queries see no point and are equidistant
    # from two or more; the lowest index among them gives the label
    data, queries = tie_grid(d, seed=1)
    for h in (0.3, 1.0):
        est = fs.KernelEstimate(data, h)
        out = est.evaluate(queries)
        np.testing.assert_allclose(out, dense_epanechnikov(data, h, queries),
                                   rtol=0, atol=1e-12, err_msg=f"h={h}")
        # a query's estimate does not depend on the rest of its batch
        alone = np.array([est.evaluate(q) for q in queries])
        np.testing.assert_array_equal(alone, out)


def test_local_poly_matches_dense_windows():
    data = make_data(n=300, seed=30, d=2)
    rng = np.random.default_rng(31)
    # the grid queries put points exactly h away from some queries
    queries = np.concatenate([rng.random((150, 2)) * 1.2 - 0.1,
                              data.points[:20] + [0.15, 0.0]])
    for degree, h in ((1, 0.15), (1, 0.05), (2, 0.3)):
        est = fs.LocalPolyEstimate(data, degree, h)
        np.testing.assert_allclose(est.evaluate(queries),
                                   dense_local_poly(data, degree, h, queries),
                                   rtol=0, atol=1e-9, err_msg=f"degree={degree}, h={h}")


def test_bandwidth_must_be_finite():
    data = make_data(n=50, seed=9, d=2)
    for h in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="bandwidth h"):
            fs.KernelEstimate(data, h)
        with pytest.raises(ValueError, match="bandwidth h"):
            fs.LocalPolyEstimate(data, 1, h)
        with pytest.raises(ValueError, match="bandwidth h"):
            fs.fit_from_config(data, {"method": "kernel", "h": h})


def test_integer_hyperparameters():
    data = make_data(n=50, seed=9)
    for k in (2.7, True, "3", float("nan")):
        with pytest.raises(ValueError, match="k must be an integer"):
            fs.KNNEstimate(data, k)
        with pytest.raises(ValueError, match="k must be an integer"):
            fs.fit_from_config(data, {"method": "knn", "k": k})
    for degree in (1.5, True, False):
        with pytest.raises(ValueError, match="degree must be an integer"):
            fs.LocalPolyEstimate(data, degree, 0.2)
        with pytest.raises(ValueError, match="degree must be an integer"):
            fs.fit_from_config(data, {"method": "local_poly", "degree": degree})
    est = fs.KNNEstimate(data, 3.0)
    assert est.k == 3 and type(est.k) is int
    assert fs.LocalPolyEstimate(data, np.int64(2), 0.2).degree == 2


def test_knn_memory_bounded():
    # blocks of queries bound the (m, k + 1) neighbour arrays
    est = fs.KNNEstimate(make_data(n=2000, seed=5, d=2), k=20)
    queries = np.random.default_rng(6).random((1_000_000, 2))
    tracemalloc.start()
    try:
        out = est.evaluate(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes


def test_kernel_tree_path_memory_bounded():
    # blocks of queries bound the window pairs
    est = fs.KernelEstimate(make_data(n=2000, seed=5, d=2), h=0.03)
    queries = np.random.default_rng(6).random((1_000_000, 2))
    tracemalloc.start()
    try:
        out = est.evaluate(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes
