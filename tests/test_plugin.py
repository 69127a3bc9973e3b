import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fscore as fs
from fscore import estimators
from fscore.estimators import LabeledDataset
from fscore.plugin import predictions_to_csv


def make_sets(n=400, big_n=800, seed=0):
    fam = fs.make_smooth_1d_family()
    labeled = fs.sample(fam, n, seed=seed, labeled=True)
    unlabeled = fs.sample(fam, big_n, seed=seed + 1, labeled=False)
    return fam, labeled, unlabeled


def test_train_predict_pipeline():
    fam, labeled, unlabeled = make_sets()
    clf = fs.train_plugin(labeled, unlabeled, {"method": "kernel"})
    assert 0.0 <= clf.theta_hat <= 0.5
    preds = clf.predict(unlabeled.points)
    assert set(np.unique(preds)) <= {0, 1}
    # rough sanity: the positive fraction should track P(eta > theta*)
    frac = preds.mean()
    assert 0.1 < frac < 0.9


def test_theta_hat_near_theta_star_at_moderate_n():
    fam, labeled, unlabeled = make_sets(n=3000, big_n=3000, seed=2)
    clf = fs.train_plugin(labeled, unlabeled, {"method": "kernel"})
    assert abs(clf.theta_hat - fam.theta_star) < 0.05


def test_all_zero_labels_degenerate():
    labeled = LabeledDataset(points=np.random.default_rng(0).random((20, 1)),
                             labels=np.zeros(20))
    unlabeled = fs.UnlabeledDataset(points=np.random.default_rng(1).random((20, 1)))
    with pytest.raises(fs.TrainingDegenerate):
        fs.train_plugin(labeled, unlabeled, {"method": "knn", "k": 3})


def test_theta_hat_uses_exactly_the_unlabeled_points():
    # N < n: theta_hat solves the equation on the N given scores alone
    _, labeled, unlabeled = make_sets(n=200, big_n=50)
    clf = fs.train_plugin(labeled, unlabeled, {"method": "kernel"})
    scores = clf.eta_hat.evaluate(unlabeled.points)
    assert clf.theta_hat == fs.empirical_threshold(fs.ScoreSample(values=scores))
    assert (clf.provenance["n"], clf.provenance["N"]) == (200, 50)
    assert "N_effective" not in clf.provenance and "augmented" not in clf.provenance


def test_empty_unlabeled_rejected():
    _, labeled, _ = make_sets(n=100, big_n=10)
    empty = fs.UnlabeledDataset(points=np.empty((0, 1)))
    with pytest.raises(ValueError, match="unlabeled dataset is empty"):
        fs.train_plugin(labeled, empty, {"method": "kernel"})


def test_unlabeled_blocks_must_cover_n():
    # a block source that yields fewer rows than its n would leave scores
    # unset, one that yields more would overrun them
    _, labeled, unlabeled = make_sets(n=100, big_n=10)
    for rows in (9, 11):
        short = SimpleNamespace(n=10, d=1, blocks=lambda size, rows=rows:
                                iter([unlabeled.points[:5], np.full((rows - 5, 1), 0.5)]))
        with pytest.raises(ValueError):
            fs.train_plugin(labeled, short, {"method": "kernel"})


def test_predict_strict_inequality():
    _, labeled, unlabeled = make_sets(n=200, big_n=200)
    clf = fs.train_plugin(labeled, unlabeled, {"method": "knn", "k": 200})
    # with k = n the estimate is constant = mean(y); predictions flip on theta
    const = float(labeled.labels.mean())
    expected = 1 if const > clf.theta_hat else 0
    assert clf.predict(np.array([[0.5]]))[0] == expected


# ---------------------------------------------------------------------------
# predict takes eta_hat.exceeds, which the 1-d kernel certifies per span.

def evaluated_bits(clf, x):
    return (clf.eta_hat.evaluate(x) > clf.theta_hat).astype(np.int64)


@st.composite
def threshold_cases(draw, wide=False):
    """A 1-d model of any method, a theta in [0, 1) and queries that stress
    a certificate: features spread over h/2 to 30 h, tied or not and offset
    by 1e5 or not; dense queries across x_i -+ h, queries at exactly
    x_i -+ h and beyond the data (the 1-NN fallback); theta = 0 or a value
    eta_hat attains; ascending or shuffled order.

    ``wide`` instead takes labels mixed or all one and 1 024 to 40 000
    queries evenly over the data alone, where whole spans of 256 are
    certified, failed ones are cut into spans of 64 and the last span is
    short at both levels (every span of 256 certified for all-one labels,
    so none is refined)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 150))
    h = draw(st.sampled_from([0.03, 0.125, 0.4]))
    offset = draw(st.sampled_from([0.0, 1e5]))
    u = rng.integers(0, 8, n) / 8.0 if draw(st.booleans()) else rng.random(n)
    labels = (rng.random(n) < 0.2 + 0.6 * u).astype(float)
    labels[0] = 1.0
    if wide and draw(st.booleans()):
        labels[:] = 1.0
    x = offset + draw(st.sampled_from([0.5, 3.0, 30.0])) * h * u
    method = draw(st.sampled_from(["kernel", "knn", "local_poly"]))
    config = {"method": "knn"} if method == "knn" else {"method": method, "h": h}
    eta_hat = fs.fit_from_config(LabeledDataset(points=x[:, None], labels=labels), config)
    if wide:
        queries = np.linspace(x.min(), x.max(), draw(st.integers(1024, 40_000)))
    else:
        edges = np.concatenate([x[:4] + h, x[:4] - h])
        queries = np.concatenate([
            np.linspace(x.min() - 2 * h, x.max() + 2 * h, draw(st.integers(1, 3000))),
            (edges[:, None] + np.linspace(-h, h, 200) / 20).ravel(),
            x + h, x - h, x, offset + np.array([-50.0, 40.0])])
    if draw(st.booleans()):
        queries.sort()
    else:
        rng.shuffle(queries)
    attained = eta_hat.evaluate(queries[:, None])
    attained = attained[attained < 0.99]
    theta = draw(st.sampled_from(["zero", "attained", "any"]))
    theta = 0.0 if theta == "zero" or attained.size == 0 else \
        float(rng.choice(attained)) if theta == "attained" else float(rng.random() * 0.99)
    # b = 0.1 caps theta_hat at 1/1.01, above every theta drawn here
    clf = fs.PluginClassifier(eta_hat=eta_hat, theta_hat=theta, params=fs.FBetaParams(b=0.1))
    return clf, queries[:, None]


def assert_bits_are_the_evaluated_threshold(clf, queries):
    expected = evaluated_bits(clf, queries)
    bits = clf.predict(queries)
    assert bits.dtype == np.int64
    np.testing.assert_array_equal(bits, expected)
    exceeds = clf.eta_hat.exceeds(queries, clf.theta_hat)
    assert exceeds.dtype == bool
    np.testing.assert_array_equal(exceeds, expected)


@settings(max_examples=120, deadline=None)
@given(threshold_cases())
def test_predict_is_the_evaluated_threshold(case):
    assert_bits_are_the_evaluated_threshold(*case)


@settings(max_examples=60, deadline=None)
@given(threshold_cases(wide=True))
def test_predict_over_many_queries_is_the_evaluated_threshold(case):
    assert_bits_are_the_evaluated_threshold(*case)


def certified_spans(monkeypatch):
    """(first, last, sure) of every ``certify`` call, in call order."""
    calls = []
    certify = estimators._AnchoredPrefix.certify

    def recorded(self, t, theta, first, last):
        above, sure = certify(self, t, theta, first, last)
        calls.append((first.copy(), last.copy(), sure.copy()))
        return above, sure
    monkeypatch.setattr(estimators._AnchoredPrefix, "certify", recorded)
    return calls


def test_exceeds_certifies_spans_of_256_then_spans_of_64(monkeypatch):
    # 120 spans of 256 over the data, where eta_hat crosses theta, then a
    # short span of 100 queries past the data, whose windows are empty
    fam = fs.make_smooth_1d_family()
    labeled = fs.sample(fam, 400, seed=3)
    est = fs.fit_from_config(labeled, {"method": "kernel"})
    x = labeled.points[:, 0]
    queries = np.concatenate([np.linspace(x.min(), x.max(), 256 * 120),
                              x.max() + 1.0 + np.arange(100.0)])[:, None]
    values = est.evaluate(queries)
    theta = float(values[15_000])
    calls = certified_spans(monkeypatch)
    np.testing.assert_array_equal(est.exceeds(queries, theta), values > theta)
    (first, last, sure), (fine_first, fine_last, fine_sure) = calls
    span, coarse = estimators._SPAN, estimators._COARSE * estimators._SPAN
    np.testing.assert_array_equal(first, np.arange(0, queries.shape[0], coarse))
    assert (last - first + 1)[-1] == 100 and np.all((last - first + 1)[:-1] == coarse)
    # a coarse span certified whole, the short one not
    assert sure[:-1].any() and not sure[-1]
    # only the failed coarse spans are cut into spans of 64, the last two of
    # the short one into 64 and 36
    refined = fine_first // coarse
    np.testing.assert_array_equal(np.unique(refined), np.flatnonzero(~sure))
    assert np.all(fine_first % span == 0)
    assert np.all(fine_last == np.minimum(fine_first + span, queries.shape[0]) - 1)
    assert list(fine_last[-2:] - fine_first[-2:] + 1) == [64, 36]
    assert not fine_sure[-2:].any()
    # a failed coarse span whose spans of 64 are part certified, part doubtful
    mixed = [c for c in np.unique(refined)[:-1]
             if fine_sure[refined == c].any() and not fine_sure[refined == c].all()]
    assert mixed


def test_exceeds_with_every_coarse_span_certified(monkeypatch):
    # nothing is left to refine: the constant family's 200 000 oracle atoms,
    # and all-one labels, whose eta_hat is 1 over the data
    calls = certified_spans(monkeypatch)
    fam = fs.make_constant_family()
    clf = fs.train_plugin(fs.sample(fam, 1000, seed=1),
                          fs.sample(fam, 1000, seed=2, labeled=False), {"method": "kernel"})
    atoms = fam.discretize(200_000).support
    np.testing.assert_array_equal(clf.eta_hat.exceeds(atoms, clf.theta_hat),
                                  clf.eta_hat.evaluate(atoms) > clf.theta_hat)
    assert len(calls) == 1 and calls[0][2].all()
    calls.clear()
    x = np.random.default_rng(0).random((300, 1))
    ones = fs.fit_from_config(LabeledDataset(points=x, labels=np.ones(300)), {"method": "kernel"})
    grid = np.linspace(x.min(), x.max(), 5000)[:, None]
    assert ones.exceeds(grid, 0.5).all() and (ones.evaluate(grid) > 0.5).all()
    assert len(calls) == 1 and calls[0][2].all()


@pytest.mark.parametrize("n", [250, 64_000])
def test_predict_certifies_most_oracle_atoms(monkeypatch, n):
    # the harness's excess takes predict over the 200 000 oracle atoms.
    # Spans of 256 atoms are certified first and only the failed ones are
    # cut into spans of 64, so fewer queries reach the sweep than with spans
    # of 64 alone: their 3 125 middle queries and the atoms of the doubtful
    # ones.  All but the doubtful spans are certified without the sweep
    fam = fs.make_smooth_1d_family()
    clf = fs.train_plugin(fs.sample(fam, n, seed=n),
                          fs.sample(fam, n, seed=n + 1, labeled=False),
                          {"method": "kernel"})
    atoms = fam.discretize(200_000).support
    expected = evaluated_bits(clf, atoms)
    t = atoms[:, 0]  # ascending
    first = np.arange(0, t.size, estimators._SPAN)
    _, sure = clf.eta_hat._prefix.certify(
        t, clf.theta_hat, first, np.minimum(first + estimators._SPAN, t.size) - 1)
    single = first.size + estimators._SPAN * np.count_nonzero(~sure)
    swept = []
    moments = estimators._AnchoredPrefix.moments

    def counted(self, t):
        swept.append(t.size)
        return moments(self, t)
    monkeypatch.setattr(estimators._AnchoredPrefix, "moments", counted)
    np.testing.assert_array_equal(clf.predict(atoms), expected)
    assert 0 < sum(swept) < min(single, 0.1 * atoms.shape[0])


@pytest.mark.parametrize("method", ["kernel", "knn", "local_poly"])
def test_a_number_is_one_query_of_a_1d_model(method):
    _, labeled, unlabeled = make_sets(n=120, big_n=120)
    clf = fs.train_plugin(labeled, unlabeled, {"method": method})
    for x in (0.7, 0.05, 2.0):
        value = clf.eta_hat.evaluate(x)
        assert isinstance(value, float)
        assert value == clf.eta_hat.evaluate([x]) == clf.eta_hat.evaluate([[x]])[0]
        bit = clf.predict(x)
        assert type(bit) is int
        assert bit == clf.predict([x]) == clf.predict([[x]])[0] == int(value > clf.theta_hat)
    none = clf.predict(np.empty((0, 1)))
    assert none.shape == (0,) and none.dtype == np.int64
    plane = fs.fit_from_config(
        LabeledDataset(points=np.random.default_rng(0).random((20, 2)), labels=np.ones(20)),
        {"method": method})
    with pytest.raises(ValueError, match="dimension"):
        plane.evaluate(0.7)


def test_save_load_round_trip(tmp_path):
    _, labeled, unlabeled = make_sets(n=150, big_n=150)
    clf = fs.train_plugin(labeled, unlabeled, {"method": "kernel", "h": 0.11})
    prefix = str(tmp_path / "model")
    clf.save(prefix)
    back = fs.PluginClassifier.load(prefix)
    assert back.theta_hat == clf.theta_hat
    grid = np.linspace(0, 1, 50).reshape(-1, 1)
    np.testing.assert_array_equal(back.predict(grid), clf.predict(grid))
    with open(f"{prefix}.json") as fh:
        record = json.load(fh)
    assert "normalized" not in record
    # a model file written while FBetaParams had a second field still loads
    record["normalized"] = True
    with open(f"{prefix}.json", "w") as fh:
        json.dump(record, fh)
    back = fs.PluginClassifier.load(prefix)
    assert back.theta_hat == clf.theta_hat
    np.testing.assert_array_equal(back.predict(grid), clf.predict(grid))
    record["theta_hat"] = "0.3"
    with open(f"{prefix}.json", "w") as fh:
        json.dump(record, fh)
    with pytest.raises(ValueError, match="theta_hat"):
        fs.PluginClassifier.load(prefix)


def test_theta_hat_validation():
    _, labeled, unlabeled = make_sets(n=100, big_n=100)
    clf = fs.train_plugin(labeled, unlabeled, {"method": "kernel"})
    with pytest.raises(ValueError):
        fs.PluginClassifier(eta_hat=clf.eta_hat, theta_hat=0.9,
                            params=fs.FBetaParams(b=1.0))
    for bad in ("0.3", True, np.bool_(False), None, [0.3]):
        with pytest.raises(ValueError, match="theta_hat"):
            fs.PluginClassifier(eta_hat=clf.eta_hat, theta_hat=bad,
                                params=fs.FBetaParams(b=1.0))


def test_dimension_mismatch_rejected():
    _, labeled, _ = make_sets(n=100, big_n=100)
    bad = fs.UnlabeledDataset(points=np.zeros((200, 2)))
    with pytest.raises(ValueError):
        fs.train_plugin(labeled, bad, {"method": "kernel"})


def test_datasets_copy_the_callers_arrays():
    points, labels = np.array([[0.1], [0.2]]), np.array([0.0, 1.0])
    mass, eta = np.array([0.5, 0.5]), np.array([0.3, 0.6])

    def build(points, labels, mass, eta):
        return (LabeledDataset(points=points, labels=labels),
                fs.UnlabeledDataset(points=points),
                fs.DiscreteDistribution(support=points, mass=mass, eta=eta),
                fs.ScoreSample(values=eta))

    labeled, unlabeled, dist, scores = build(points, labels, mass, eta)
    callers = (points, labels, mass, eta)
    held = (labeled.points, labeled.labels, unlabeled.points, dist.support,
            dist.mass, dist.eta, scores.values)
    assert all(a.flags.writeable for a in callers)
    assert not any(a.flags.writeable for a in held)
    assert not any(np.shares_memory(a, b) for a in callers for b in held)
    points[0, 0], labels[0], mass[0], eta[0] = 0.9, 1.0, 0.9, 0.9
    assert labeled.points[0, 0] == 0.1 and labeled.labels[0] == 0.0
    assert unlabeled.points[0, 0] == 0.1 and dist.support[0, 0] == 0.1
    assert dist.mass[0] == 0.5 and dist.eta[0] == 0.3 and scores.values[0] == 0.3
    # read-only float64 arrays of the right shape are held as they are
    points[0, 0], labels[0], mass[0], eta[0] = 0.1, 0.0, 0.5, 0.3
    for a in callers:
        a.setflags(write=False)
    labeled, unlabeled, dist, scores = build(points, labels, mass, eta)
    assert labeled.points is points and labeled.labels is labels
    assert unlabeled.points is points and dist.support is points
    assert dist.mass is mass and dist.eta is eta and scores.values is eta
    # and checked all the same: a frozen non-finite input names its row
    bad_points, bad_values = np.array([[0.1], [np.nan]]), np.array([0.1, np.inf])
    bad_points.setflags(write=False)
    bad_values.setflags(write=False)
    for make, message in (
            (lambda: LabeledDataset(points=bad_points, labels=labels),
             "labeled dataset: row 1"),
            (lambda: fs.UnlabeledDataset(points=bad_points), "unlabeled dataset: row 1"),
            (lambda: fs.DiscreteDistribution(support=points, mass=mass, eta=bad_values),
             "eta: row 1"),
            (lambda: fs.ScoreSample(values=bad_values), "score sample: row 1")):
        with pytest.raises(ValueError, match=message):
            make()


def test_train_plugin_memory_bounded():
    # frozen points are held without a copy and the scores are sorted in
    # place, so the scores are the one N-sized array train_plugin adds
    rng = np.random.default_rng(5)
    x = rng.random((2000, 1))
    labeled = LabeledDataset(points=x, labels=(rng.random(2000) < 0.2 + 0.6 * x[:, 0]))
    points = np.sort(rng.random(2 ** 20))[:, None]
    points.setflags(write=False)
    tracemalloc.start()
    try:
        fs.train_plugin(labeled, fs.UnlabeledDataset(points=points), {"method": "kernel"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * points.nbytes


def test_unlabeled_from_csv_memory_bounded(tmp_path):
    # read_table freezes the array it reads, so UnlabeledDataset holds it
    # without a copy
    points = np.random.default_rng(6).random((200_000, 1))
    fs.UnlabeledDataset(points=points).to_csv(tmp_path / "unl.csv")
    tracemalloc.start()
    try:
        fs.UnlabeledDataset.from_csv(tmp_path / "unl.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * points.nbytes


def test_predictions_csv(tmp_path):
    path = tmp_path / "preds.csv"
    predictions_to_csv(path, np.array([[0.1], [0.9]]), np.array([0, 1]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_1,prediction"
    assert lines[1].endswith(",0") and lines[2].endswith(",1")


def _trained_kernel_model():
    _, labeled, unlabeled = make_sets(n=200, big_n=200)
    return fs.train_plugin(labeled, unlabeled, {"method": "kernel"})


ENTRY_POINTS = {
    "labeled": lambda bad: LabeledDataset(points=np.array([[0.1], [bad]]),
                                          labels=np.array([0.0, 1.0])),
    "labels": lambda bad: LabeledDataset(points=np.zeros((2, 1)),
                                         labels=np.array([0.0, bad])),
    "unlabeled": lambda bad: fs.UnlabeledDataset(points=np.array([[0.1], [bad]])),
    "scores": lambda bad: fs.ScoreSample(values=np.array([0.1, bad])),
    "evaluate": lambda bad: _trained_kernel_model().eta_hat.evaluate(
        np.array([[0.1], [bad]])),
    "predict": lambda bad: _trained_kernel_model().predict(np.array([[0.1], [bad]])),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_input_rejected(entry, bad):
    with pytest.raises(ValueError, match="row 1 is not finite"):
        ENTRY_POINTS[entry](bad)


THREE_D = {
    "labeled dataset": lambda x: LabeledDataset(points=x, labels=np.zeros(2)),
    "unlabeled dataset": lambda x: fs.UnlabeledDataset(points=x),
    "support": lambda x: fs.DiscreteDistribution(
        support=x, mass=np.full(2, 0.5), eta=np.full(2, 0.5)),
    "score sample": lambda x: fs.ScoreSample(values=x),
}


@pytest.mark.parametrize("name", sorted(THREE_D))
def test_more_than_two_dimensions_rejected(name):
    # a (2, 1, 1) array was accepted and failed later in numpy, naming no field
    with pytest.raises(ValueError, match=f"^{name} must be at most 2-d"):
        THREE_D[name](np.zeros((2, 1, 1)))


ONE_D = {
    "labels": lambda v: LabeledDataset(points=np.zeros((v.size, 1)),
                                       labels=v > 0.5).labels,
    "score sample": lambda v: fs.ScoreSample(values=v).values,
    "mass": lambda v: fs.DiscreteDistribution(
        support=np.zeros((v.size, 1)), mass=v, eta=np.full(v.size, 0.5)).mass,
    "eta": lambda v: fs.DiscreteDistribution(
        support=np.zeros((v.size, 1)), mass=np.full(v.size, 1 / v.size), eta=v).eta,
}


@pytest.mark.parametrize("name", sorted(ONE_D))
def test_one_dimensional_inputs_take_one_column(name):
    # a (2, 2) labels array was raveled into 4 labels, a (2, 3) score array
    # into 6 scores; only an (n, 1) column stands for n values
    for shape in ((2, 2), (2, 3), (1, 4)):
        with pytest.raises(ValueError, match=f"^{name} must be 1-d or one column"):
            ONE_D[name](np.full(shape, 0.25))
    assert ONE_D[name](np.full((4, 1), 0.25)).shape == (4,)


# ---------------------------------------------------------------------------
# The band solve: N above plugin._PILOT scored in one pass that keeps a band.

IDENTITY = SimpleNamespace(evaluate=lambda x: x[:, 0].copy())
# measured worst relative gap to the whole solve: 3.9e-11, on two-point
# scores at N = 4M, where the whole solve's one-term-at-a-time suffix sums
# over 2M tied values err the most
BAND_REL_TOL = 1e-10


@pytest.mark.parametrize("method", ["kernel", "knn", "local_poly"])
@pytest.mark.parametrize("family", ["smooth", "two_point"])
def test_band_theta_matches_whole_solve(family, method):
    # N i.i.d. scores drawn from eta_hat's values on a pool of points (knn
    # and two-point scores are tied), sorted, so the interleaved blocks and
    # the pilot are systematic samples
    from fscore import plugin
    fam = fs.make_smooth_1d_family() if family == "smooth" else fs.make_two_point_family()
    est = fs.fit_from_config(fs.sample(fam, 500, seed=1), {"method": method})
    pool = est.evaluate(fs.sample(fam, 1 << 16, seed=2, labeled=False).points)
    atoms = est.evaluate(fam.discretize(2000).support)
    rng = np.random.default_rng(3)
    for big_n in ((1 << 18) + 1, (1 << 20) + 3, 4_000_000):
        scores = np.sort(pool[rng.integers(pool.size, size=big_n)])
        scores.setflags(write=False)
        unlabeled = fs.UnlabeledDataset(points=scores[:, None])
        for b in (0.5, 1.0, 2.0):
            params = fs.FBetaParams(b=b)
            whole = fs.empirical_threshold(fs.ScoreSample(values=scores), params)
            band = plugin._band_threshold(IDENTITY, unlabeled, params)
            assert band is not None and abs(band - whole) <= BAND_REL_TOL * whole
            np.testing.assert_array_equal(atoms > band, atoms > whole)


def test_band_miss_replays_the_blocks(monkeypatch):
    # a zero half-width leaves the root outside the band: train_plugin draws
    # the same points again and solves them whole, with the same bits
    from fscore import harness, plugin
    fam, labeled, _ = make_sets()
    rng = np.random.default_rng(9)
    draw = harness._UnlabeledDraw(fam, rng.bit_generator.state, 3 << 18)
    est = fs.fit_from_config(labeled, {"method": "kernel"})
    whole = plugin._whole_threshold(est, draw, fs.FBetaParams())
    passes = []

    def recorded(size):
        passes.append([])
        for block in draw.blocks(size):
            passes[-1].append(block.copy())
            yield block

    monkeypatch.setattr(plugin, "_band_halfwidth", lambda pilot, theta, b2: 0.0)
    replayed = fs.train_plugin(labeled, SimpleNamespace(n=draw.n, d=draw.d, blocks=recorded),
                               {"method": "kernel"})
    assert replayed.theta_hat == whole
    assert len(passes) == 2 and len(passes[0]) == len(passes[1]) == 3
    for first, second in zip(*passes):
        np.testing.assert_array_equal(first, second)


def test_band_root_is_checked(monkeypatch):
    # the band solve's root goes through the same residual check, with the
    # carry standing in for the scores outside the band
    from fscore import core, plugin
    scan = core._segment_scan
    monkeypatch.setattr(core, "_segment_scan",
                        lambda v, w, b2, carry=None: scan(v, w, b2, carry) + 1e-3)
    scores = np.random.default_rng(4).random((1 << 18) + 5)
    with pytest.raises(ArithmeticError, match="residual"):
        plugin._band_threshold(IDENTITY, fs.UnlabeledDataset(points=scores[:, None]),
                               fs.FBetaParams())


def test_band_checks_every_block():
    # scores outside the pilot (the first of the two interleaved blocks,
    # the even rows) are checked as ScoreSample checks them
    from fscore import plugin
    rows = fs.UnlabeledDataset(points=np.arange((1 << 18) + 5.0)[:, None])
    for bad, message in ((np.nan, "score sample: row"), (1.5, r"\[0, 1\]")):
        scores = np.random.default_rng(4).random(rows.n)
        scores[1] = bad
        lookup = SimpleNamespace(evaluate=lambda x, scores=scores: scores[x[:, 0].astype(int)])
        with pytest.raises(ValueError, match=message):
            plugin._band_threshold(lookup, rows, fs.FBetaParams())


def test_unlabeled_blocks_interleave():
    # k = ceil(n / size) views points[i::k]: every row once, at most size
    # rows each, the first block spread over all rows (the pilot of a
    # sorted file is not its lowest rows), and ascending rows give
    # ascending blocks
    points = np.arange(5000.0)[:, None]
    for size in (777, 1000, 4999, 5000, 10_000):
        blocks = list(fs.UnlabeledDataset(points=points).blocks(size))
        assert len(blocks) == -(-5000 // size)
        assert all(0 < b.shape[0] <= size for b in blocks)
        assert blocks[0][-1, 0] >= 5000 - len(blocks)
        rows = np.concatenate([b[:, 0] for b in blocks])
        np.testing.assert_array_equal(np.sort(rows), points[:, 0])
        assert all((np.diff(b[:, 0]) > 0).all() for b in blocks)


def test_band_is_held_once():
    # nine scores in ten fall in the band.  Keeping its parts and then
    # concatenating them held it twice: a peak of 2.05 x 8N.  One buffer
    # holds it once: 1.27 x 8N measured, the rest one block's temporaries
    from fscore import plugin
    n = (1 << 21) + 3
    rng = np.random.default_rng(0)
    scores = np.where(rng.random(n) < 0.1, 0.9, 0.2278) + 1e-4 * rng.random(n)
    unlabeled = fs.UnlabeledDataset(points=scores[:, None])
    whole = fs.empirical_threshold(fs.ScoreSample(values=scores))
    tracemalloc.start()
    try:
        band = plugin._band_threshold(IDENTITY, unlabeled, fs.FBetaParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(band - whole) <= BAND_REL_TOL * whole
    assert peak < 1.5 * 8 * n


def test_band_outgrowing_its_room_keeps_theta(monkeypatch):
    # room for one score: every block grows the buffer, with the same bits
    from fscore import plugin
    unlabeled = fs.UnlabeledDataset(
        points=np.random.default_rng(5).random(((1 << 20) + 3, 1)))
    sized = plugin._band_threshold(IDENTITY, unlabeled, fs.FBetaParams())
    monkeypatch.setattr(plugin, "_band_room", lambda pilot, lo, hi, n: 1)
    assert plugin._band_threshold(IDENTITY, unlabeled, fs.FBetaParams()) == sized
