import tracemalloc

import numpy as np
import pytest

import fscore as fs
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


def test_predict_strict_inequality():
    _, labeled, unlabeled = make_sets(n=200, big_n=200)
    clf = fs.train_plugin(labeled, unlabeled, {"method": "knn", "k": 200})
    # with k = n the estimate is constant = mean(y); predictions flip on theta
    const = float(labeled.labels.mean())
    expected = 1 if const > clf.theta_hat else 0
    assert clf.predict(np.array([[0.5]]))[0] == expected


def test_save_load_round_trip(tmp_path):
    _, labeled, unlabeled = make_sets(n=150, big_n=150)
    clf = fs.train_plugin(labeled, unlabeled, {"method": "kernel", "h": 0.11})
    prefix = str(tmp_path / "model")
    clf.save(prefix)
    back = fs.PluginClassifier.load(prefix)
    assert back.theta_hat == clf.theta_hat
    grid = np.linspace(0, 1, 50).reshape(-1, 1)
    np.testing.assert_array_equal(back.predict(grid), clf.predict(grid))


def test_theta_hat_validation():
    _, labeled, unlabeled = make_sets(n=100, big_n=100)
    clf = fs.train_plugin(labeled, unlabeled, {"method": "kernel"})
    with pytest.raises(ValueError):
        fs.PluginClassifier(eta_hat=clf.eta_hat, theta_hat=0.9,
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
