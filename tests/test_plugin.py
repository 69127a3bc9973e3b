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


def test_augmentation_when_unlabeled_small():
    _, labeled, _ = make_sets(n=200, big_n=50)
    small = fs.UnlabeledDataset(points=labeled.points[:50])
    clf = fs.train_plugin(labeled, small, {"method": "kernel"})
    assert clf.provenance["augmented"] is True
    assert clf.provenance["N_effective"] == 250


def test_empty_unlabeled_uses_labeled_features():
    _, labeled, _ = make_sets(n=100, big_n=10)
    empty = fs.UnlabeledDataset(points=np.empty((0, 1)))
    clf = fs.train_plugin(labeled, empty, {"method": "kernel"})
    assert clf.provenance["N_effective"] == 100


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
