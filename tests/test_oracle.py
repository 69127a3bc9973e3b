import json

import numpy as np
import pytest

import fscore as fs


def test_brute_force_two_point():
    d = fs.DiscreteDistribution(support=np.array([[0.0], [1.0]]),
                                mass=np.array([0.5, 0.5]),
                                eta=np.array([0.9, 0.1]))
    best, bits = fs.brute_force_optimum(d)
    assert best == pytest.approx(0.45, abs=1e-12)
    np.testing.assert_array_equal(bits, [1, 0])


def test_brute_force_size_cap():
    d = fs.uniform_eta_grid(21)
    with pytest.raises(fs.OracleSizeError):
        fs.brute_force_optimum(d)


def test_brute_force_matches_thresholding():
    rng = np.random.default_rng(2)
    p = fs.FBetaParams(b=1.0)
    for _ in range(100):
        d = fs.random_distribution(rng)
        best, _ = fs.brute_force_optimum(d, p)
        thresholded = fs.population_fbeta(d, fs.bayes_classifier(d, p), p)
        assert best == pytest.approx(thresholded, abs=1e-12)


def test_scan_threshold_agrees_with_exact():
    rng = np.random.default_rng(4)
    p = fs.FBetaParams(b=1.0)
    for _ in range(20):
        d = fs.random_distribution(rng)
        exact = fs.bayes_threshold(d, p)
        scanned = fs.scan_threshold(d, p, grid_size=10 ** 5)
        assert scanned == pytest.approx(exact, abs=2e-5)


def test_scan_threshold_grid_floor():
    d = fs.uniform_eta_grid(8)
    with pytest.raises(ValueError):
        fs.scan_threshold(d, grid_size=10)
    for bad in (1000.5, True, "1000"):
        with pytest.raises(ValueError, match="grid_size"):
            fs.scan_threshold(d, grid_size=bad)
    # an integral float is a grid size
    assert fs.scan_threshold(d, grid_size=1e6) == fs.scan_threshold(d, grid_size=10 ** 6)


def test_suite_clean_run(tmp_path):
    report = fs.randomized_identity_suite(50, seed=0,
                                          out_dir=str(tmp_path / "fail"))
    assert report.ok
    assert report.passes_optimality == 50
    assert report.passes_excess_identity == 50
    assert report.passes_threshold_convergence == 50
    assert report.median_error_large < report.median_error_small
    assert not (tmp_path / "fail").exists()


def test_suite_reports_failures_and_writes_replays(monkeypatch, tmp_path):
    # a Lemma-1 excess off by 1e-6 fails every trial's excess identity; the
    # suite records and writes each failure and returns, raising nothing
    from fscore import oracle
    true_excess = oracle.excess_fbeta
    monkeypatch.setattr(oracle, "excess_fbeta",
                        lambda dist, g, params: true_excess(dist, g, params) + 1e-6)
    out = tmp_path / "fail"
    report = fs.randomized_identity_suite(3, seed=0, out_dir=str(out))
    assert not report.ok
    assert report.passes_optimality == 3 and report.passes_excess_identity == 0
    assert [r["trial"] for r in report.failures] == [0, 1, 2]
    for record in report.failures:
        assert record["failure"] == "excess_identity"
        assert record["lemma1"] - record["direct"] == pytest.approx(1e-6, abs=1e-12)
        stem = out / f"trial_{record['trial']:05d}"
        assert json.loads(stem.with_suffix(".json").read_text()) == record
        assert stem.with_suffix(".csv").exists()
    # trial 0's law is the first the seed draws
    replay = fs.DiscreteDistribution.from_csv(out / "trial_00000.csv")
    drawn = fs.random_distribution(np.random.default_rng(0), k_max=12)
    assert replay.size == 11
    for name in ("support", "mass", "eta"):
        np.testing.assert_array_equal(getattr(replay, name), getattr(drawn, name))


def test_suite_rejects_zero_trials(tmp_path):
    with pytest.raises(ValueError):
        fs.randomized_identity_suite(0, out_dir=str(tmp_path))
    for bad in (True, 2.5, "3"):
        with pytest.raises(ValueError, match="trials"):
            fs.randomized_identity_suite(bad, out_dir=str(tmp_path))
