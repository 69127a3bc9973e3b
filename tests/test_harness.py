import json
import math

import numpy as np
import pytest

import fscore as fs
from fscore import harness
from fscore.harness import (ExperimentConfig, emit_report, read_rate_table_csv,
                            run_dkw_check, run_rate_experiment,
                            run_threshold_experiment)

SMALL = dict(n_grid=(200, 400, 800), reps=5, seed=0, oracle_atoms=20_000)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_grid=(400, 200))
    with pytest.raises(ValueError):
        ExperimentConfig(reps=0)


def test_n_rules():
    cfg = ExperimentConfig(n_grid=(100, 200), n_rule="n2")
    assert cfg.unlabeled_size(100) == 10_000
    cfg = ExperimentConfig(n_grid=(100, 200), n_rule=500)
    assert cfg.unlabeled_size(100) == 500


def test_rate_experiment_shape_and_determinism():
    cfg = ExperimentConfig(**SMALL)
    a = run_rate_experiment(cfg)
    b = run_rate_experiment(cfg)
    assert a.kind == "excess"
    assert [r["n"] for r in a.rows] == [200, 400, 800]
    assert a.rows == b.rows and a.slope == b.slope
    assert a.theory_slope == pytest.approx(-2 / 3)
    assert all(r["se"] >= 0 for r in a.rows)


def test_threshold_experiment_theory_exponent():
    res = run_threshold_experiment(ExperimentConfig(**SMALL))
    assert res.kind == "threshold"
    assert res.theory_slope == pytest.approx(-1 / 3)
    assert all(r["mean"] >= 0 for r in res.rows)


def test_workers_match_serial():
    cfg = ExperimentConfig(**SMALL)
    serial = run_rate_experiment(cfg)
    threaded = run_rate_experiment(ExperimentConfig(**SMALL, workers=4))
    assert serial.rows == threaded.rows


def test_separated_margin_inf_rate_flag():
    cfg = ExperimentConfig(family="two_point", estimator={"method": "knn"},
                           n_grid=(200, 400, 800), reps=5, seed=0,
                           oracle_atoms=10)
    res = run_rate_experiment(cfg)
    # excess hits exactly zero once the estimator separates the two atoms
    assert res.rows[-1]["zero_fraction"] == 1.0
    if all(r["mean"] == 0.0 for r in res.rows[1:]):
        assert res.inf_rate


def test_constant_family_threshold_noise_only():
    generic = run_threshold_experiment(ExperimentConfig(**SMALL))
    const = run_threshold_experiment(ExperimentConfig(
        family="constant", **SMALL))
    # a constant eta has no margin structure to resolve; its threshold error
    # at the largest n should not exceed the generic family's
    assert const.rows[-1]["mean"] <= generic.rows[-1]["mean"] + 0.02


def test_dkw_rows_and_bounds():
    rows = run_dkw_check([100, 400], [0.05, 0.1], reps=200, seed=0)
    assert len(rows) == 4
    for r in rows:
        assert 0.0 <= r["frequency"] <= 1.0
        assert r["frequency"] <= r["bound"] + 3 * r["se"] + 0.05


def test_dkw_reps_floor():
    with pytest.raises(ValueError):
        run_dkw_check([100], [0.1], reps=10)


def test_emit_csv_round_trip(tmp_path):
    res = run_rate_experiment(ExperimentConfig(**SMALL))
    paths = emit_report(res, "csv", str(tmp_path))
    rows = read_rate_table_csv(paths[0])
    assert rows == res.rows


def test_emit_json_and_svg(tmp_path):
    res = run_rate_experiment(ExperimentConfig(**SMALL))
    (json_path,) = emit_report(res, "json", str(tmp_path))
    record = json.loads(open(json_path).read())
    assert record["slope"] == res.slope or (
        math.isnan(record["slope"]) and math.isnan(res.slope))
    (svg_path,) = emit_report(res, "svg-plot", str(tmp_path))
    text = open(svg_path).read()
    assert text.startswith("<svg") and "circle" in text


def test_emit_byte_identical(tmp_path):
    res = run_rate_experiment(ExperimentConfig(**SMALL))
    p1 = emit_report(res, "csv", str(tmp_path / "a"))
    p2 = emit_report(res, "csv", str(tmp_path / "b"))
    for a, b in zip(p1, p2):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        run_rate_experiment(ExperimentConfig(family="nope", **SMALL))


def test_sorted_unlabeled_draw_keeps_excess():
    # _replicate sorts the 1-d unlabeled draw; redrawing it in the order it
    # was sampled must give the same theta_hat and excess, bit for bit
    cfg = ExperimentConfig(n_rule="n2", n_grid=(300, 600), reps=1, seed=3,
                           oracle_atoms=20_000)
    family = harness.build_family(cfg)
    oracle = harness._Oracle(family, cfg.oracle_atoms, cfg.b)
    n, seed = 300, 17
    got = harness._replicate(family, oracle, cfg, n, seed)
    rng = np.random.default_rng(seed)
    x = family.sampler(rng, n).reshape(n, 1)
    y = (rng.random(n) < family.eta(x)).astype(float)
    assert y.sum() > 0
    x_unl = family.sampler(rng, n * n).reshape(n * n, 1)
    est = fs.fit_from_config(fs.LabeledDataset(points=x, labels=y),
                             harness.resolve_estimator(cfg.estimator, n, family))
    theta = fs.empirical_threshold(fs.ScoreSample(values=est.evaluate(x_unl)))
    assert got["theta_hat"] == theta
    assert got["excess"] == oracle.excess(est.evaluate(oracle.dist.support), theta)
