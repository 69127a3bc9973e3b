import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import fscore as fs
from fscore import harness
from fscore.harness import (ExperimentConfig, emit_report, run_dkw_check,
                            run_experiment, run_rate_experiment)
from fscore.table import read_table

SMALL = dict(n_grid=(200, 400, 800), reps=5, seed=0, oracle_atoms=20_000)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_grid=(400, 200))
    with pytest.raises(ValueError):
        ExperimentConfig(reps=0)
    for rule in ("n3", 0, -5, 2.5, True, "100"):
        with pytest.raises(ValueError, match="n_rule"):
            ExperimentConfig(n_rule=rule)
    for kwargs, name in ((dict(n_grid=(0, 10)), "n_grid"),
                         (dict(n_grid=(-5, 10)), "n_grid"),
                         (dict(oracle_atoms=0), "oracle_atoms"),
                         (dict(b=-1.0), "b must"),
                         (dict(b=0.0), "b must"),
                         (dict(b=math.inf), "b must"),
                         (dict(b=math.nan), "b must"),
                         (dict(b=1e200), "b must"),
                         (dict(n_grid=(100.7, 200)), "n_grid"),
                         (dict(n_grid=(True, 200)), "n_grid"),
                         (dict(reps=True), "reps"),
                         (dict(reps=2.5), "reps"),
                         (dict(oracle_atoms=1000.5), "oracle_atoms"),
                         (dict(seed=1.5), "seed"),
                         (dict(seed=-1), "seed")):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**kwargs)
    # integral floats are accepted, and stored as ints
    cfg = ExperimentConfig(n_grid=(500.0, 1000), reps=5.0, seed=3.0,
                           oracle_atoms=1000.0)
    assert cfg.n_grid == (500, 1000) and type(cfg.n_grid[0]) is int
    assert (cfg.reps, cfg.seed, cfg.oracle_atoms) == (5, 3, 1000)
    assert all(type(v) is int for v in (cfg.reps, cfg.seed, cfg.oracle_atoms))


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


def test_run_experiment_one_pass(monkeypatch):
    calls = []
    replicate = harness._replicate

    def counted(*args):
        calls.append(args[3])
        return replicate(*args)

    monkeypatch.setattr(harness, "_replicate", counted)
    cfg = ExperimentConfig(**SMALL)
    excess, threshold = run_experiment(cfg)
    # one replicate per (n, rep) cell, for both curves
    assert calls == [n for n in cfg.n_grid for _ in range(cfg.reps)]
    assert (excess.kind, threshold.kind) == ("excess", "threshold")
    key = ("n", "N", "reps_valid")
    assert [[r[k] for k in key] for r in excess.rows] == \
        [[r[k] for k in key] for r in threshold.rows]
    assert asdict(run_rate_experiment(cfg)) == asdict(excess)


def test_threshold_experiment_theory_exponent():
    res = run_experiment(ExperimentConfig(**SMALL))[1]
    assert res.kind == "threshold"
    assert res.theory_slope == pytest.approx(-1 / 3)
    assert all(r["mean"] >= 0 for r in res.rows)


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
    generic = run_experiment(ExperimentConfig(**SMALL))[1]
    const = run_experiment(ExperimentConfig(family="constant", **SMALL))[1]
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


def test_dkw_checks_integer_inputs():
    for args, kwargs, field in ((([100.7, 1000], [0.1], 200), {}, "N_values"),
                                (([True], [0.1], 200), {}, "N_values"),
                                (([0, 100], [0.1], 200), {}, "N_values"),
                                (([100], [0.1], 200.9), {}, "reps"),
                                (([100], [0.1], 200), {"seed": 1.5}, "seed"),
                                (([100], [0.1], 200), {"seed": -1}, "seed")):
        with pytest.raises(ValueError, match=field):
            run_dkw_check(*args, **kwargs)
    rows = run_dkw_check([100.0], [0.1], reps=200.0, seed=3.0)
    assert rows == run_dkw_check([100], [0.1], reps=200, seed=3)
    assert type(rows[0]["N"]) is int


def test_dkw_rejects_nonpositive_or_nonfinite_t():
    # t = NaN wrote a bare NaN into the JSON report, and a t <= 0 row read
    # as a violation of its bound
    for t in (math.nan, math.inf, -0.5, 0.0):
        with pytest.raises(ValueError, match="t_values"):
            run_dkw_check([100], [0.1, t], reps=100)
    assert run_dkw_check([100], ["0.1"], reps=100) == run_dkw_check([100], [0.1], reps=100)


def test_emit_csv_round_trip(tmp_path):
    res = run_rate_experiment(ExperimentConfig(**SMALL))
    paths = emit_report(res, "csv", str(tmp_path))
    header, values = read_table(paths[0])
    assert [dict(zip(header, row)) for row in values.tolist()] == res.rows


def test_emit_json_and_svg(tmp_path):
    res = run_rate_experiment(ExperimentConfig(**SMALL))
    (json_path,) = emit_report(res, "json", str(tmp_path))
    record = json.loads(open(json_path).read())
    assert record["slope"] == res.slope or (
        record["slope"] is None and math.isnan(res.slope))
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
                             {"method": "kernel", "h": n ** (-1 / 3)})
    theta = fs.empirical_threshold(fs.ScoreSample(values=est.evaluate(x_unl)))
    assert got["theta_hat"] == theta
    assert got["excess"] == oracle.excess(est.evaluate(oracle.dist.support) > theta)


def test_degenerate_draws_dropped_and_counted(tmp_path):
    # with eta = 0.005 most labeled draws hold no positive label; train_plugin
    # rejects them and the row counts only the replicates that remain
    cfg = ExperimentConfig(family="constant", family_params={"eta_value": 0.005},
                           n_grid=(50, 100), reps=40, seed=0, oracle_atoms=100)
    res = run_rate_experiment(cfg)
    for row in res.rows:
        assert 0 < row["reps_valid"] < cfg.reps
    (json_path,) = emit_report(res, "json", str(tmp_path))
    rows = json.loads(open(json_path).read())["rows"]
    assert [r["reps_valid"] for r in rows] == [r["reps_valid"] for r in res.rows]


@pytest.mark.parametrize("method", ["knn", "kernel"])
def test_hard_family_d2_rate_config(method):
    # the grid-of-bumps family at d = 2 runs as a rate config on the
    # kd-tree estimators
    p = fs.hard_family_rate_params(2000, beta=1.0, d=2, alpha=1.0)
    cfg = ExperimentConfig(family="hard",
                           family_params={"d": p.d, "beta": p.beta, "q": p.q,
                                          "m": p.m, "w": p.w, "seed": 0},
                           estimator={"method": method},
                           n_grid=(250, 500, 1000, 2000), reps=5, seed=3,
                           oracle_atoms=5000)
    result = run_rate_experiment(cfg)
    assert [r["n"] for r in result.rows] == [250, 500, 1000, 2000]
    for row in result.rows:
        assert row["reps_valid"] >= 1
        assert math.isfinite(row["mean"]) and row["mean"] >= 0.0
    assert math.isfinite(result.slope)
