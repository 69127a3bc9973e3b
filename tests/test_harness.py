import importlib.util
import json
import math
import os
import re
import sys
import tracemalloc
import warnings
import dataclasses
from dataclasses import asdict

import numpy as np
import pytest

import fscore as fs
from fscore import harness, plugin
from fscore.harness import (ExperimentConfig, emit_report, run_dkw_check,
                            run_experiment, run_rate_experiment)
from fscore.table import read_table

SMALL = dict(n_grid=(200, 400, 800), reps=5, seed=0, oracle_atoms=20_000)


def test_config_validation(tmp_path):
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
                         (dict(seed=-1), "seed"),
                         (dict(estimator={"method": "nope"}), "estimator"),
                         (dict(estimator="knn"), "estimator"),
                         (dict(estimator=None), "estimator"),
                         (dict(estimator=[("method", "knn")]), "estimator"),
                         (dict(estimator={"method": ["knn"]}), "estimator"),
                         (dict(estimator={"method": None}), "estimator"),
                         (dict(estimator={"method": "kernel", "beta": 0.25}), "beta")):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**kwargs)
    # integral floats are accepted, and stored as ints
    cfg = ExperimentConfig(n_grid=(500.0, 1000), reps=5.0, seed=3.0,
                           oracle_atoms=1000.0)
    assert cfg.n_grid == (500, 1000) and type(cfg.n_grid[0]) is int
    assert (cfg.reps, cfg.seed, cfg.oracle_atoms) == (5, 3, 1000)
    assert all(type(v) is int for v in (cfg.reps, cfg.seed, cfg.oracle_atoms))
    # the estimator is checked where it enters, before any family or oracle
    # is built; a dict without a method is the kernel, as fit_from_config has it
    for method in ("knn", "kernel", "local_poly"):
        assert ExperimentConfig(estimator={"method": method}).estimator["method"] == method
    ExperimentConfig(estimator={"h": 0.1})
    # a numpy b is held as a Python float: float32 failed in the JSON report
    # and squared to inf in float32, which the oracle solve turned into a NaN
    cfg = ExperimentConfig(b=np.float32(1.0), family="constant", n_grid=(100, 200),
                           reps=2, oracle_atoms=1000)
    assert type(cfg.b) is float and cfg.b == 1.0
    big = ExperimentConfig(b=np.float32(1e30), family="constant").b
    assert type(big) is float and big == float(np.float32(1e30))
    harness._Oracle(fs.make_constant_family(), 1000, big)
    excess, _ = run_experiment(cfg)
    (path,) = emit_report(excess, "json", str(tmp_path))
    with open(path) as fh:
        assert json.load(fh)["config"]["b"] == 1.0


def test_n_rules():
    cfg = ExperimentConfig(n_grid=(100, 200), n_rule="n2")
    assert cfg.unlabeled_size(100) == 10_000
    cfg = ExperimentConfig(n_grid=(100, 200), n_rule=500)
    assert cfg.unlabeled_size(100) == 500


def test_numpy_fixed_n_writes_a_json_report(tmp_path):
    # an np.int64 N was kept and broke json.dump halfway through the file
    cfg = ExperimentConfig(family="constant", n_grid=(100, 200), n_rule=np.int64(64),
                           reps=2, oracle_atoms=100)
    assert type(cfg.n_rule) is int and cfg.unlabeled_size(100) == 64
    excess = run_experiment(cfg)[0]
    (path,) = emit_report(excess, "json", str(tmp_path / "ok"))
    assert json.loads(open(path).read())["config"]["n_rule"] == 64
    # a value json cannot take fails before the file is opened
    bad = dataclasses.replace(excess, config={**excess.config, "n_rule": np.int64(64)})
    with pytest.raises(TypeError, match="int64"):
        emit_report(bad, "json", str(tmp_path / "bad"))
    assert os.listdir(tmp_path / "bad") == []


HARD_PARAMS = {"d": 2, "beta": 1.0, "q": 4, "m": 5, "w": 0.03}


@pytest.mark.parametrize("kwargs, name", [
    (dict(family="constant", family_params={"foo": 1}), "family_params"),
    (dict(family="hard", family_params={"d": 2}), "family_params"),
    (dict(estimator={"method": "kernel", "k": 5}), "estimator keys"),
    (dict(estimator={"method": "knn", "k": "5"}), "estimator k"),
    (dict(estimator={"method": "kernel", "h": 0.0}), "estimator h"),
    (dict(estimator={"method": "kernel", "h": "0.1"}), "estimator h"),
    (dict(estimator={"method": "local_poly", "degree": 1.5}), "estimator degree"),
    (dict(family="hard", family_params={**HARD_PARAMS, "seed": 1.5}), "family_params seed"),
], ids=["family_key", "hard_missing_key", "estimator_key", "k", "h", "h_string",
        "degree", "hard_seed"])
def test_config_fails_before_any_fork(kwargs, name):
    # each failed in build_family with a bare TypeError, or in a replicate
    # worker, or was accepted
    with pytest.raises(ValueError, match=f"^{name} must") as caught:
        ExperimentConfig(**kwargs)
    assert caught.type is ValueError


def test_config_holds_an_integral_hard_seed_as_an_int():
    cfg = ExperimentConfig(family="hard", family_params={**HARD_PARAMS, "seed": 3.0})
    assert type(cfg.family_params["seed"]) is int and cfg.family_params["seed"] == 3
    ExperimentConfig(estimator={"method": "local_poly", "degree": 1.0, "h": 0.1})
    ExperimentConfig(estimator={"method": "knn", "k": np.int64(5)})


@pytest.mark.parametrize("build, error, name", [
    (lambda: fs.make_smooth_1d_family(alpha_target=True), fs.ConstructionError,
     "alpha_target"),
    (lambda: fs.make_smooth_1d_family(alpha_target="1"), fs.ConstructionError,
     "alpha_target"),
    (lambda: fs.make_smooth_1d_family(slope=True), fs.ConstructionError, "slope"),
    (lambda: fs.make_constant_family(eta_value=True), fs.ConstructionError, "eta_value"),
    (lambda: fs.make_two_point_family(eta_high=True), ValueError, "eta_high"),
    (lambda: fs.HardFamilyParams(d=1, beta=True, q=8, m=3, w=0.02), ValueError, "beta"),
    (lambda: fs.MarginSpec(alpha=True), ValueError, "alpha"),
    (lambda: fs.MarginSpec(alpha="x"), ValueError, "alpha"),
    (lambda: fs.hard_family_rate_params(1000, 1.0, 2, -1.0), fs.ConstructionError,
     "alpha"),
    (lambda: run_dkw_check([100], [True], 100), ValueError, "t_values"),
    (lambda: run_dkw_check([100], ["0.1"], 100), ValueError, "t_values"),
    (lambda: ExperimentConfig(family="nope"), ValueError, "family"),
    (lambda: ExperimentConfig(family_params=[1]), ValueError, "family_params"),
])
def test_inputs_checked_where_they_enter(build, error, name):
    # each was accepted, or failed later with a bare TypeError
    with pytest.raises(error, match=f"^{name} must") as caught:
        build()
    assert caught.type is error


_FOUR = fs.LabeledDataset(points=np.linspace(0.0, 1.0, 4)[:, None], labels=[0, 1, 0, 1])
_EMPTY_FIT = harness.RateFitResult(kind="excess", rows=[], slope=math.nan,
                                   intercept=math.nan, slope_halfwidth=math.nan,
                                   theory_slope=None, excluded_cells=0,
                                   inf_rate=True, config={})


@pytest.mark.parametrize("build, error, match", [
    (lambda: fs.LabeledDataset(points=np.zeros((2, 1)), labels=[1]), ValueError,
     "points and labels must be nonempty and equal length"),
    (lambda: fs.default_bandwidth(0, fs.SmoothnessSpec(beta=1.0), 1), ValueError,
     "n must be at least 1"),
    (lambda: fs.default_bandwidth(10, fs.SmoothnessSpec(beta=1.0), 0), ValueError,
     "d must be at least 1"),
    (lambda: fs.KNNEstimate(_FOUR, k=5), ValueError, r"k must be in \[1, 4\], got 5"),
    (lambda: fs.as_bits(fs.uniform_eta_grid(3), [0, 1]), ValueError,
     "classifier covers 2 points, support has 3"),
    (lambda: fs.DiscreteDistribution(support=np.empty((0, 1)), mass=[], eta=[]),
     ValueError, "distribution needs at least one support point"),
    (lambda: fs.solve_threshold([]), ValueError, "empty value sequence"),
    (lambda: fs.MarginSpec(alpha=-1.0), ValueError, "alpha must be positive"),
    (lambda: fs.make_smooth_1d_family(beta=1.5), fs.ConstructionError,
     r"beta must lie in \(0, 1\], got 1.5"),
    (lambda: fs.make_smooth_1d_family(x0=1.0), fs.ConstructionError,
     r"x0 must lie in \(0, 1\), got 1.0"),
    # the family is built, but its margin self-check measures 1.234
    (lambda: fs.make_smooth_1d_family(slope=0.01, alpha_target=4.0),
     fs.ConstructionError, "measured margin exponent 1.234 is off target 4.000"),
    (lambda: fs.make_constant_family(eta_value=1.5), fs.ConstructionError,
     r"eta_value must lie in \(0, 1\]"),
    (lambda: fs.verify_strong_density(fs.make_two_point_family())["note"], None,
     "no Lebesgue density declared"),
    (lambda: emit_report(_EMPTY_FIT, "xml", "out"), ValueError, "unknown format 'xml'$"),
])
def test_input_checks_reject_what_they_name(build, error, match, monkeypatch, tmp_path):
    # each check names what it rejects; the density check returns a note
    monkeypatch.chdir(tmp_path)
    if error is None:
        assert re.search(match, build())
        return
    with pytest.raises(error, match=match) as caught:
        build()
    assert caught.type is error


def test_rate_experiment_shape_and_determinism():
    cfg = ExperimentConfig(**SMALL)
    a = run_rate_experiment(cfg)
    b = run_rate_experiment(cfg)
    assert a.kind == "excess"
    assert [r["n"] for r in a.rows] == [200, 400, 800]
    assert a.rows == b.rows and a.slope == b.slope
    assert a.theory_slope == pytest.approx(-2 / 3)
    assert all(r["se"] >= 0 for r in a.rows)


def test_run_experiment_one_pass(monkeypatch, tmp_path):
    # the replicates run in this process and in forked workers, so each call
    # appends its cell to one file, in which lines of its size are atomic
    log = tmp_path / "calls"
    replicate = harness._replicate

    def counted(*args):
        with open(log, "a") as fh:
            fh.write(f"{args[3]} {args[4]}\n")
        return replicate(*args)

    monkeypatch.setattr(harness, "_replicate", counted)
    cfg = ExperimentConfig(**SMALL)
    excess, threshold = run_experiment(cfg)
    # one replicate per (n, rep) cell, for both curves
    calls = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    assert calls == sorted((n, cfg.seed + harness._CELL_SEED_STRIDE * i + rep)
                           for i, n in enumerate(cfg.n_grid) for rep in range(cfg.reps))
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
    with pytest.raises(ValueError, match="t_values"):
        run_dkw_check([100], ["0.1"], reps=100)


def test_dkw_rejects_empty_lists():
    with pytest.raises(ValueError, match="N_values"):
        run_dkw_check([], [0.1], reps=100)
    with pytest.raises(ValueError, match="t_values"):
        run_dkw_check([100], [], reps=100)


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


def test_all_degenerate_cell_is_an_error():
    # eta = 1e-12 draws no positive label at n = 5, so no replicate remains
    cfg = ExperimentConfig(family="constant", family_params={"eta_value": 1e-12},
                           n_grid=(5, 10), reps=2, oracle_atoms=100)
    with pytest.raises(RuntimeError, match="all replications degenerate at n=5"):
        run_experiment(cfg)


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


CHUNKED = dict(n_rule="n2", n_grid=(40, 90), reps=3, seed=2, oracle_atoms=2000)


@pytest.mark.parametrize("kwargs", [{}, {"family": "constant"},
                                    {"family": "two_point",
                                     "estimator": {"method": "knn"}}])
def test_chunked_draw_keeps_results(monkeypatch, kwargs):
    # these samplers draw the same numbers in blocks as in one call, and
    # theta_hat depends only on the multiset of scores, so a chunk of 777
    # (N = 1600 and 8100 span 3 and 11 blocks) gives the one-block result
    # (compared by repr, as a NaN slope is unequal to itself)
    cfg = ExperimentConfig(**CHUNKED, **kwargs)
    whole = repr([asdict(r) for r in run_experiment(cfg)])
    monkeypatch.setattr(plugin, "_DRAW_CHUNK", 777)
    assert repr([asdict(r) for r in run_experiment(cfg)]) == whole


@pytest.mark.parametrize("method", ["kernel", "knn", "local_poly"])
def test_chunked_unlabeled_dataset_keeps_theta(monkeypatch, method):
    # an in-memory, unsorted unlabeled set scored in blocks of 777 rows
    fam = fs.make_smooth_1d_family()
    labeled = fs.sample(fam, 300, seed=4)
    unlabeled = fs.sample(fam, 5000, seed=5, labeled=False)
    config = {"method": method}
    whole = fs.train_plugin(labeled, unlabeled, config).theta_hat
    blocks = []
    monkeypatch.setattr(plugin, "_DRAW_CHUNK", 777)
    monkeypatch.setattr(fs.UnlabeledDataset, "blocks",
                        lambda self, size, blocks_of=fs.UnlabeledDataset.blocks:
                        (blocks.append(b.shape[0]) or b for b in blocks_of(self, size)))
    assert fs.train_plugin(labeled, unlabeled, config).theta_hat == whole
    assert blocks == [715, 715, 714, 714, 714, 714, 714]


def test_chunked_hard_family_runs(monkeypatch):
    # the hard family's mixture sampler draws its component choices before
    # the points, so blocks draw other numbers than one call: only check
    # that a chunked N = n^2 run gives valid rows
    p = fs.hard_family_rate_params(200, beta=1.0, d=2, alpha=1.0)
    cfg = ExperimentConfig(family="hard",
                           family_params={"d": p.d, "beta": p.beta, "q": p.q,
                                          "m": p.m, "w": p.w, "seed": 0},
                           estimator={"method": "knn"}, **CHUNKED)
    monkeypatch.setattr(plugin, "_DRAW_CHUNK", 777)
    for result in run_experiment(cfg):
        assert [(r["n"], r["N"]) for r in result.rows] == [(40, 1600), (90, 8100)]
        for row in result.rows:
            assert row["reps_valid"] >= 1
            assert math.isfinite(row["mean"]) and row["mean"] >= 0.0


def test_n2_replicate_keeps_only_the_scores():
    # N = 4M unlabeled points: the 8N bytes of scores and O(chunk)
    # temporaries, never the draw and the scores together (16N)
    cfg = ExperimentConfig(n_rule="n2", n_grid=(2000,), reps=1, seed=0,
                           oracle_atoms=2000)
    family = harness.build_family(cfg)
    oracle = harness._Oracle(family, cfg.oracle_atoms, cfg.b)
    big_n = cfg.unlabeled_size(2000)
    tracemalloc.start()
    try:
        assert harness._replicate(family, oracle, cfg, 2000, 7) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * big_n


def test_unlabeled_draw_replays_its_blocks():
    # every blocks() pass draws the same points from the saved state, and
    # leaves the replicate's generator where it was
    family = fs.make_smooth_1d_family()
    rng = np.random.default_rng(11)
    draw = harness._UnlabeledDraw(family, rng.bit_generator.state, 2500)
    first = list(draw.blocks(777))
    second = list(draw.blocks(777))
    assert rng.bit_generator.state == np.random.default_rng(11).bit_generator.state
    assert [b.shape for b in first] == [(777, 1)] * 3 + [(169, 1)]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.sort(np.concatenate(first)[:, 0]),
                                  np.sort(np.random.default_rng(11).random(2500)))


def test_n2_replicate_holds_a_band_of_the_scores():
    # N = 4M unlabeled points: the pilot block, a band of 6-10 % of the
    # scores and O(chunk) temporaries.  Measured 0.36 x 8N here (0.31-0.46
    # over replicate seeds 0-5); 1.20 x 8N when every score was held
    cfg = ExperimentConfig(n_rule="n2", n_grid=(2000,), reps=1, seed=0,
                           oracle_atoms=2000)
    family = harness.build_family(cfg)
    oracle = harness._Oracle(family, cfg.oracle_atoms, cfg.b)
    big_n = cfg.unlabeled_size(2000)
    tracemalloc.start()
    try:
        assert harness._replicate(family, oracle, cfg, 2000, 7) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * big_n


# ---------------------------------------------------------------------------
# Replicates on forked workers: the same results, errors and no child left.

HARD_D2 = fs.hard_family_rate_params(200, beta=1.0, d=2, alpha=1.0)
WORKER_CONFIGS = {
    "smooth": dict(n_grid=(200, 400), reps=3, seed=1, oracle_atoms=5000),
    # N = 600^2 spans two scoring blocks and takes the band solve
    "smooth_n2": dict(n_rule="n2", n_grid=(200, 600), reps=2, seed=1,
                      oracle_atoms=5000),
    "constant": dict(family="constant", n_grid=(200, 400), reps=3, seed=1,
                     oracle_atoms=1000),
    "two_point_knn": dict(family="two_point", estimator={"method": "knn"},
                          n_grid=(200, 400), reps=3, seed=1, oracle_atoms=10),
    "hard_d2_knn": dict(family="hard", estimator={"method": "knn"},
                        family_params={"d": 2, "beta": 1.0, "q": HARD_D2.q,
                                       "m": HARD_D2.m, "w": HARD_D2.w, "seed": 0},
                        n_grid=(100, 200), reps=3, seed=1, oracle_atoms=2000),
}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", sorted(WORKER_CONFIGS))
def test_workers_give_the_serial_results(monkeypatch, name):
    cfg = ExperimentConfig(**WORKER_CONFIGS[name])
    results = []
    for cpus in (1, 3):
        monkeypatch.setattr(harness, "_usable_cpus", lambda cpus=cpus: cpus)
        results.append(repr([asdict(r) for r in run_experiment(cfg)]))
        assert_no_child_left()
    assert results[0] == results[1]


class WorkerFault(Exception):
    pass


class TwoArgumentFault(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


@pytest.mark.parametrize("where", ["child", "parent"])
def test_worker_error_reaches_the_caller(monkeypatch, where):
    parent = os.getpid()

    def failing(family, oracle, cfg, n, seed):
        if (os.getpid() != parent) == (where == "child"):
            raise WorkerFault(f"cell {n} {seed} failed")
        return {"theta_hat": 0.5, "theta_err": 0.1, "excess": 0.1}

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(harness, "_replicate", failing)
    with pytest.raises(WorkerFault, match=r"cell \d+ \d+ failed"):
        run_experiment(ExperimentConfig(family="constant", n_grid=(100, 200),
                                        reps=3, oracle_atoms=100))
    assert_no_child_left()


def test_unpicklable_worker_error_is_named(monkeypatch):
    # an exception that cannot be rebuilt from its args comes back as a
    # RuntimeError that names its type and message
    parent = os.getpid()

    def failing(family, oracle, cfg, n, seed):
        if os.getpid() != parent:
            raise TwoArgumentFault(7, "no good")
        return {"theta_hat": 0.5, "theta_err": 0.1, "excess": 0.1}

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_replicate", failing)
    with pytest.raises(RuntimeError, match="TwoArgumentFault: 7: no good"):
        run_experiment(ExperimentConfig(family="constant", n_grid=(100, 200),
                                        reps=1, oracle_atoms=100))
    assert_no_child_left()


def test_worker_that_dies_without_a_result_is_an_error(monkeypatch):
    # a child killed before it writes its share (say, for using too much
    # memory) leaves an empty pipe; the caller raises and reaps it
    parent = os.getpid()

    def dying(family, oracle, cfg, n, seed):
        if os.getpid() != parent:
            os._exit(3)
        return {"theta_hat": 0.5, "theta_err": 0.1, "excess": 0.1}

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_replicate", dying)
    with pytest.raises(RuntimeError, match="a replicate worker exited with "
                                           "status 3 and no result"):
        run_experiment(ExperimentConfig(family="constant", n_grid=(100, 200),
                                        reps=1, oracle_atoms=100))
    assert_no_child_left()


def test_worker_warnings_reach_the_caller(monkeypatch):
    # a warning raised in a forked worker was lost: the caller saw 4 at
    # W = 1 and 2 at W = 2.  Every cell's warnings now come back and are
    # raised again in (n, rep) order, the same for every W
    replicate = harness._replicate
    text = ["cell {n} {seed}"]

    def warning(family, oracle, cfg, n, seed):
        warnings.warn(text[0].format(n=n, seed=seed), fs.DegenerateScoreSample)
        return replicate(family, oracle, cfg, n, seed)

    def caught(cpus, action):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter(action)
            run_experiment(cfg)
        assert_no_child_left()
        return [(w.category, str(w.message), w.filename, w.lineno) for w in records]

    monkeypatch.setattr(harness, "_replicate", warning)
    cfg = ExperimentConfig(n_grid=(100, 200), reps=2, oracle_atoms=2000)
    always = caught(1, "always")
    assert caught(2, "always") == always
    assert [(c, m) for c, m, _, _ in always] == [
        (fs.DegenerateScoreSample, "cell 100 0"), (fs.DegenerateScoreSample, "cell 100 1"),
        (fs.DegenerateScoreSample, "cell 200 1000003"),
        (fs.DegenerateScoreSample, "cell 200 1000004")]
    assert always[0][2] == __file__
    # under the name of the module that raised them, so a filter on that
    # module matches them and one on another module does not
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda cpus=cpus: cpus)
        for module, expected in ((re.escape(__name__) + r"\Z", []), (r"fscore\.", always)):
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                warnings.filterwarnings("ignore", module=module)
                run_experiment(cfg)
            assert_no_child_left()
            assert [(w.category, str(w.message), w.filename, w.lineno)
                    for w in records] == expected
    # the caller's filters apply to them: a "default" filter shows a warning
    # that every cell repeats once, and an error filter raises
    text[0] = "every cell"
    for cpus in (1, 2):
        assert [m for _, m, _, _ in caught(cpus, "default")] == ["every cell"]
        monkeypatch.setattr(harness, "_usable_cpus", lambda cpus=cpus: cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error", fs.DegenerateScoreSample)
            with pytest.raises(fs.DegenerateScoreSample, match="every cell"):
                run_experiment(cfg)
        assert_no_child_left()


def test_worker_warnings_keep_their_module(monkeypatch, tmp_path):
    # the same text, category and line raised in two modules are two
    # warnings to a "default" filter, as they are where they were raised
    paths = [tmp_path / "first_raiser.py", tmp_path / "second_raiser.py"]
    raisers = []
    for path in paths:
        path.write_text("import warnings\n"
                        "def warn(category): warnings.warn('same', category)\n")
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setitem(sys.modules, path.stem, module)
        raisers.append(module.warn)
    replicate = harness._replicate

    def warning(*args):
        for warn in raisers:
            warn(fs.DegenerateScoreSample)
        return replicate(*args)

    monkeypatch.setattr(harness, "_replicate", warning)
    cfg = ExperimentConfig(n_grid=(100, 200), reps=2, oracle_atoms=2000)
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda cpus=cpus: cpus)
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("default")
            run_experiment(cfg)
        assert_no_child_left()
        assert [w.filename for w in records] == [str(p) for p in paths]


def test_cells_are_dealt_by_cost():
    # rate_n2's cells: the N = 4M cell alone, the other two on one worker
    cfg = ExperimentConfig(n_rule="n2", n_grid=(500, 1000, 2000), reps=1)
    costs = [n + cfg.unlabeled_size(n) for n in cfg.n_grid]
    assert harness._deal(costs, 2) == [[2], [1, 0]]
    # cells of one cost go round-robin, in index order
    assert harness._deal([5] * 7, 3) == [[0, 3, 6], [1, 4], [2, 5]]
    # equal n grids of N = n: largest n first, round-robin, as before
    costs = [2 * n for n in (100, 100, 200, 200, 400, 400)]
    assert harness._deal(costs, 2) == [[4, 2, 0], [5, 3, 1]]
    assert harness._deal([3, 1], 1) == [[0, 1]]


def test_dealing_keeps_the_reports(monkeypatch, tmp_path):
    # an uneven N = n^2 grid: one worker, or the parent alone on n = 600
    cfg = ExperimentConfig(n_rule="n2", n_grid=(100, 200, 600), reps=1, seed=1,
                           oracle_atoms=5000)
    parent, here = os.getpid(), []
    replicate = harness._replicate

    def recorded(family, oracle, cfg, n, seed):
        if os.getpid() == parent:
            here.append(n)
        return replicate(family, oracle, cfg, n, seed)

    monkeypatch.setattr(harness, "_replicate", recorded)
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(harness, "_usable_cpus", lambda cpus=cpus: cpus)
        here.clear()
        out = tmp_path / str(cpus)
        for result in run_experiment(cfg):
            for fmt in ("csv", "json", "svg-plot"):
                emit_report(result, fmt, str(out))
        reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert_no_child_left()
    assert here == [600]
    assert len(reports[0]) == 8 and reports[0] == reports[1]


def test_workers_are_one_per_usable_cpu(monkeypatch):
    # cells of the same cost n + N are dealt largest n first, round-robin;
    # this process runs the first share, and a worker each other one
    parent = os.getpid()
    here, forked = [], []
    replicate, fork = harness._replicate, os.fork

    def recorded(family, oracle, cfg, n, seed):
        if os.getpid() == parent:
            here.append(n)
        return replicate(family, oracle, cfg, n, seed)

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(harness, "_replicate", recorded)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    run_experiment(ExperimentConfig(family="constant", n_grid=(100, 200, 400),
                                    reps=2, oracle_atoms=100))
    assert len(forked) == 1 and here == [400, 200, 100]
    assert_no_child_left()


def test_without_fork_this_process_runs_every_cell(monkeypatch):
    parent = os.getpid()
    ran = []
    replicate = harness._replicate

    def recorded(family, oracle, cfg, n, seed):
        assert os.getpid() == parent
        ran.append(n)
        return replicate(family, oracle, cfg, n, seed)

    cfg = ExperimentConfig(family="constant", n_grid=(100, 200), reps=2, oracle_atoms=100)
    serial = repr([asdict(r) for r in run_experiment(cfg)])
    monkeypatch.setattr(harness, "_replicate", recorded)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    monkeypatch.delattr(os, "fork")
    assert repr([asdict(r) for r in run_experiment(cfg)]) == serial
    assert ran == [200, 200, 100, 100]
