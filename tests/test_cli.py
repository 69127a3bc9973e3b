import json

import numpy as np
import pytest

import fscore as fs
from fscore.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_subcommand(tmp_path, capsys):
    out = str(tmp_path / "rep")
    code, stdout, _ = run_cli(capsys, "rate", "--n-grid", "200,400",
                              "--reps", "3", "--seed", "1", "--out", out,
                              "--format", "csv")
    assert code == 0
    record = json.loads(stdout)
    assert len(record["rows"]) == 2
    assert (tmp_path / "rep" / "excess_rate.csv").exists()


def test_threshold_subcommand(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "threshold", "--n-grid", "200,400",
                              "--reps", "3", "--seed", "1",
                              "--out", str(tmp_path), "--format", "json")
    assert code == 0
    assert json.loads(stdout)["kind"] == "threshold"
    with open(tmp_path / "threshold_rate.json") as fh:
        rows = json.load(fh)["rows"]
    cfg = fs.ExperimentConfig(n_grid=(200, 400), reps=3, seed=1)
    assert rows == fs.run_experiment(cfg)[1].rows


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_grid": [100, 200], "reps": 2,
                               "estimator": {"method": "knn"}}))
    code, stdout, _ = run_cli(capsys, "rate", "--config", str(cfg),
                              "--reps", "3", "--out", str(tmp_path / "o"))
    assert code == 0
    record = json.loads(stdout)
    assert record["config"]["reps"] == 3  # flag wins over file
    assert record["config"]["estimator"]["method"] == "knn"


def test_dkw_subcommand(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "dkw", "--n-values", "100",
                              "--t-values", "0.1", "--reps", "200",
                              "--seed", "0", "--out", str(tmp_path))
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert rows[0]["N"] == 100 and rows[0]["t"] == 0.1


def test_dkw_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "dkw.json"
    cfg.write_text(json.dumps({"reps": 100, "n_values": [100], "seed": 4}))
    code, stdout, _ = run_cli(capsys, "dkw", "--config", str(cfg),
                              "--reps", "300", "--n-values", "50",
                              "--out", str(tmp_path))
    assert code == 0
    # flags beat the file, the file beats the built-in defaults
    expected = fs.run_dkw_check([50], [0.01, 0.05, 0.1], reps=300, seed=4)
    assert json.loads(stdout)["rows"] == expected


def test_dkw_rejects_fractional_integers(tmp_path, capsys):
    # a fractional N or reps used to be truncated by int() and run silently
    for values, field in (({"n_values": [100.7, 1000]}, "N_values"),
                          ({"n_values": [True]}, "N_values"),
                          ({"reps": False}, "reps"),
                          ({"reps": 200.9}, "reps"),
                          ({"seed": 1.5}, "seed"),
                          ({"n_values": "0,100"}, "N_values"),
                          ({"seed": -1}, "seed")):
        cfg = tmp_path / "dkw.json"
        cfg.write_text(json.dumps({"t_values": [0.1], "reps": 100, **values}))
        code, stdout, stderr = run_cli(capsys, "dkw", "--config", str(cfg),
                                       "--out", str(tmp_path / "o"))
        assert code != 0 and stdout == ""
        record = json.loads(stderr)
        assert record["error"] == "ValueError" and field in record["message"]
    assert not (tmp_path / "o").exists()
    # integral floats and numeric strings are still accepted
    for values in ({"n_values": [50.0], "reps": 100.0, "seed": 2.0},
                   {"n_values": ["50"], "reps": "100", "seed": "2"}):
        cfg.write_text(json.dumps({"t_values": [0.1], **values}))
        code, stdout, _ = run_cli(capsys, "dkw", "--config", str(cfg),
                                  "--out", str(tmp_path / "o"))
        assert code == 0
        assert json.loads(stdout)["rows"] == fs.run_dkw_check([50], [0.1], 100, seed=2)


def test_dkw_rejects_nonpositive_or_nonfinite_t(tmp_path, capsys):
    for raw in ("nan,-0.5", "0.1,-0.5", "inf", "0"):
        code, stdout, stderr = run_cli(capsys, "dkw", "--t-values", raw,
                                       "--n-values", "10", "--reps", "100",
                                       "--format", "json",
                                       "--out", str(tmp_path / "o"))
        assert code == 2 and stdout == ""
        record = json.loads(stderr)
        assert record["error"] == "ValueError" and "t_values" in record["message"]
    assert not list(tmp_path.glob("**/dkw.*"))


def test_oracle_suite_subcommand(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "oracle-suite", "--trials", "20",
                              "--seed", "0", "--out", str(tmp_path / "f"))
    assert code == 0
    assert json.loads(stdout)["ok"] is True


def test_train_predict_round_trip(tmp_path, capsys):
    fam = fs.make_smooth_1d_family()
    fs.sample(fam, 300, seed=1, labeled=True).to_csv(tmp_path / "lab.csv")
    fs.sample(fam, 400, seed=2, labeled=False).to_csv(tmp_path / "unl.csv")
    code, stdout, _ = run_cli(capsys, "train", "--labeled",
                              str(tmp_path / "lab.csv"), "--unlabeled",
                              str(tmp_path / "unl.csv"), "--out",
                              str(tmp_path / "model"))
    assert code == 0
    theta = json.loads(stdout)["theta_hat"]
    assert 0.0 <= theta <= 0.5
    code, stdout, _ = run_cli(capsys, "predict", "--model",
                              str(tmp_path / "model"), "--points",
                              str(tmp_path / "unl.csv"), "--out",
                              str(tmp_path / "preds.csv"))
    assert code == 0
    lines = (tmp_path / "preds.csv").read_text().strip().splitlines()
    assert lines[0] == "x_1,prediction"
    assert len(lines) == 401


def test_train_rejects_invalid_hyperparameters(tmp_path, capsys):
    fam = fs.make_smooth_1d_family()
    fs.sample(fam, 100, seed=1, labeled=True).to_csv(tmp_path / "lab.csv")
    for estimator, field in (('{"method": "knn", "k": 2.7}', "k"),
                             ('{"method": "knn", "k": true}', "k"),
                             ('{"method": "local_poly", "degree": 1.5}', "degree"),
                             ('{"method": "kernel", "h": NaN}', "h")):
        code, _, stderr = run_cli(capsys, "train", "--labeled",
                                  str(tmp_path / "lab.csv"), "--estimator",
                                  estimator, "--out", str(tmp_path / "model"))
        record = json.loads(stderr)
        assert code == 2 and record["error"] == "ValueError"
        assert record["message"].startswith(("k ", "degree ", "bandwidth h "))
        assert f"{field} must" in record["message"]
    code, _, stderr = run_cli(capsys, "train", "--labeled", str(tmp_path / "lab.csv"),
                              "--b", "inf", "--out", str(tmp_path / "model"))
    record = json.loads(stderr)
    assert code == 2 and record["error"] == "ValueError"
    assert "b must" in record["message"]
    assert not (tmp_path / "model.json").exists()


def test_error_record_on_failure(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "rate", "--family", "bogus",
                              "--n-grid", "100,200", "--reps", "2",
                              "--out", str(tmp_path))
    assert code != 0
    record = json.loads(stderr)
    assert record["error"] == "ValueError"
    assert "bogus" in record["message"]
    for rule in ("0", "-5", "n3"):
        code, _, stderr = run_cli(capsys, "rate", "--n-rule", rule,
                                  "--out", str(tmp_path))
        assert code != 0 and "n_rule" in json.loads(stderr)["message"]
    # b = inf wrote a report of zero excesses with "b": null
    code, stdout, stderr = run_cli(capsys, "rate", "--b", "inf", "--family",
                                   "constant", "--out", str(tmp_path / "inf"))
    record = json.loads(stderr)
    assert code == 2 and stdout == "" and record["error"] == "ValueError"
    assert "b must" in record["message"] and not (tmp_path / "inf").exists()


def test_same_seed_byte_identical(tmp_path, capsys):
    for name in ("r1", "r2"):
        code, _, _ = run_cli(capsys, "dkw", "--reps", "200", "--seed", "9",
                             "--out", str(tmp_path / name))
        assert code == 0
    a = (tmp_path / "r1" / "dkw.csv").read_bytes()
    b = (tmp_path / "r2" / "dkw.csv").read_bytes()
    assert a == b


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_rate_report_and_summary_are_strict_json(tmp_path, capsys):
    # the constant family has zero excess, so the fit has no two positive
    # means and slope, intercept and slope_halfwidth are NaN
    code, stdout, _ = run_cli(capsys, "rate", "--family", "constant",
                              "--n-grid", "100,200", "--reps", "3",
                              "--format", "json", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads(stdout, parse_constant=_reject_constant)
    with open(tmp_path / "excess_rate.json") as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    for record in (summary, report):
        assert record["slope"] is None and record["intercept"] is None
        assert record["slope_halfwidth"] is None
