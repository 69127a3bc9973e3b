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
    # one run writes both curves of its one pass
    out = tmp_path / "rep"
    code, stdout, _ = run_cli(capsys, "rate", "--n-grid", "200,400",
                              "--reps", "3", "--seed", "1", "--out", str(out),
                              "--format", "json")
    assert code == 0
    record = json.loads(stdout)
    assert (record["excess"]["kind"], record["threshold"]["kind"]) == (
        "excess", "threshold")
    assert record["written"] == [str(out / "excess_rate.json"),
                                 str(out / "threshold_rate.json")]
    excess, threshold = fs.run_experiment(
        fs.ExperimentConfig(n_grid=(200, 400), reps=3, seed=1))
    for name, result in (("excess", excess), ("threshold", threshold)):
        with open(out / f"{name}_rate.json") as fh:
            assert json.load(fh)["rows"] == result.rows
        assert record[name]["rows"] == result.rows
    assert sorted(p.name for p in out.iterdir()) == ["excess_rate.json",
                                                     "threshold_rate.json"]


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_grid": [100, 200], "reps": 2,
                               "estimator": {"method": "knn"}}))
    code, stdout, _ = run_cli(capsys, "rate", "--config", str(cfg),
                              "--reps", "3", "--out", str(tmp_path / "o"))
    assert code == 0
    record = json.loads(stdout)["excess"]
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
    summary = json.loads(stdout)
    assert summary["ok"] is True and summary["failures"] == 0
    assert not (tmp_path / "f").exists()


def test_oracle_suite_failure_exits_1(tmp_path, capsys, monkeypatch):
    from fscore import oracle
    true_excess = oracle.excess_fbeta
    monkeypatch.setattr(oracle, "excess_fbeta",
                        lambda dist, g, params: true_excess(dist, g, params) + 1e-6)
    code, stdout, stderr = run_cli(capsys, "oracle-suite", "--trials", "2",
                                   "--seed", "0", "--out", str(tmp_path / "f"))
    assert code == 1 and stderr == ""
    summary = json.loads(stdout)
    assert summary["ok"] is False and summary["failures"] == 2
    assert summary["passes_excess_identity"] == 0
    assert sorted(p.name for p in (tmp_path / "f").iterdir()) == [
        "trial_00000.csv", "trial_00000.json", "trial_00001.csv", "trial_00001.json"]


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
    fs.sample(fam, 100, seed=2, labeled=False).to_csv(tmp_path / "unl.csv")
    data = ("--labeled", str(tmp_path / "lab.csv"),
            "--unlabeled", str(tmp_path / "unl.csv"))
    for estimator, field in (('{"method": "knn", "k": 2.7}', "k"),
                             ('{"method": "knn", "k": true}', "k"),
                             ('{"method": "local_poly", "degree": 1.5}', "degree"),
                             ('{"method": "kernel", "h": NaN}', "h"),
                             ('{"method": "kernel", "h": true}', "h"),
                             ('{"method": "kernel", "h": "abc"}', "h"),
                             ('{"method": "kernel", "h": null}', "h"),
                             ('{"method": "kernel", "beta": true}', "beta"),
                             ('{"method": "kernel", "beta": "x"}', "beta"),
                             ('{"method": "local_poly", "beta": Infinity}', "beta")):
        code, _, stderr = run_cli(capsys, "train", *data, "--estimator",
                                  estimator, "--out", str(tmp_path / "model"))
        record = json.loads(stderr)
        assert code == 2 and record["error"] == "ValueError"
        assert record["message"].startswith(("k ", "degree ", "bandwidth h ", "beta "))
        assert f"{field} must" in record["message"]
    code, _, stderr = run_cli(capsys, "train", *data, "--b", "inf",
                              "--out", str(tmp_path / "model"))
    record = json.loads(stderr)
    assert code == 2 and record["error"] == "ValueError"
    assert "b must" in record["message"]
    assert not (tmp_path / "model.json").exists()


def test_train_requires_unlabeled(tmp_path, capsys):
    # theta_hat is calibrated on unlabeled points only, never on the
    # features that eta_hat was fitted on
    fs.sample(fs.make_smooth_1d_family(), 100, seed=1).to_csv(tmp_path / "lab.csv")
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--labeled", str(tmp_path / "lab.csv"),
              "--out", str(tmp_path / "model")])
    assert exit_info.value.code == 2
    assert "--unlabeled" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_rate_rejects_a_key_the_estimator_does_not_take(tmp_path, capsys):
    # the kernel takes no k: it failed inside a replicate worker
    code, stdout, stderr = run_cli(capsys, "rate", "--estimator",
                                   '{"method": "kernel", "k": 5}',
                                   "--out", str(tmp_path / "rep"))
    record = json.loads(stderr)
    assert code == 2 and stdout == "" and record["error"] == "ValueError"
    assert record["message"].startswith("estimator keys must")
    assert not (tmp_path / "rep").exists()


def test_rate_rejects_estimator_beta(tmp_path, capsys):
    # each replicate fits with the family's beta, so an estimator beta ran
    # without effect while the report recorded it
    code, stdout, stderr = run_cli(capsys, "rate", "--estimator",
                                   '{"method": "kernel", "beta": 0.25}',
                                   "--out", str(tmp_path / "rep"))
    record = json.loads(stderr)
    assert code == 2 and stdout == "" and record["error"] == "ValueError"
    assert "beta" in record["message"] and not (tmp_path / "rep").exists()


def test_error_record_on_failure(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "rate", "--family", "bogus",
                              "--n-grid", "100,200", "--reps", "2",
                              "--out", str(tmp_path))
    assert code != 0
    record = json.loads(stderr)
    assert record["error"] == "ValueError"
    assert "bogus" in record["message"]
    # "+-5" failed on int() with a message that did not name n_rule
    for rule in ("0", "-5", "n3", "+-5"):
        code, _, stderr = run_cli(capsys, "rate", "--n-rule", rule,
                                  "--out", str(tmp_path))
        assert code != 0 and "n_rule" in json.loads(stderr)["message"]
    # an unknown estimator failed inside the first replicate, after the
    # family and its oracle were built; now where the config is made
    # (a list in a config file failed on .strip() with an AttributeError)
    # (a list as the method raised a TypeError: unhashable type)
    cfg, method_cfg = tmp_path / "est.json", tmp_path / "method.json"
    cfg.write_text(json.dumps({"estimator": ["knn"]}))
    method_cfg.write_text(json.dumps({"estimator": {"method": ["knn"]}}))
    for args in (("--estimator", "nope"), ("--estimator", '{"method": "nope"}'),
                 ("--config", str(cfg)), ("--config", str(method_cfg))):
        code, stdout, stderr = run_cli(capsys, "rate", *args,
                                       "--out", str(tmp_path / "est"))
        record = json.loads(stderr)
        assert code == 2 and stdout == "" and record["error"] == "ValueError"
        assert "estimator must" in record["message"] and not (tmp_path / "est").exists()
    # b = inf wrote a report of zero excesses with "b": null
    code, stdout, stderr = run_cli(capsys, "rate", "--b", "inf", "--family",
                                   "constant", "--out", str(tmp_path / "inf"))
    record = json.loads(stderr)
    assert code == 2 and stdout == "" and record["error"] == "ValueError"
    assert "b must" in record["message"] and not (tmp_path / "inf").exists()
    # a string b in a config file failed on '>' with a TypeError
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps({"b": "2", "family": "constant"}))
    code, stdout, stderr = run_cli(capsys, "rate", "--config", str(cfg),
                                   "--out", str(tmp_path / "str"))
    record = json.loads(stderr)
    assert code == 2 and stdout == "" and record["error"] == "ValueError"
    assert "b must" in record["message"] and "'2'" in record["message"]


def test_dkw_rejects_empty_lists(tmp_path, capsys):
    # "" failed with an IndexError; "," wrote an empty report and exited 0
    for flag, raw, field in (("--n-values", "", "N_values"), ("--n-values", ",", "N_values"),
                             ("--t-values", ",", "t_values"), ("--t-values", "", "t_values")):
        code, stdout, stderr = run_cli(capsys, "dkw", flag, raw, "--reps", "100",
                                       "--out", str(tmp_path))
        record = json.loads(stderr)
        assert code == 2 and stdout == "" and record["error"] == "ValueError"
        assert field in record["message"]
    assert not list(tmp_path.glob("**/dkw.*"))


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
    summary = json.loads(stdout, parse_constant=_reject_constant)["excess"]
    with open(tmp_path / "excess_rate.json") as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    for record in (summary, report):
        assert record["slope"] is None and record["intercept"] is None
        assert record["slope_halfwidth"] is None


@pytest.mark.parametrize("argv, field", [
    (("dkw", "--t-values", "a", "--n-values", "10", "--reps", "100"), "t_values"),
    (("dkw", "--n-values", "x", "--reps", "100"), "N_values"),
    (("rate", "--n-grid", "a,b", "--reps", "2"), "n_grid"),
])
def test_number_lists_name_their_field(tmp_path, capsys, argv, field):
    # float('a') used to give a record that named no field
    code, stdout, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 2 and stdout == ""
    record = json.loads(stderr)
    assert record["error"] == "ValueError" and field in record["message"]
    assert not (tmp_path / "o").exists()
