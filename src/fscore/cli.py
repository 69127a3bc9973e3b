"""Command-line entry point.

Subcommands: rate, dkw, oracle-suite, train, predict.  ``rate`` runs one
pass of the experiment and writes both of its curves, the excess score and
the threshold error.  The experiment subcommands read an optional JSON config
file and accept flag overrides; failures exit nonzero after printing a
machine-readable JSON error record.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

import numpy as np

from .discrete import FBetaParams
from .estimators import LabeledDataset
from .harness import (ExperimentConfig, emit_report, run_dkw_check,
                      run_experiment, strict_json)
from .oracle import randomized_identity_suite
from .plugin import (PluginClassifier, UnlabeledDataset, predictions_to_csv,
                     train_plugin)


# a flag overrides the config file, which overrides these
_DKW_DEFAULTS = {"n_values": "100,1000,10000", "t_values": "0.01,0.05,0.1",
                 "reps": 2000, "seed": 0}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fscore",
        description="F_b-optimal plug-in classification: experiments and "
                    "model training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="excess-score and threshold-error "
                                    "convergence experiment")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--n-grid", help="comma-separated labeled sample sizes")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--family", help="smooth | constant | two_point | hard")
    p.add_argument("--estimator", help="kernel | knn | local_poly, or a "
                                       "JSON object with hyperparameters")
    p.add_argument("--b", type=float)
    p.add_argument("--n-rule", help='"n", "n2" or a fixed integer')
    p.add_argument("--format", default="csv",
                   choices=["csv", "json", "svg-plot"])
    p.add_argument("--out", default="reports")

    p = sub.add_parser("dkw", help="sup-CDF concentration check")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--n-values")
    p.add_argument("--t-values")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out", default="reports")

    p = sub.add_parser("oracle-suite", help="randomized exact-solver "
                                            "cross-checks")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="oracle_failures",
                   help="directory for failing-instance artifacts")

    p = sub.add_parser("train", help="fit a plug-in classifier from CSV data")
    p.add_argument("--labeled", required=True, help="CSV with x_1..x_d,y")
    p.add_argument("--unlabeled", required=True,
                   help="CSV with x_1..x_d: the points theta_hat is "
                        "calibrated on")
    p.add_argument("--estimator", default="kernel")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--out", required=True, help="model file prefix")

    p = sub.add_parser("predict", help="apply a saved classifier to points")
    p.add_argument("--model", required=True, help="model file prefix")
    p.add_argument("--points", required=True, help="CSV with x_1..x_d")
    p.add_argument("--out", required=True, help="output predictions CSV")
    return parser


def _print_json(record, file=None) -> None:
    """Print ``record`` as strict JSON: a non-finite number prints as null."""
    print(json.dumps(strict_json(record), indent=2, sort_keys=True,
                     allow_nan=False), file=file)


def _load_config(path) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _parse_estimator(raw) -> dict:
    if raw is None:
        return {"method": "kernel"}
    if not isinstance(raw, str):
        return raw  # a config file's value, which ExperimentConfig checks
    raw = raw.strip()
    if raw.startswith("{"):
        return json.loads(raw)
    return {"method": raw}


def _number(raw, name: str):
    """A string parsed as a float; a JSON number as it is, so that a boolean
    or a fraction reaches the callee's integer check unchanged.  A string
    that is no number raises a ValueError that names ``name``."""
    if not isinstance(raw, str):
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name}: {raw!r} is not a number") from None


def _number_list(raw, name: str) -> list:
    """A comma-separated string or a JSON list, as a list of numbers."""
    if isinstance(raw, str):
        raw = [tok for tok in raw.split(",") if tok.strip()]
    return [_number(v, name) for v in raw]


def _with_flags(cfg: dict, args, keys) -> dict:
    """``cfg`` updated with each flag in ``keys`` given on the command line."""
    cfg.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    return cfg


def _experiment_config(args) -> ExperimentConfig:
    cfg = _with_flags(_load_config(args.config), args,
                      ("n_grid", "reps", "seed", "family", "estimator", "b"))
    if "n_grid" in cfg:
        # parsed as numbers only: ExperimentConfig rejects a fractional size
        cfg["n_grid"] = _number_list(cfg["n_grid"], "n_grid")
    if "estimator" in cfg:
        cfg["estimator"] = _parse_estimator(cfg["estimator"])
    if args.n_rule is not None:
        # an integer becomes a fixed N; ExperimentConfig checks the rest
        cfg["n_rule"] = int(args.n_rule) if re.fullmatch(r"[+-]?\d+", args.n_rule) \
            else args.n_rule
    return ExperimentConfig(**cfg)


def _run(args) -> int:
    if args.command == "rate":
        excess, threshold = run_experiment(_experiment_config(args))
        paths = [path for result in (excess, threshold)
                 for path in emit_report(result, args.format, args.out)]
        _print_json({"excess": asdict(excess), "threshold": asdict(threshold),
                     "written": paths})
        return 0
    if args.command == "dkw":
        cfg = _with_flags({**_DKW_DEFAULTS, **_load_config(args.config)}, args,
                          _DKW_DEFAULTS)
        # parsed as numbers only: run_dkw_check rejects a fractional N or reps
        rows = run_dkw_check(_number_list(cfg["n_values"], "N_values"),
                             _number_list(cfg["t_values"], "t_values"),
                             _number(cfg["reps"], "reps"),
                             seed=_number(cfg["seed"], "seed"))
        paths = emit_report(rows, args.format, args.out)
        _print_json({"rows": rows, "written": paths})
        return 0
    if args.command == "oracle-suite":
        report = randomized_identity_suite(args.trials, seed=args.seed,
                                           out_dir=args.out)
        _print_json({**vars(report), "failures": len(report.failures),
                     "ok": report.ok})
        return 0 if report.ok else 1
    if args.command == "train":
        clf = train_plugin(LabeledDataset.from_csv(args.labeled),
                           UnlabeledDataset.from_csv(args.unlabeled),
                           _parse_estimator(args.estimator), FBetaParams(b=args.b))
        clf.save(args.out)
        _print_json({"theta_hat": clf.theta_hat,
                     "provenance": clf.provenance, "model": args.out})
        return 0
    if args.command == "predict":
        clf = PluginClassifier.load(args.model)
        points = UnlabeledDataset.from_csv(args.points)
        bits = clf.predict(points.points)
        predictions_to_csv(args.out, points.points, np.asarray(bits))
        _print_json({"n": points.n,
                     "positives": int(np.asarray(bits).sum()),
                     "out": args.out})
        return 0
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # noqa: BLE001 - the CLI contract is a JSON
        record = {"error": type(exc).__name__, "message": str(exc),
                  "command": args.command}  # record on any failure
        _print_json(record, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
