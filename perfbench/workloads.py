"""The four benchmark workloads.

Each workload is a closed loop with one caller.  ``setup`` makes the inputs
from the seed and warms the code path up; ``run`` does the workload's fixed
work once and returns its wall time and a digest of its outputs per
operation; ``verify`` checks the first round's outputs against the code in
``reference.py`` and against properties the method must have, and returns
the problems found per operation.  Every later round must reproduce the
first round's digests exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import fscore as fs
from fscore import cli

import reference as ref
from tracing import span, traced

ETA_TOL = 1e-9
THETA_TOL = 1e-9
EXCESS_TOL = 1e-12
SAMPLED_QUERIES = 2000


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


class RateWorkload:
    """One ``run_rate_experiment`` call per round."""

    ops = ("rate",)
    known_faults = ()
    family = "smooth"
    estimator = "kernel"
    n_rule = "n"
    n_grid: tuple = ()
    reps = 1
    oracle_atoms = 200_000
    warmup = dict(n_grid=(100, 200), reps=1, oracle_atoms=2000)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def family_params(self) -> dict:
        return {}

    def config(self, **overrides):
        kw = dict(family=self.family, family_params=self.family_params(),
                  estimator={"method": self.estimator}, n_grid=self.n_grid,
                  reps=self.reps, n_rule=self.n_rule,
                  oracle_atoms=self.oracle_atoms, seed=self.seed)
        # The exact solve is requested only while the config still offers a
        # choice; once bisection is gone it is the only route.
        if "threshold_method" in {f.name for f in dataclasses.fields(fs.ExperimentConfig)}:
            kw["threshold_method"] = "exact"
        kw.update(overrides)
        return fs.ExperimentConfig(**kw)

    def setup(self) -> None:
        self.cfg = self.config()
        fs.run_rate_experiment(self.config(**self.warmup))

    def run(self, tracer=None):
        with traced(tracer, "harness.run"):
            start = time.perf_counter()
            result = fs.run_rate_experiment(self.cfg)
            elapsed = time.perf_counter() - start
        if not hasattr(self, "result"):
            self.result = result  # the first round's result is verified
        record = json.dumps(dataclasses.asdict(result), sort_keys=True)
        return elapsed, {"rate": hashlib.sha256(record.encode()).hexdigest()}

    def unlabeled_size(self, n: int) -> int:
        return n * n if self.n_rule == "n2" else n

    def verify(self) -> dict:
        result, cfg = self.result, self.cfg
        problems = []
        if [r["n"] for r in result.rows] != list(cfg.n_grid):
            problems.append(f"rows cover n = {[r['n'] for r in result.rows]}")
        for row in result.rows:
            if row["N"] != self.unlabeled_size(row["n"]):
                problems.append(f"n={row['n']}: N={row['N']}, expected "
                                f"{self.unlabeled_size(row['n'])}")
            if not (math.isfinite(row["mean"]) and row["mean"] >= 0.0):
                problems.append(f"n={row['n']}: mean excess {row['mean']!r}")
        problems += self.workload_checks(result)
        problems += self.reenact(result)
        return {"rate": problems}

    def workload_checks(self, result) -> list:
        return []

    # -- re-enacting the harness's first cell --------------------------------

    def estimator_params(self, family, n: int) -> dict:
        """The rate-matched hyperparameters: h = n^{-1/(2 beta + d)} and
        k = ceil(n^{2 beta/(2 beta + d)})."""
        beta = family.smoothness.beta if family.smoothness else 1.0
        denom = 2.0 * beta + family.d
        if self.estimator == "kernel":
            return {"method": "kernel", "h": float(n) ** (-1.0 / denom)}
        return {"method": "knn",
                "k": min(n, max(1, math.ceil(float(n) ** (2.0 * beta / denom))))}

    def reference_eta(self, params, x, y, queries):
        if params["method"] == "kernel":
            return ref.epanechnikov_direct(x[:, 0], y, queries[:, 0], params["h"])
        return ref.knn_mean(x, y, queries, params["k"])

    @staticmethod
    def draw(family, seed: int, n: int, big_n: int):
        """The harness's sampling order for one replicate: labeled X, labels
        (redrawn once if none is positive), then the unlabeled X."""
        rng = np.random.default_rng(seed)
        x = np.asarray(family.sampler(rng, n), dtype=float).reshape(n, family.d)
        y = (rng.random(n) < family.eta(x)).astype(float)
        if y.sum() == 0:
            y = (rng.random(n) < family.eta(x)).astype(float)
        if y.sum() == 0:
            return None
        xu = np.asarray(family.sampler(rng, big_n), dtype=float).reshape(big_n, family.d)
        return x, y, xu

    def reenact(self, result) -> list:
        """Re-run the replicates of the first grid cell through fscore's
        estimator and threshold functions, tie their mean excess to the
        harness's row, and check replicate 0 against the reference code."""
        cfg = self.cfg
        family = fs.build_family(cfg)
        dist = family.discretize(cfg.oracle_atoms)
        b = cfg.b
        theta_star = ref.threshold_bisect(dist.eta, dist.mass, b)
        n = cfg.n_grid[0]
        params = self.estimator_params(family, n)
        excesses = []
        first = None
        for rep in range(cfg.reps):
            # The harness seeds cell (i, rep) with seed + 1_000_003 i + rep.
            drawn = self.draw(family, cfg.seed + rep, n, self.unlabeled_size(n))
            if drawn is None:
                continue
            x, y, xu = drawn
            est = fs.fit_from_config(fs.LabeledDataset(points=x, labels=y), params)
            scores = np.asarray(est.evaluate(xu))
            theta = fs.empirical_threshold(fs.ScoreSample(values=scores),
                                           fs.FBetaParams(b=b))
            bits = np.asarray(est.evaluate(dist.support)) > theta
            excesses.append(ref.excess_direct(dist.mass, dist.eta, bits,
                                              theta_star, b))
            if first is None:
                first = (x, y, xu, est, theta, excesses[-1])
        problems = []
        if first is None:
            return [f"n={n}: every replicate degenerate"]
        if not _close(np.mean(excesses), result.rows[0]["mean"], EXCESS_TOL):
            problems.append(f"n={n}: harness mean excess {result.rows[0]['mean']!r} "
                            f"!= re-enacted {np.mean(excesses)!r}")
        x, y, xu, est, theta, excess = first
        eta_unl = self.reference_eta(params, x, y, xu)
        theta_ref = ref.threshold_bisect(eta_unl, b=b)
        rng = np.random.default_rng(self.seed)
        idx = rng.choice(xu.shape[0], size=min(SAMPLED_QUERIES, xu.shape[0]),
                         replace=False)
        err = np.max(np.abs(np.asarray(est.evaluate(xu[idx])) - eta_unl[idx]))
        if not err <= ETA_TOL:
            problems.append(f"eta_hat differs from the reference by {err:.3g}")
        if not _close(theta, theta_ref, THETA_TOL):
            problems.append(f"theta_hat {theta!r} != reference {theta_ref!r}")
        eta_atoms = self.reference_eta(params, x, y, dist.support)
        excess_ref = ref.excess_direct(dist.mass, dist.eta, eta_atoms > theta_ref,
                                       theta_star, b)
        if not _close(excess, excess_ref, EXCESS_TOL):
            problems.append(f"excess {excess!r} != reference {excess_ref!r}")
        return problems


class RateN(RateWorkload):
    """Smooth d = 1 family, kernel estimator, N = n."""

    n_grid = (250, 1000, 4000, 16000, 64000)
    reps = 40
    theory_slope = -2.0 / 3.0  # -(1 + alpha) beta / (2 beta + d), alpha = beta = d = 1
    slope_band = 0.25  # criterion 6 of the acceptance tests

    def workload_checks(self, result) -> list:
        problems = []
        if not _close(result.theory_slope, self.theory_slope, 1e-12):
            problems.append(f"theory slope {result.theory_slope!r}")
        if not abs(result.slope - self.theory_slope) <= self.slope_band:
            problems.append(f"excess slope {result.slope!r} outside "
                            f"{self.theory_slope:.4f} +- {self.slope_band}")
        return problems


class RateN2(RateWorkload):
    """Smooth d = 1 family, kernel estimator, N = n^2."""

    n_rule = "n2"
    n_grid = (500, 1000, 2000)
    warmup = dict(n_grid=(50, 100), reps=1, oracle_atoms=2000)


class KnnD2(RateWorkload):
    """Grid-of-bumps family at d = 2, k-NN estimator, N = n."""

    family = "hard"
    estimator = "knn"
    n_grid = (250, 500, 1000, 2000)
    oracle_atoms = 5000

    def family_params(self) -> dict:
        p = fs.hard_family_rate_params(self.n_grid[-1], beta=1.0, d=2, alpha=1.0)
        return {"d": p.d, "beta": p.beta, "q": p.q, "m": p.m, "w": p.w,
                "seed": self.seed}

    def workload_checks(self, result) -> list:
        family = fs.build_family(self.cfg)
        atoms = family.extras["exact_atoms"]
        theta = ref.threshold_bisect(atoms.eta, atoms.mass, self.cfg.b)
        problems = []
        if family.theta_star != 0.25 or not abs(theta - 0.25) <= 1e-11:
            problems.append(f"theta* not pinned at 1/4: declared "
                            f"{family.theta_star!r}, bisection {theta!r}")
        return problems


def _eta_plugin(x):
    return 0.5 + 0.4 * np.sin(2.0 * np.pi * x)


def _write_rows(path: str, header: str, columns) -> None:
    rows = zip(*[[repr(v) for v in np.asarray(c).tolist()] for c in columns])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(",".join(r) for r in rows))
        fh.write("\n")


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class _PluginData:
    """Labeled, unlabeled and query rows of one plugin operation, in memory
    and as CSV files."""

    def __init__(self, workdir, tag, rng, n, big_n, m, offset=0.0):
        self.workdir = workdir
        self.tag = tag
        self.x = rng.random(n) + offset
        self.y = (rng.random(n) < _eta_plugin(self.x - offset)).astype(int)
        self.xu = rng.random(big_n) + offset
        self.xq = rng.random(m) + offset
        self.paths = {k: os.path.join(workdir, f"{tag}-{k}.csv")
                      for k in ("labeled", "unlabeled", "queries")}
        _write_rows(self.paths["labeled"], "x_1,y", [self.x, self.y])
        _write_rows(self.paths["unlabeled"], "x_1", [self.xu])
        _write_rows(self.paths["queries"], "x_1", [self.xq])

    def outputs(self, index):
        prefix = os.path.join(self.workdir, f"{self.tag}-model-{index}")
        return prefix, os.path.join(self.workdir, f"{self.tag}-pred-{index}.csv")


class PluginCsv:
    """``fscore train`` then ``fscore predict`` through ``cli.main``."""

    ops = ("train_predict", "offset_train_predict")
    # The 1-d Epanechnikov prefix sums lose eta_hat to cancellation once the
    # features sit far from 0, so this operation fails its eta_hat check.
    known_faults = ("offset_train_predict",)
    sizes = (5000, 100_000, 100_000)
    offset_sizes = (2000, 2000, 500)
    offset = 1e5
    offset_seed = 19050439  # fixed: the failing inputs do not depend on --seed

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rounds = 0
        self.first = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.main = _PluginData(self.workdir, "main", rng, *self.sizes)
        self.shifted = _PluginData(self.workdir, "offset",
                                   np.random.default_rng(self.offset_seed),
                                   *self.offset_sizes, offset=self.offset)
        warm = _PluginData(self.workdir, "warmup", rng, 200, 1000, 1000)
        self._train_predict(warm, "warmup")

    def _train_predict(self, data, index, tracer=None):
        prefix, pred = data.outputs(index)
        with contextlib.redirect_stdout(io.StringIO()), traced(tracer, "plugin.op"):
            with span(tracer, "cli.train"):
                code_train = cli.main(["train", "--labeled", data.paths["labeled"],
                                       "--unlabeled", data.paths["unlabeled"],
                                       "--out", prefix])
            with span(tracer, "cli.predict"):
                code_predict = cli.main(["predict", "--model", prefix,
                                         "--points", data.paths["queries"],
                                         "--out", pred])
        return (code_train, code_predict), [f"{prefix}.json",
                                            f"{prefix}_data.csv", pred]

    def run(self, tracer=None):
        index = self.rounds
        self.rounds += 1
        start = time.perf_counter()
        codes, files = self._train_predict(self.main, index, tracer)
        elapsed = time.perf_counter() - start
        digests = {"train_predict": self._settle("train_predict", codes, files)}
        codes, files = self._train_predict(self.shifted, index)
        digests["offset_train_predict"] = self._settle("offset_train_predict",
                                                       codes, files)
        return elapsed, digests

    def _settle(self, op, codes, files):
        """Digest one operation's outputs; keep the first round's files for
        ``verify`` and delete the rest."""
        if codes != (0, 0):
            return f"exit codes {codes}"
        digest = _digest(files)
        if op not in self.first:
            self.first[op] = files
        else:
            for path in files:
                os.remove(path)
        return digest

    def verify(self) -> dict:
        return {"train_predict": self._verify(self.main, "train_predict"),
                "offset_train_predict": self._verify(self.shifted,
                                                     "offset_train_predict")}

    def _verify(self, data, op) -> list:
        if op not in self.first:
            return ["the CLI failed"]
        model_json, _, pred_path = self.first[op]
        table = np.loadtxt(pred_path, delimiter=",", skiprows=1, ndmin=2)
        problems = []
        if table.shape != (data.xq.size, 2) or not np.array_equal(table[:, 0], data.xq):
            return [f"predictions table {table.shape} does not match the queries"]
        bits = table[:, 1]
        if not np.all((bits == 0) | (bits == 1)):
            problems.append("predictions are not 0/1")
        with open(model_json) as fh:
            theta = json.load(fh)["theta_hat"]
        h = float(data.x.size) ** (-1.0 / 3.0)  # rate-matched h, beta = d = 1
        theta_ref = ref.threshold_bisect(ref.epanechnikov_direct(data.x, data.y,
                                                                 data.xu, h))
        if not _close(theta, theta_ref, THETA_TOL):
            problems.append(f"theta_hat {theta!r} != reference {theta_ref!r}")
        rng = np.random.default_rng(self.seed)
        idx = rng.choice(data.xq.size, size=min(SAMPLED_QUERIES, data.xq.size),
                         replace=False)
        q = data.xq[idx]
        eta_ref = ref.epanechnikov_direct(data.x, data.y, q, h)
        loaded = fs.PluginClassifier.load(model_json[:-len(".json")])
        err = np.max(np.abs(np.asarray(loaded.eta_hat.evaluate(q[:, None])) - eta_ref))
        if not err <= ETA_TOL:
            problems.append(f"eta_hat differs from the reference by {err:.3g}")
        if not np.array_equal(bits[idx], (eta_ref > theta_ref).astype(float)):
            problems.append("predictions differ from 1{eta_ref > theta_ref}")
        fresh = fs.train_plugin(fs.LabeledDataset(points=data.x[:, None], labels=data.y),
                                fs.UnlabeledDataset(points=data.xu[:, None]),
                                {"method": "kernel"}, fs.FBetaParams(b=1.0))
        if fresh.theta_hat != theta or not np.array_equal(
                np.asarray(fresh.predict(q[:, None]), dtype=float), bits[idx]):
            problems.append("the saved and loaded model predicts other bits "
                            "than the model in memory")
        return problems


WORKLOADS = {"rate_n": RateN, "rate_n2": RateN2, "knn_d2": KnnD2,
             "plugin_csv": PluginCsv}
