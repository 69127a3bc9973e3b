"""Monte Carlo experiment orchestration.

Rate experiments train the plug-in classifier on growing labeled samples and
fit the log-log slope of the excess score (or of the threshold error) against
the theoretical exponent; a sup-CDF concentration table and deterministic
report emission (CSV / JSON / SVG) round out the harness.

Seeding: every (n-index, replication) cell owns the stream
``default_rng(seed + 1_000_003 * n_index + rep)``; aggregation happens in
fixed index order, so serial and concurrent runs emit identical tables.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .core import solve_threshold
from .discrete import FBetaParams
from .estimators import LabeledDataset, SmoothnessSpec, default_bandwidth, fit_from_config
from .synthetic import (AnalyticDistribution, HardFamilyParams, build_hard_family,
                        make_constant_family, make_smooth_1d_family,
                        make_two_point_family)
from .threshold import ScoreSample, empirical_threshold

_CELL_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class ExperimentConfig:
    family: str = "smooth"
    family_params: dict = field(default_factory=dict)
    estimator: dict = field(default_factory=lambda: {"method": "kernel"})
    b: float = 1.0
    n_grid: tuple = (500, 1000, 2000, 4000, 8000)
    n_rule: str | int = "n"  # "n", "n2" or a fixed integer N
    reps: int = 50
    seed: int = 0
    oracle_atoms: int = 200_000
    workers: int = 1

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])) or not grid:
            raise ValueError("n_grid must be nonempty and strictly increasing")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        object.__setattr__(self, "n_grid", grid)

    def unlabeled_size(self, n: int) -> int:
        if self.n_rule == "n":
            return n
        if self.n_rule == "n2":
            return n * n
        return int(self.n_rule)


@dataclass
class RateFitResult:
    kind: str  # "excess" or "threshold"
    rows: list  # per-n dicts: n, N, mean, se, median, zero_fraction
    slope: float
    intercept: float
    slope_halfwidth: float
    theory_slope: float | None
    excluded_cells: int
    inf_rate: bool
    config: dict


def build_family(cfg: ExperimentConfig) -> AnalyticDistribution:
    fp = dict(cfg.family_params)
    if cfg.family == "smooth":
        return make_smooth_1d_family(**fp)
    if cfg.family == "constant":
        return make_constant_family(**fp)
    if cfg.family == "two_point":
        return make_two_point_family(**fp)
    if cfg.family == "hard":
        seed = fp.pop("seed", 0)
        return build_hard_family(HardFamilyParams(**fp), seed=seed)
    raise ValueError(f"unknown family {cfg.family!r}")


def resolve_estimator(estimator: dict, n: int, family: AnalyticDistribution) -> dict:
    """Fill rate-matched hyperparameters that were left implicit."""
    cfg = dict(estimator)
    spec = family.smoothness or SmoothnessSpec(beta=1.0)
    scale = default_bandwidth(n, spec, family.d)
    method = cfg.get("method", "kernel")
    cfg["method"] = method
    if method == "kernel":
        cfg.setdefault("kernel", "epanechnikov")
        if "h" not in cfg:
            cfg["h"] = scale.h * cfg.pop("h_scale", 1.0)
        else:
            cfg.pop("h_scale", None)
    elif method == "knn":
        if "k" not in cfg:
            cfg["k"] = min(n, max(1, math.ceil(scale.a_n * cfg.pop("k_scale", 1.0))))
        else:
            cfg.pop("k_scale", None)
    elif method == "local_poly":
        cfg.setdefault("degree", int(math.floor(spec.beta)))
        if "h" not in cfg:
            cfg["h"] = scale.h * cfg.pop("h_scale", 1.0)
        else:
            cfg.pop("h_scale", None)
    return cfg


class _Oracle:
    """Discretized exact oracle reused across replications."""

    def __init__(self, family: AnalyticDistribution, n_atoms: int, b: float):
        self.dist = family.discretize(n_atoms)
        self.b2 = b * b
        self.theta = solve_threshold(self.dist.eta, self.dist.mass, b)
        self.star = self.dist.eta > self.theta
        self.gap = np.abs(self.dist.eta - self.theta)
        self.p_y1 = self.dist.p_y1

    def excess(self, scores: np.ndarray, theta_hat: float) -> float:
        bits = scores > theta_hat
        num = float(self.dist.mass @ (self.gap * (bits != self.star)))
        den = self.b2 * self.p_y1 + float(self.dist.mass @ bits)
        return num / den


def _replicate(family, oracle, cfg, n, rep_seed):
    rng = np.random.default_rng(rep_seed)
    x_lab = np.asarray(family.sampler(rng, n), dtype=float).reshape(n, family.d)
    y_lab = (rng.random(n) < family.eta(x_lab)).astype(float)
    if y_lab.sum() == 0:  # resample labels once; a zero-positive draw is
        y_lab = (rng.random(n) < family.eta(x_lab)).astype(float)  # pathological
    if y_lab.sum() == 0:
        return None
    big_n = cfg.unlabeled_size(n)
    x_unl = np.asarray(family.sampler(rng, big_n), dtype=float).reshape(big_n, family.d)
    if family.d == 1:
        # theta_hat depends only on the multiset of scores, so the order of
        # the unlabeled points is free; sorted queries make the estimator's
        # window searches fast.
        x_unl.sort(axis=0)
    est_cfg = resolve_estimator(cfg.estimator, n, family)
    eta_hat = fit_from_config(LabeledDataset(points=x_lab, labels=y_lab), est_cfg)
    scores_unl = np.asarray(eta_hat.evaluate(x_unl))
    theta_hat = empirical_threshold(ScoreSample(values=scores_unl, n_source=n),
                                    FBetaParams(b=cfg.b))
    scores_oracle = np.asarray(eta_hat.evaluate(oracle.dist.support))
    return {
        "theta_hat": theta_hat,
        "theta_err": abs(theta_hat - family.theta_star),
        "excess": oracle.excess(scores_oracle, theta_hat),
    }


def _run_experiment(cfg: ExperimentConfig, statistic: str) -> RateFitResult:
    family = build_family(cfg)
    oracle = _Oracle(family, cfg.oracle_atoms, cfg.b)
    rows = []
    for n_index, n in enumerate(cfg.n_grid):
        seeds = [cfg.seed + _CELL_SEED_STRIDE * n_index + rep
                 for rep in range(cfg.reps)]
        if cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(
                    lambda s: _replicate(family, oracle, cfg, n, s), seeds))
        else:
            results = [_replicate(family, oracle, cfg, n, s) for s in seeds]
        values = np.array([r[statistic] for r in results if r is not None])
        if values.size == 0:
            raise RuntimeError(f"all replications degenerate at n={n}")
        rows.append({
            "n": n,
            "N": cfg.unlabeled_size(n),
            "mean": float(values.mean()),
            "se": float(values.std(ddof=1) / math.sqrt(values.size))
            if values.size > 1 else 0.0,
            "median": float(np.median(values)),
            "zero_fraction": float(np.mean(values <= 1e-12)),
        })
    alpha = family.margin.alpha if family.margin is not None else None
    beta = family.smoothness.beta if family.smoothness is not None else 1.0
    denom = 2.0 * beta + family.d
    if statistic == "excess":
        theory = None if alpha is None or math.isinf(alpha) \
            else -(1.0 + alpha) * beta / denom
        kind = "excess"
    else:
        theory = -beta / denom
        kind = "threshold"
    included = [r for r in rows if r["mean"] > 0.0]
    excluded = len(rows) - len(included)
    if len(included) < 2:
        return RateFitResult(kind=kind, rows=rows, slope=float("nan"),
                             intercept=float("nan"), slope_halfwidth=float("nan"),
                             theory_slope=theory, excluded_cells=excluded,
                             inf_rate=True, config=_config_record(cfg))
    x = np.log(np.array([r["n"] for r in included], dtype=float))
    y = np.log(np.array([r["mean"] for r in included]))
    slope, intercept = np.polyfit(x, y, 1)
    centered = x - x.mean()
    coeffs = centered / float(centered @ centered)
    rel = np.array([r["se"] / r["mean"] for r in included])
    halfwidth = 2.0 * float(np.sqrt((coeffs ** 2) @ (rel ** 2)))
    return RateFitResult(kind=kind, rows=rows, slope=float(slope),
                         intercept=float(intercept), slope_halfwidth=halfwidth,
                         theory_slope=theory, excluded_cells=excluded,
                         inf_rate=False, config=_config_record(cfg))


def _config_record(cfg: ExperimentConfig) -> dict:
    record = asdict(cfg)
    record["n_grid"] = list(cfg.n_grid)
    return record


def run_rate_experiment(cfg: ExperimentConfig) -> RateFitResult:
    """Excess-score decay across the n grid, with fitted log-log slope."""
    return _run_experiment(cfg, "excess")


def run_threshold_experiment(cfg: ExperimentConfig) -> RateFitResult:
    """|theta_hat - theta*| decay across the n grid."""
    return _run_experiment(cfg, "theta_err")


def run_dkw_check(N_values, t_values, reps: int, seed: int = 0) -> list:
    """Exceedance frequency of the sup-CDF deviation of N uniform draws
    against the bound 2 exp(-2 N t^2), per (N, t) cell."""
    if reps < 100:
        raise ValueError("reps must be at least 100")
    rng = np.random.default_rng(seed)
    rows = []
    sups = {}
    for n in N_values:
        n = int(n)
        devs = np.empty(reps)
        for r in range(reps):
            u = np.sort(rng.random(n))
            i = np.arange(1, n + 1)
            devs[r] = max((i / n - u).max(), (u - (i - 1) / n).max())
        sups[n] = devs
    for n in N_values:
        n = int(n)
        for t in t_values:
            t = float(t)
            freq = float(np.mean(sups[n] >= t))
            bound = 2.0 * math.exp(-2.0 * n * t * t)
            se = math.sqrt(freq * (1.0 - freq) / reps)
            rows.append({"N": n, "t": t, "frequency": freq,
                         "bound": min(bound, 1.0), "se": se})
    return rows


# ---------------------------------------------------------------------------
# Report emission: byte-stable CSV / JSON / SVG.

def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_report(result, fmt: str, out_dir: str, stem: str | None = None) -> list:
    """Write the result in the requested format; returns the written paths.

    ``result`` is a RateFitResult or a DKW table (list of row dicts).
    Identical inputs produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if isinstance(result, RateFitResult):
        stem = stem or f"{result.kind}_rate"
        if fmt == "csv":
            path = os.path.join(out_dir, f"{stem}.csv")
            _write_csv(path, result.rows,
                       ["n", "N", "mean", "se", "median", "zero_fraction"])
            written.append(path)
            fit_path = os.path.join(out_dir, f"{stem}_fit.csv")
            fit_row = {"slope": result.slope, "intercept": result.intercept,
                       "slope_halfwidth": result.slope_halfwidth,
                       "theory_slope": result.theory_slope,
                       "excluded_cells": result.excluded_cells,
                       "inf_rate": result.inf_rate}
            _write_csv(fit_path, [fit_row], list(fit_row))
            written.append(fit_path)
        elif fmt == "json":
            path = os.path.join(out_dir, f"{stem}.json")
            with open(path, "w") as fh:
                json.dump(rate_result_record(result), fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(path)
        elif fmt == "svg-plot":
            path = os.path.join(out_dir, f"{stem}.svg")
            with open(path, "w") as fh:
                fh.write(_rate_svg(result))
            written.append(path)
        else:
            raise ValueError(f"unknown format {fmt!r}")
        return written
    # DKW (or generic) table.
    rows = list(result)
    stem = stem or "dkw"
    if fmt == "csv":
        path = os.path.join(out_dir, f"{stem}.csv")
        _write_csv(path, rows, list(rows[0]))
        written.append(path)
    elif fmt == "json":
        path = os.path.join(out_dir, f"{stem}.json")
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    else:
        raise ValueError(f"unknown format {fmt!r} for table results")
    return written


def rate_result_record(result: RateFitResult) -> dict:
    return {"kind": result.kind, "rows": result.rows, "slope": result.slope,
            "intercept": result.intercept,
            "slope_halfwidth": result.slope_halfwidth,
            "theory_slope": result.theory_slope,
            "excluded_cells": result.excluded_cells,
            "inf_rate": result.inf_rate, "config": result.config}


def _write_csv(path, rows, columns):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def read_rate_table_csv(path) -> list:
    """Inverse of the CSV table emitter (exact float round-trip via repr)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = []
        for raw in reader:
            row = {}
            for c, v in zip(columns, raw):
                if c in ("n", "N"):
                    row[c] = int(v)
                else:
                    row[c] = float(v)
            rows.append(row)
    return rows


def _rate_svg(result: RateFitResult, width: int = 640, height: int = 480) -> str:
    rows = [r for r in result.rows if r["mean"] > 0]
    xs = [math.log(r["n"]) for r in rows]
    ys = [math.log(r["mean"]) for r in rows]
    pad = 50.0
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    y_lo -= 0.1 * y_span
    y_hi += 0.1 * y_span
    y_span = y_hi - y_lo

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
             f'font-size="14">{result.kind} vs n (log-log)</text>']
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="4" '
                     'fill="steelblue"/>')
    lines = []
    if not result.inf_rate and math.isfinite(result.slope):
        lines.append(("fitted", result.slope, result.intercept, "black"))
        if result.theory_slope is not None and xs:
            # Theoretical slope anchored at the centroid of the points.
            cx = sum(xs) / len(xs)
            cy = sum(ys) / len(ys)
            lines.append(("theoretical", result.theory_slope,
                          cy - result.theory_slope * cx, "crimson"))
    for name, slope, intercept, color in lines:
        y1 = slope * x_lo + intercept
        y2 = slope * x_hi + intercept
        parts.append(f'<line x1="{sx(x_lo):.3f}" y1="{sy(y1):.3f}" '
                     f'x2="{sx(x_hi):.3f}" y2="{sy(y2):.3f}" stroke="{color}" '
                     f'stroke-width="1.5" data-role="{name}"/>')
    parts.append(f'<text x="{pad}" y="{height - 15}" font-size="12">'
                 f'slope={result.slope!r} halfwidth={result.slope_halfwidth!r} '
                 f'theory={result.theory_slope!r}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
