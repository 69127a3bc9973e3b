"""Monte Carlo experiment orchestration.

Rate experiments train the plug-in classifier on growing labeled samples.
One pass over the replicates gives both curves: the excess score and the
threshold error, each with the log-log slope fitted against its theoretical
exponent.  A sup-CDF concentration table and deterministic report emission
(CSV / JSON / SVG) round out the harness.

Seeding: every (n-index, replication) cell owns the stream
``default_rng(seed + 1_000_003 * n_index + rep)``, and aggregation happens in
fixed index order.

Workers: ``run_experiment`` deals the cells, largest n first, round-robin
over one worker per CPU this process may use.  The calling process runs the
first share and a child made by ``os.fork`` each other share; the results
come back through pipes and are aggregated in index order, so the curves do
not depend on the number of workers.  Up to that many replicates are held
in memory at once, one per worker.  With one usable CPU, one cell, or no
``os.fork``, there is one worker, the calling process, and nothing is
forked.  A replicate calls no threaded BLAS routine, so the workers do not
compete with BLAS threads for the CPUs.  Python 3.12 and later warn on
``fork`` in a process that holds threads, such as BLAS threads.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .core import lemma1_excess, solve_threshold
from .discrete import FBetaParams
from .estimators import _ESTIMATORS, _integer
from .plugin import TrainingDegenerate, train_plugin
from .synthetic import (AnalyticDistribution, HardFamilyParams, build_hard_family,
                        make_constant_family, make_smooth_1d_family,
                        make_two_point_family, sample)
from .table import write_table

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

    def __post_init__(self):
        grid = tuple(_integer(n, "n_grid sizes") for n in self.n_grid)
        if any(b <= a for a, b in zip(grid, grid[1:])) or not grid:
            raise ValueError("n_grid must be nonempty and strictly increasing")
        _integer(grid[0], "n_grid sizes", 1)
        object.__setattr__(self, "n_grid", grid)
        for name, least in (("reps", 1), ("seed", 0), ("oracle_atoms", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        # b must be positive, with b * b finite; held as a Python number
        object.__setattr__(self, "b", FBetaParams(b=self.b).b)
        rule = self.n_rule
        fixed = isinstance(rule, (int, np.integer)) and not isinstance(rule, bool)
        if rule not in ("n", "n2") and not (fixed and rule >= 1):
            raise ValueError(f"n_rule must be 'n', 'n2' or a positive int, got {rule!r}")
        est = self.estimator
        method = est.get("method", "kernel") if isinstance(est, dict) else None
        if not isinstance(method, str) or method not in _ESTIMATORS:
            raise ValueError("estimator must be a dict whose method is one of "
                             f"{', '.join(_ESTIMATORS)}, got {est!r}")
        if "beta" in est:
            raise ValueError("estimator must not set beta, which each replicate "
                             f"takes from the family, got {est!r}")

    def unlabeled_size(self, n: int) -> int:
        if self.n_rule == "n":
            return n
        if self.n_rule == "n2":
            return n * n
        return int(self.n_rule)


@dataclass
class RateFitResult:
    kind: str  # "excess" or "threshold"
    rows: list  # per-n dicts: n, N, reps_valid, mean, se, median, zero_fraction
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


class _Oracle:
    """Discretized exact oracle reused across replications."""

    def __init__(self, family: AnalyticDistribution, n_atoms: int, b: float):
        self.dist = family.discretize(n_atoms)
        self.b2 = b * b
        self.theta = solve_threshold(self.dist.eta, self.dist.mass, b)
        self.star = self.dist.eta > self.theta
        self.gap = np.abs(self.dist.eta - self.theta)
        self.p_y1 = self.dist.p_y1
        self.p_star = float(self.dist.mass[self.star].sum())

    def excess(self, bits: np.ndarray) -> float:
        return lemma1_excess(self.dist.mass, self.gap, self.star, bits,
                             self.b2, self.p_y1, self.p_star)


@dataclass(frozen=True)
class _UnlabeledDraw:
    """N unlabeled points of ``family``, drawn one block at a time as
    ``train_plugin`` scores them, so that only the scores are held whole.
    Every ``blocks`` pass draws the same points from ``state``, the bit
    generator's state at the first point."""

    family: AnalyticDistribution
    state: dict
    n: int

    @property
    def d(self) -> int:
        return self.family.d

    def blocks(self, size: int):
        bits = getattr(np.random, self.state["bit_generator"])()
        bits.state = self.state
        rng = np.random.Generator(bits)
        for start in range(0, self.n, size):
            m = min(size, self.n - start)
            x = np.asarray(self.family.sampler(rng, m), dtype=float).reshape(m, self.d)
            if self.d == 1:
                # theta_hat depends only on the multiset of scores, so the
                # order is free; the 1-d kernel sweeps sorted queries as they
                # come and argsorts any other block first
                x.sort(axis=0)
            yield x


def _replicate(family, oracle, cfg, n, rep_seed):
    """One ``train_plugin`` fit; None when every drawn label is 0."""
    rng = np.random.default_rng(rep_seed)
    labeled = sample(family, n, rng)
    beta = family.smoothness.beta if family.smoothness is not None else 1.0
    draw = _UnlabeledDraw(family, rng.bit_generator.state, cfg.unlabeled_size(n))
    try:
        clf = train_plugin(labeled, draw, {**cfg.estimator, "beta": beta},
                           FBetaParams(b=cfg.b))
    except TrainingDegenerate:
        return None
    return {
        "theta_hat": clf.theta_hat,
        "theta_err": abs(clf.theta_hat - family.theta_star),
        "excess": oracle.excess(clf.predict(oracle.dist.support)),
    }


def run_experiment(cfg: ExperimentConfig) -> tuple[RateFitResult, RateFitResult]:
    """Excess-score and |theta_hat - theta*| decay across the n grid, both
    from one pass: every replicate's fit gives a value to each curve."""
    family = build_family(cfg)
    oracle = _Oracle(family, cfg.oracle_atoms, cfg.b)
    cells = [(n, cfg.seed + _CELL_SEED_STRIDE * n_index + rep)
             for n_index, n in enumerate(cfg.n_grid) for rep in range(cfg.reps)]
    results = _run_cells(family, oracle, cfg, cells)
    excess_rows, threshold_rows = [], []
    for n_index, n in enumerate(cfg.n_grid):
        cell_results = results[n_index * cfg.reps:(n_index + 1) * cfg.reps]
        valid = [r for r in cell_results if r is not None]
        if not valid:
            raise RuntimeError(f"all replications degenerate at n={n}")
        for statistic, rows in (("excess", excess_rows), ("theta_err", threshold_rows)):
            values = np.array([r[statistic] for r in valid])
            rows.append({
                "n": n,
                "N": cfg.unlabeled_size(n),
                "reps_valid": int(values.size),
                "mean": float(values.mean()),
                "se": float(values.std(ddof=1) / math.sqrt(values.size))
                if values.size > 1 else 0.0,
                "median": float(np.median(values)),
                "zero_fraction": float(np.mean(values <= 1e-12)),
            })
    alpha = family.margin.alpha if family.margin is not None else None
    beta = family.smoothness.beta if family.smoothness is not None else 1.0
    denom = 2.0 * beta + family.d
    excess_theory = None if alpha is None or math.isinf(alpha) \
        else -(1.0 + alpha) * beta / denom
    return (_fit("excess", excess_rows, excess_theory, cfg),
            _fit("threshold", threshold_rows, -beta / denom, cfg))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cells(family, oracle, cfg, cells: list) -> list:
    """``_replicate`` of every (n, seed) cell, in the order of ``cells``.

    The cells are dealt, largest n first, round-robin over W workers, one
    per usable CPU and at most one per cell, or one without ``os.fork``.
    This process runs the first share and a forked child each other share
    (``_fork_share``).  On any error, that of this process's share first
    and then those of the children in worker order, the children are
    killed and reaped before it propagates; no child outlives the call.

    Every warning a cell raises, in any worker, is recorded there and
    raised again here once all cells are done, in the order of ``cells``,
    so the caller's warning filters see the same warnings for every W."""
    workers = min(_usable_cpus(), len(cells)) if hasattr(os, "fork") else 1

    def run(share):
        out = []
        for i in share:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = _replicate(family, oracle, cfg, *cells[i])
            out.append((result, [(w.category, str(w.message), w.filename, w.lineno,
                                  _module_of(w.filename)) for w in caught]))
        return out

    order = sorted(range(len(cells)), key=lambda i: -cells[i][0])
    shares = [order[w::workers] for w in range(workers)]
    results = [None] * len(cells)  # (result, warning records) per cell
    pids, reads = [], []  # until reaped, and until closed
    try:
        for share in shares[1:]:
            pid, read = _fork_share(run, share)
            pids.append(pid)
            reads.append(read)
        for i, result in zip(shares[0], run(shares[0])):
            results[i] = result
        for share, pid, read in zip(shares[1:], list(pids), list(reads)):
            reads.remove(read)
            with os.fdopen(read, "rb") as fh:
                payload = fh.read()
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if not payload:
                raise RuntimeError("a replicate worker exited with status "
                                   f"{os.waitstatus_to_exitcode(status)} and "
                                   "no result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            for i, result in zip(share, value):
                results[i] = result
    finally:
        for read in reads:
            os.close(read)
        if pids:
            import signal
            for pid in pids:  # unreaped, so the pid is still this child's
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    # each under the name and in the registry of the module that raised it,
    # as ``warnings.warn`` there would, so module filters match and a
    # "default" filter shows a repeated warning once
    unnamed = {}  # a registry per file of no loaded module
    for _, records in results:
        for category, message, filename, lineno, module in records:
            registry = (vars(sys.modules[module]).setdefault("__warningregistry__", {})
                        if module in sys.modules else unnamed.setdefault(filename, {}))
            warnings.warn_explicit(message, category, filename, lineno,
                                   module=module, registry=registry)
    return [result for result, _ in results]


def _module_of(filename: str) -> str | None:
    """The name of the loaded module whose source is ``filename``, or
    None; ``warnings.warn`` takes it from the raising frame, which a
    record does not keep."""
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name
    return None


def _fork_share(run, share) -> tuple[int, int]:
    """Fork a child that pickles ``(True, run(share))``, or ``(False, the
    exception)``, into a pipe; returns the child's pid and the read end.
    The child leaves by ``os._exit`` whatever happens, so it runs none of
    this process's exit handlers and flushes none of its buffers."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        try:
            payload = pickle.dumps((True, run(share)))
        except BaseException as exc:  # noqa: BLE001 - the parent re-raises it
            payload = _pickled_error(exc)
        with os.fdopen(write, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    """``(False, exc)`` pickled, with the worker's traceback as a note; a
    RuntimeError naming its type and message when ``exc`` does not survive
    the round trip."""
    import traceback
    note = "raised in a replicate worker:\n" + "".join(traceback.format_exception(exc))
    try:
        if hasattr(exc, "add_note"):
            exc.add_note(note)
        payload = pickle.dumps((False, exc))
        pickle.loads(payload)
        return payload
    except Exception:  # noqa: BLE001 - any failure to rebuild it
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}\n{note}")))


def _fit(kind: str, rows: list, theory: float | None,
         cfg: ExperimentConfig) -> RateFitResult:
    """The log-log fit of the rows' means against n, over the rows whose
    mean is positive."""
    included = [r for r in rows if r["mean"] > 0.0]
    slope = intercept = halfwidth = float("nan")
    if len(included) >= 2:
        x = np.log(np.array([r["n"] for r in included], dtype=float))
        y = np.log(np.array([r["mean"] for r in included]))
        slope, intercept = (float(c) for c in np.polyfit(x, y, 1))
        centered = x - x.mean()
        coeffs = centered / float(centered @ centered)
        rel = np.array([r["se"] / r["mean"] for r in included])
        halfwidth = 2.0 * float(np.sqrt((coeffs ** 2) @ (rel ** 2)))
    return RateFitResult(kind=kind, rows=rows, slope=slope, intercept=intercept,
                         slope_halfwidth=halfwidth, theory_slope=theory,
                         excluded_cells=len(rows) - len(included),
                         inf_rate=len(included) < 2,
                         config={**asdict(cfg), "n_grid": list(cfg.n_grid)})


def run_rate_experiment(cfg: ExperimentConfig) -> RateFitResult:
    """The excess-score half of ``run_experiment``."""
    return run_experiment(cfg)[0]


def run_dkw_check(N_values, t_values, reps: int, seed: int = 0) -> list:
    """Exceedance frequency of the sup-CDF deviation of N uniform draws
    against the bound 2 exp(-2 N t^2), per (N, t) cell."""
    N_values = [_integer(n, "N_values", 1) for n in N_values]
    reps, seed = _integer(reps, "reps", 100), _integer(seed, "seed", 0)
    t_values = [float(t) for t in t_values]
    if not N_values:
        raise ValueError("N_values must name at least one sample size")
    if not t_values or not all(math.isfinite(t) and t > 0 for t in t_values):
        raise ValueError(f"t_values must be nonempty, finite and positive, got {t_values}")
    rng = np.random.default_rng(seed)
    rows = []
    for n in N_values:
        devs = np.empty(reps)
        i = np.arange(1, n + 1)
        for r in range(reps):
            u = np.sort(rng.random(n))
            devs[r] = max((i / n - u).max(), (u - (i - 1) / n).max())
        for t in t_values:
            freq = float(np.mean(devs >= t))
            bound = 2.0 * math.exp(-2.0 * n * t * t)
            se = math.sqrt(freq * (1.0 - freq) / reps)
            rows.append({"N": n, "t": t, "frequency": freq,
                         "bound": min(bound, 1.0), "se": se})
    return rows


# ---------------------------------------------------------------------------
# Report emission: byte-stable CSV / JSON / SVG.

_RATE_COLUMNS = ("n", "N", "reps_valid", "mean", "se", "median", "zero_fraction")
_FIT_COLUMNS = ("slope", "intercept", "slope_halfwidth", "theory_slope",
                "excluded_cells", "inf_rate")


def strict_json(obj):
    """``obj`` with every non-finite float replaced by None, so that json
    writes null where it would write a bare NaN, which is not JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict_json(v) for v in obj]
    return obj


def emit_report(result, fmt: str, out_dir: str) -> list:
    """Write the result in the requested format; returns the written paths.

    ``result`` is a RateFitResult, written as ``<kind>_rate`` (csv: the per-n
    table and the fit row; json; svg-plot), or a DKW table, a list of row
    dicts, written as ``dkw`` (csv; json).  JSON holds null for a non-finite
    number.  Identical inputs produce byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    rate = isinstance(result, RateFitResult)
    if fmt not in (("csv", "json", "svg-plot") if rate else ("csv", "json")):
        raise ValueError(f"unknown format {fmt!r}"
                         + ("" if rate else " for table results"))
    rows = result.rows if rate else list(result)
    base = os.path.join(out_dir, f"{result.kind}_rate" if rate else "dkw")
    if fmt == "json":
        with open(f"{base}.json", "w") as fh:
            json.dump(strict_json(asdict(result) if rate else rows), fh,
                      indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return [f"{base}.json"]
    if fmt == "svg-plot":
        with open(f"{base}.svg", "w") as fh:
            fh.write(_rate_svg(result))
        return [f"{base}.svg"]
    _write_csv(f"{base}.csv", rows, _RATE_COLUMNS if rate else list(rows[0]))
    if not rate:
        return [f"{base}.csv"]
    _write_csv(f"{base}_fit.csv", [vars(result)], _FIT_COLUMNS)
    return [f"{base}.csv", f"{base}_fit.csv"]


def _write_csv(path, rows, columns):
    write_table(path, columns, [[row[c] for row in rows] for c in columns])


def _rate_svg(result: RateFitResult) -> str:
    width, height = 640, 480
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
