"""Spans and counters recorded around the calls into each fscore layer.

The tracer lives in the benchmark, not in the program: ``instrument`` swaps
wrappers in for the names through which the harness and the CLI call each
layer, and puts the originals back on exit.  Each span records a name, a
start, an end and its parent span; spans stay in memory until ``write``.

The rate harness has no public per-replicate hook, so the wrappers also
cover three private names of ``fscore.harness``: ``_replicate``,
``_Oracle.__init__`` and ``_Oracle.excess``.  A name the program no longer
has is skipped, and the metrics that depended on it read 0.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

import numpy as np

# Per-layer metrics: span name -> metric of its summed (inclusive) time.
TIMED_SPANS = {
    "synthetic.family_build": "synthetic.family_build_s",
    "synthetic.sample": "synthetic.sample_s",
    "estimators.fit": "estimators.fit_s",
    "estimators.eval_unlabeled": "estimators.eval_unlabeled_s",
    "estimators.eval_oracle": "estimators.eval_oracle_s",
    "threshold.solve": "threshold.solve_s",
    "core.oracle_solve": "core.oracle_solve_s",
    "core.excess": "core.excess_s",
    "plugin.read_csv": "plugin.read_csv_s",
    "plugin.train": "plugin.train_s",
    "plugin.save": "plugin.save_s",
    "plugin.load": "plugin.load_s",
    "plugin.predict": "plugin.predict_s",
    "plugin.write_csv": "plugin.write_csv_s",
}
COUNTERS = ("synthetic.points", "estimators.queries", "threshold.scores",
            "harness.reps", "plugin.csv_rows_read", "plugin.csv_bytes_written")
ALLOC_PEAKS = ("estimators.eval_alloc_peak_mb", "threshold.alloc_peak_mb")


class Tracer:
    def __init__(self, t0: float):
        self.t0 = t0
        self.spans = []  # [name, start, end, parent index or None, round]
        self.round = 0
        self._stack = []
        self._counts = {}
        self._peaks = {}
        self.oracle_supports = []

    def begin_round(self, index: int) -> None:
        self.round = index
        self.oracle_supports = []
        self._counts[index] = dict.fromkeys(COUNTERS, 0)
        self._peaks[index] = dict.fromkeys(ALLOC_PEAKS, 0.0)

    @contextmanager
    def span(self, name: str, alloc: str | None = None):
        """Record one span; with ``alloc``, also the tracemalloc peak of the
        allocations made inside it, kept as the round's maximum."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self.t0, None, parent,
                           self.round])
        self._stack.append(index)
        measure = alloc is not None and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        try:
            yield
        finally:
            if measure:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                peaks = self._peaks[self.round]
                peaks[alloc] = max(peaks[alloc], peak)
            self._stack.pop()
            self.spans[index][2] = time.perf_counter() - self.t0

    def count(self, name: str, amount: int) -> None:
        self._counts[self.round][name] += int(amount)

    def round_metrics(self, index: int) -> dict:
        """Inclusive time per layer metric, counters and allocation peaks of
        one round."""
        out = dict.fromkeys(TIMED_SPANS.values(), 0.0)
        for name, start, end, _, rnd in self.spans:
            if rnd == index and name in TIMED_SPANS:
                out[TIMED_SPANS[name]] += end - start
        out.update(self._counts[index])
        out.update(self._peaks[index])
        return out

    def self_times(self) -> dict:
        """name -> (calls, total s, self s) over every recorded span; self
        time is span time minus the time covered by its child spans."""
        table = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, total + end - start,
                           own + end - start - child_time[i])
        return table

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        records = [{"id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "round": rnd}
                   for i, (name, start, end, parent, rnd) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"spans": records}, fh)
            fh.write("\n")


class _TracedEstimate:
    """Wraps a fitted estimate so that each ``evaluate`` call is a span:
    ``eval_oracle`` on the oracle atoms, ``eval_unlabeled`` on any other
    points (the unlabeled sample, and the query rows of ``predict``)."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def evaluate(self, x):
        tracer = self._tracer
        oracle = any(x is s for s in tracer.oracle_supports)
        name = "estimators.eval_oracle" if oracle else "estimators.eval_unlabeled"
        with tracer.span(name, alloc="estimators.eval_alloc_peak_mb"):
            out = self._inner.evaluate(x)
        if not oracle:
            tracer.count("estimators.queries", np.atleast_2d(np.asarray(x)).shape[0])
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def traced(tracer: Tracer | None, name: str):
    """With a tracer, instrument the program and record the block as a root
    span ``name``; without one, do nothing."""
    if tracer is None:
        yield
        return
    with instrument(tracer), tracer.span(name):
        yield


def span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


@contextmanager
def instrument(tracer: Tracer):
    """Install the tracing wrappers for the duration of the block."""
    from fscore import cli, estimators, harness, plugin

    undo = []

    def patch(owner, name, make):
        original = owner.__dict__.get(name) if isinstance(owner, type) \
            else getattr(owner, name, None)
        if original is None:
            return
        setattr(owner, name, make(original))
        undo.append((owner, name, original))

    def timed(span_name, counter=None, size=None, alloc=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(span_name, alloc=alloc):
                    out = fn(*args, **kwargs)
                if counter is not None:
                    tracer.count(counter, size(args, kwargs, out))
                return out
            return wrapper
        return make

    def traced_family_build(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("synthetic.family_build"):
                family = fn(*args, **kwargs)
            sampler = family.sampler

            def traced_sampler(rng, n):
                with tracer.span("synthetic.sample"):
                    out = sampler(rng, n)
                tracer.count("synthetic.points", n)
                return out
            return dataclasses.replace(family, sampler=traced_sampler)
        return wrapper

    def traced_fit(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("estimators.fit"):
                est = fn(*args, **kwargs)
            return _TracedEstimate(est, tracer)
        return wrapper

    def traced_oracle_init(fn):
        def wrapper(self, *args, **kwargs):
            with tracer.span("core.oracle_solve"):
                fn(self, *args, **kwargs)
            tracer.oracle_supports.append(self.dist.support)
        return wrapper

    def as_classmethod(make):
        return lambda descriptor: classmethod(make(descriptor.__func__))

    solve = timed("threshold.solve", "threshold.scores",
                  lambda a, k, out: np.size((a[0] if a else k["sample"]).values),
                  alloc="threshold.alloc_peak_mb")
    try:
        patch(harness, "build_family", traced_family_build)
        patch(harness, "fit_from_config", traced_fit)
        patch(harness, "empirical_threshold", solve)
        patch(harness, "_replicate",
              timed("harness.replicate", "harness.reps", lambda a, k, o: 1))
        oracle_cls = getattr(harness, "_Oracle", None)
        if oracle_cls is not None:
            patch(oracle_cls, "__init__", traced_oracle_init)
            patch(oracle_cls, "excess", timed("core.excess"))
        patch(plugin, "fit_from_config", traced_fit)
        patch(plugin, "empirical_threshold", solve)
        patch(cli, "train_plugin", timed("plugin.train"))
        patch(cli, "predictions_to_csv",
              timed("plugin.write_csv", "plugin.csv_bytes_written",
                    lambda a, k, o: os.path.getsize(a[0])))
        read_csv = as_classmethod(timed("plugin.read_csv", "plugin.csv_rows_read",
                                        lambda a, k, out: out.points.shape[0]))
        patch(estimators.LabeledDataset, "from_csv", read_csv)
        patch(plugin.UnlabeledDataset, "from_csv", read_csv)
        patch(plugin.PluginClassifier, "save", timed("plugin.save"))
        patch(plugin.PluginClassifier, "load", as_classmethod(timed("plugin.load")))
        patch(plugin.PluginClassifier, "predict", timed("plugin.predict"))
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
