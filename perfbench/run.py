"""Benchmark for fscore: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload rate_n --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports fscore from ``src/`` there.
The run sets up (imports, inputs, warm-up), sets up twice more in fresh
processes, then repeats the workload's fixed work while the next round still
fits in ``--seconds`` (at least twice), and checks the outputs.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` every
round is run twice, without and with tracing, and it reports the per-layer
metrics of the traced rounds and writes their spans to ``.perfbench_work/``.
The last line of standard output is the result; progress and tables go to
standard error.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS / OpenMP thread, set before numpy loads: the benchmark is one
# caller in a closed loop, and spinning BLAS threads only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUPS = 3  # set-ups per run: this process and two fresh ones


def _import_program():
    """Import fscore from the checkout's ``src``, and nothing else."""
    sys.path.insert(0, SRC)
    try:
        import fscore
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fscore from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(fscore.__file__))) != SRC:
        sys.exit(f"perfbench: fscore was imported from {fscore.__file__}, "
                 f"not from {SRC}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def _setup_in_fresh_process(args) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _rounds(workload, seconds, tracer):
    """Repeat the fixed work while the next round still fits in ``seconds``,
    and at least twice, so that the median is never a single round.
    Returns untraced times, traced times and digests."""
    plain, traced, digests = [], [], []
    start = time.perf_counter()
    while True:
        elapsed, digest = workload.run()
        plain.append(elapsed)
        digests.append(digest)
        if tracer is not None:
            tracer.begin_round(len(traced))
            elapsed, digest = workload.run(tracer)
            traced.append(elapsed)
            digests.append(digest)
        spent = time.perf_counter() - start
        per_round = spent / len(plain)
        if len(plain) >= 2 and spent + per_round > seconds:
            return plain, traced, digests


def _count_ops(workload, digests, problems):
    """Every round attempts each operation once.  An operation fails when
    its outputs differ from the first round's or the first round's outputs
    failed a check.  Returns (attempted, failed, correct)."""
    attempted = failed = 0
    correct = True
    for digest in digests:
        for op in workload.ops:
            attempted += 1
            if digest[op] != digests[0][op] or problems[op]:
                failed += 1
                correct &= op in workload.known_faults
    return attempted, failed, correct


def _report_trace(tracer, path):
    table = tracer.self_times()
    print(f"{'span':32s} {'calls':>7s} {'total s':>10s} {'self s':>10s}",
          file=sys.stderr)
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:32s} {calls:7d} {total:10.4f} {own:10.4f}", file=sys.stderr)
    tracer.write(path)
    print(f"spans written to {path}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setups = [time.perf_counter() - T0]
        if args.setup_only:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        setups += [_setup_in_fresh_process(args) for _ in range(SETUPS - 1)]
        tracer = Tracer(T0) if args.trace else None
        rounds_start = time.perf_counter()
        plain, traced, digests = _rounds(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verify_start = time.perf_counter()
        problems = workload.verify()
        verify_s = time.perf_counter() - verify_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op, found in problems.items():
        for problem in found:
            print(f"{args.workload}/{op}: {problem}", file=sys.stderr)
    attempted, failed, correct = _count_ops(workload, digests, problems)
    if args.trace:
        _report_trace(tracer, os.path.join(
            WORK, f"spans-{args.workload}-seed{args.seed}.json"))
        per_round = [tracer.round_metrics(i) for i in range(len(traced))]
        values = {name: statistics.median(r[name] for r in per_round)
                  for name in per_round[0]}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    else:
        values = {"run_s": statistics.median(plain),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        sys.exit(f"perfbench: measured {sorted(values)}, BENCHMARK.json "
                 f"declares {sorted(units)}")
    print(f"{args.workload}: set-ups {setups} s; {len(plain)} rounds in "
          f"{verify_start - rounds_start:.1f} s, run_s {plain}; checks "
          f"{verify_s:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - no result line on an unexpected fault
        traceback.print_exc()
        sys.exit(1)
