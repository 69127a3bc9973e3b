"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``) and
asserts the same condition, so the suite fails loudly if any criterion slips.
"""

import json
import time

import numpy as np
import pytest

import fscore as fs
from fscore.cli import main as cli_main
from fscore.harness import (ExperimentConfig, run_dkw_check, run_experiment,
                            run_rate_experiment)


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {name}: {status}{suffix}")


def random_instances(count=1000, seed=2024):
    rng = np.random.default_rng(seed)
    return [fs.random_distribution(rng, k_max=12) for _ in range(count)]


@pytest.fixture(scope="module")
def instances():
    return random_instances()


def test_criterion_1_oracle_exactness():
    start = time.time()
    const = fs.DiscreteDistribution(support=np.array([[0.0]]),
                                    mass=np.array([1.0]), eta=np.array([0.5]))
    theta_const = fs.bayes_threshold(const, fs.FBetaParams(b=1.0))
    grid = fs.uniform_eta_grid(10 ** 6)
    theta_grid = fs.bayes_threshold(grid, fs.FBetaParams(b=1.0))
    expected = (3 - np.sqrt(5)) / 2
    elapsed = time.time() - start
    ok = (abs(theta_const - 1 / 3) <= 1e-10
          and abs(theta_grid - expected) <= 1e-4 and elapsed < 1.0)
    report("1 oracle exactness", ok,
           f"const err {abs(theta_const - 1/3):.2e}, grid err "
           f"{abs(theta_grid - expected):.2e}, {elapsed:.2f}s")
    assert abs(theta_const - 1 / 3) <= 1e-10
    assert abs(theta_grid - expected) <= 1e-4
    assert elapsed < 1.0


def test_criterion_2_exhaustive_optimality(instances):
    start = time.time()
    params = fs.FBetaParams(b=1.0)
    failures = 0
    for dist in instances:
        best, _ = fs.brute_force_optimum(dist, params)
        thresholded = fs.population_fbeta(dist, fs.bayes_classifier(dist, params),
                                          params)
        if abs(best - thresholded) > 1e-12:
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 30.0
    report("2 exhaustive optimality", ok,
           f"{failures} failures / {len(instances)}, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_3_excess_identity(instances):
    params = fs.FBetaParams(b=1.0)
    rng = np.random.default_rng(7)
    failures = 0
    for dist in instances:
        g = rng.integers(0, 2, size=dist.size)
        direct = fs.excess_fbeta(dist, g, params, mode="direct")
        lemma = fs.excess_fbeta(dist, g, params, mode="lemma1")
        if abs(direct - lemma) > 1e-12:
            failures += 1
    ok = failures == 0
    report("3 excess identity", ok, f"{failures} failures / {len(instances)}")
    assert failures == 0


def test_criterion_4_gap_bound(instances):
    params = fs.FBetaParams(b=1.0)
    rng = np.random.default_rng(99)
    failures = 0
    for dist in instances:
        theta_star = fs.bayes_threshold(dist, params)
        n = int(rng.integers(20, 400))
        scores = np.clip(rng.choice(dist.eta, size=n, p=dist.mass)
                         + rng.normal(0.0, 0.05, n), 0.0, 1.0)
        sample = fs.ScoreSample(values=scores)
        theta_hat = fs.empirical_threshold(sample, params)
        order = np.argsort(dist.eta)
        eta_sorted = dist.eta[order]
        cum = np.cumsum(dist.mass[order])

        def cdf(t, eta_sorted=eta_sorted, cum=cum):
            j = np.searchsorted(eta_sorted, t, side="right")
            return 0.0 if j == 0 else float(cum[j - 1])

        bound = fs.cdf_gap_bound(cdf, sample, dist.p_y1, breakpoints=dist.eta)
        if bound < abs(theta_hat - theta_star) - 1e-10:
            failures += 1
    ok = failures == 0
    report("4 CDF-gap bound", ok, f"{failures} failures / {len(instances)}")
    assert failures == 0


def test_criterion_5_hard_construction():
    start = time.time()
    params = fs.HardFamilyParams(d=1, beta=1.0, q=12, m=4, w=0.02)
    worst_theta = 0.0
    worst_balance = 0.0
    margin_ok = True
    for seed in range(8):
        fam = fs.build_hard_family(params, seed=seed)
        disc = fam.discretize(100_000, seed=seed)
        theta = fs.bayes_threshold(disc, fs.FBetaParams(b=1.0))
        worst_theta = max(worst_theta, abs(theta - 0.25))
        atoms = fam.extras["exact_atoms"]
        balance = abs(fs.threshold_equation(0.25, atoms.eta, atoms.mass, 1.0))
        worst_balance = max(worst_balance, balance)
        phi_max = fam.extras["phi_max"]
        mw = params.m * params.w
        deltas = np.array([phi_max / 2, phi_max, 0.02, 0.05, 0.1, 0.3])
        probs = fs.verify_margin(fam, deltas).probabilities
        two_term = 2 * mw * (deltas >= phi_max - 1e-12) + 12.0 * deltas
        margin_ok &= bool(np.all(probs <= two_term + 1e-9))
    elapsed = time.time() - start
    ok = worst_theta <= 2e-3 and worst_balance < 1e-10 and margin_ok and elapsed < 120
    report("5 hard construction", ok,
           f"theta err {worst_theta:.2e}, balance {worst_balance:.2e}, "
           f"margin {margin_ok}, {elapsed:.1f}s")
    assert worst_theta <= 2e-3
    assert worst_balance < 1e-10
    assert margin_ok
    assert elapsed < 120


def test_criterion_6_rate_reproduction():
    start = time.time()
    cfg = ExperimentConfig(n_grid=(500, 1000, 2000, 4000, 8000), reps=50,
                           seed=2024)
    excess, threshold = run_experiment(cfg)
    elapsed = time.time() - start
    ok = (abs(excess.slope - (-2 / 3)) <= 0.25
          and abs(threshold.slope - (-1 / 3)) <= 0.2 and elapsed < 900)
    report("6 rate reproduction", ok,
           f"excess {excess.slope:.3f} (target -2/3 +- 0.25), threshold "
           f"{threshold.slope:.3f} (target -1/3 +- 0.2), {elapsed:.0f}s")
    assert abs(excess.slope - (-2 / 3)) <= 0.25
    assert abs(threshold.slope - (-1 / 3)) <= 0.2
    assert elapsed < 900


def test_criterion_7_n_independence():
    # R and the n grid are capped to bound the N = n^2 arm's cost
    base = dict(n_grid=(500, 1000, 2000, 4000), reps=20, seed=11)
    small = run_rate_experiment(ExperimentConfig(n_rule="n", **base))
    large = run_rate_experiment(ExperimentConfig(n_rule="n2", **base))
    diff = abs(small.slope - large.slope)
    combined = small.slope_halfwidth + large.slope_halfwidth
    ok = diff <= combined
    report("7 N-independence", ok,
           f"slopes {small.slope:.3f} vs {large.slope:.3f}, diff {diff:.3f} "
           f"<= {combined:.3f}")
    assert diff <= combined


def test_criterion_8_dkw_table():
    start = time.time()
    rows = run_dkw_check([100, 1000, 10_000], [0.01, 0.05, 0.1], reps=2000,
                         seed=0)
    elapsed = time.time() - start
    violations = [r for r in rows
                  if r["frequency"] > r["bound"] + 3 * r["se"]]
    ok = not violations and elapsed < 60
    report("8 DKW table", ok, f"{len(violations)} violations / {len(rows)} "
                              f"cells, {elapsed:.1f}s")
    assert not violations
    assert elapsed < 60


def test_criterion_9_determinism(tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["rate", "--n-grid", "300,600", "--reps", "3",
                         "--seed", "5", "--format", "json", "--out", str(out)])
        assert code == 0
        code = cli_main(["dkw", "--reps", "200", "--seed", "5",
                         "--format", "csv", "--out", str(out)])
        assert code == 0
        outputs.append(((out / "excess_rate.json").read_bytes(),
                        (out / "dkw.csv").read_bytes()))
    capsys.readouterr()
    ok = outputs[0] == outputs[1]
    report("9 determinism", ok, "byte-identical reports")
    assert ok
    record = json.loads(outputs[0][0])
    assert "slope" in record
