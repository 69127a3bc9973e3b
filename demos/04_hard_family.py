"""Tour of the adversarial grid-of-bumps family.

eta sits at 1/4 +- sigma_j phi on mirrored grid cells, at a level tau far
away, and the marginal splits its mass between small balls in the active
cells and a remote bulk ball.  tau is chosen so that the optimal threshold
is pinned at exactly 1/4 for every sign vector sigma.
"""

import numpy as np

import fscore as fs

params = fs.HardFamilyParams(d=1, beta=1.0, q=8, m=3, w=0.02)
family = fs.build_hard_family(params, seed=0)
ex = family.extras

print(f"C_phi = {ex['C_phi']}  (one bump constant for every q: min(1 / |u|_beta, 1/8))")
print(f"b' = {ex['b_prime']:.6f}  (cell-average bump height; regime needs <= 1/8)")
print(f"tau = {ex['tau']:.6f}, rho = {ex['rho']}, sigma = {ex['sigma']}")
print(f"bump peak phi_max = {ex['phi_max']:.6f}")

atoms = ex["exact_atoms"]
print(f"theta* on the exact atoms: {fs.bayes_threshold(atoms):.12f}")

deltas = np.array([ex["phi_max"] / 2, ex["phi_max"], 0.05, 0.2])
margin = fs.verify_margin(family, deltas)
print("margin profile P(0 < |eta - 1/4| <= delta):")
for d, p in zip(margin.deltas, margin.probabilities):
    print(f"  delta={d:.4f}  prob={p:.4f}")

print("density scan:", fs.verify_strong_density(family))

# rate-scaled parameters for a given labeled-sample budget
print("rate params at n=5000:", fs.hard_family_rate_params(5000, beta=1.0,
                                                           d=1, alpha=1.0))

# a short k-NN rate curve on the d = 2 family sized for n = 2000; the
# k-nearest-neighbour search runs on a kd-tree
p2 = fs.hard_family_rate_params(2000, beta=1.0, d=2, alpha=1.0)
cfg = fs.ExperimentConfig(family="hard",
                          family_params={"d": p2.d, "beta": p2.beta, "q": p2.q,
                                         "m": p2.m, "w": p2.w, "seed": 0},
                          estimator={"method": "knn"},
                          n_grid=(250, 500, 1000, 2000), reps=5, seed=3,
                          oracle_atoms=5000)
curve = fs.run_rate_experiment(cfg)
print(f"k-NN rate curve, d = 2, q = {p2.q}, m = {p2.m}, w = {p2.w:.4f}:")
for row in curve.rows:
    print(f"  n={row['n']:5d}  valid reps={row['reps_valid']}  "
          f"mean excess={row['mean']:.5f} +- {row['se']:.5f}")
print(f"fitted log-log slope {curve.slope:.3f} +- {curve.slope_halfwidth:.3f}")
