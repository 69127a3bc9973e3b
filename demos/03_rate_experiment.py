"""Desk-scale convergence-rate experiment.

Excess score should decay like n^{-(1+alpha) beta / (2 beta + d)} — here
beta = 1, d = 1, alpha = 1, so the log-log slope should sit near -2/3.
Reports are emitted as byte-stable CSV plus a self-contained SVG plot.
"""

from fscore.harness import ExperimentConfig, emit_report, run_experiment

cfg = ExperimentConfig(n_grid=(500, 1000, 2000, 4000), reps=20, seed=0)

# one pass over the replicates gives both curves
excess, threshold = run_experiment(cfg)
print(f"excess slope   = {excess.slope:.3f} +- {excess.slope_halfwidth:.3f} "
      f"(theory {excess.theory_slope:.3f})")
for row in excess.rows:
    print(f"  n={row['n']:5d}  mean={row['mean']:.5f}  se={row['se']:.5f}")

print(f"threshold slope = {threshold.slope:.3f} +- "
      f"{threshold.slope_halfwidth:.3f} (theory {threshold.theory_slope:.3f})")

paths = emit_report(excess, "csv", "reports") + \
    emit_report(excess, "svg-plot", "reports")
print("wrote:", ", ".join(paths))
