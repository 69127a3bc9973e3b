"""Semi-supervised plug-in classification end to end.

Fit eta_hat on n labeled points, calibrate theta_hat on N unlabeled points by
solving the empirical threshold equation, and compare against the family's
known optimum.
"""

import numpy as np

import fscore as fs

family = fs.make_smooth_1d_family()
labeled = fs.sample(family, 2000, seed=0, labeled=True)
unlabeled = fs.sample(family, 4000, seed=1, labeled=False)

clf = fs.train_plugin(labeled, unlabeled, {"method": "kernel"})
print(f"theta_hat = {clf.theta_hat:.4f}   theta* = {family.theta_star:.4f}")
print("provenance:", clf.provenance)

# population excess of the fitted rule, measured on a dense discretization
oracle = family.discretize(200_000)
theta_star = fs.bayes_threshold(oracle)
scores = clf.eta_hat.evaluate(oracle.support)
bits = (np.asarray(scores) > clf.theta_hat).astype(int)
print(f"excess F-score of the plug-in rule: "
      f"{fs.excess_fbeta(oracle, bits):.5f}")
