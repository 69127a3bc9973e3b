"""Exact F_b machinery on a small discrete law.

The optimal threshold theta* solves b^2 theta P(Y=1) = E(eta(X) - theta)_+,
the optimal classifier is 1{eta > theta*}, and the achieved score equals
theta* itself.  Everything here is computed in closed form (no sampling).
"""

import numpy as np

import fscore as fs

dist = fs.DiscreteDistribution(
    support=np.array([[0.0], [0.5], [1.0]]),
    mass=np.array([0.3, 0.4, 0.3]),
    eta=np.array([0.9, 0.5, 0.1]),
)
params = fs.FBetaParams(b=1.0)

theta = fs.bayes_threshold(dist, params)
g_star = fs.bayes_classifier(dist, params)
print(f"theta* = {theta:.6f}")
print(f"optimal rule = {g_star}")
print(f"F_1(g*) = {fs.population_fbeta(dist, g_star, params):.6f}  (equals theta*)")

# brute force over all 2^K rules agrees with the thresholded optimum
best, best_bits = fs.brute_force_optimum(dist, params)
print(f"brute-force max = {best:.6f} at {best_bits}")

# excess of a deliberately bad rule, two equivalent routes
bad = np.array([0, 0, 1])
direct = (fs.population_fbeta(dist, g_star, params)
          - fs.population_fbeta(dist, bad, params))
print(f"excess(bad rule): direct = {direct:.6f}, "
      f"weighted-disagreement = {fs.excess_fbeta(dist, bad, params):.6f}")
