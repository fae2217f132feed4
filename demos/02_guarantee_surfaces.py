#!/usr/bin/env python3
"""Explore the a-priori guarantee of the combined greedy planner.

The factor 1 - exp(-min(1, gamma)) with gamma = max(b/k, floor(k/delta)/b)
only depends on the two budgets and the maximum degree. We print its surface
over a budget grid for a heavily ambiguous instance (delta = 41) and for the
same instance with its degree capped at 5, then the budget-ratio curves that
summarize the trade-off independent of any instance.
"""

import math

import numpy as np

from loopselect import alpha_apriori, alpha_tilde

bs = list(range(20, 101, 10))
ks = list(range(20, 101, 10))

for delta in (41, 5):
    grid = [[alpha_apriori(b, k, delta) for k in ks] for b in bs]
    print(f"delta = {delta}: factor ranges over "
          f"[{min(map(min, grid)):.3f}, {max(map(max, grid)):.3f}] on b, k in 20..100")
    header = "  b\\k " + " ".join(f"{k:5d}" for k in ks)
    print(header)
    for b, row in zip(bs, grid):
        print(f"  {b:4d} " + " ".join(f"{a:.3f}" for a in row))
    print()

print("budget-ratio curves (kappa = b/k); flat at 1 - 1/e once kappa >= 1:")
kappas = [0.05, 0.1, 0.2, 0.4, 1 / math.sqrt(5), 0.6, 0.8, 1.0, 1.5]
print("  kappa  " + " ".join(f"d={d:-3d}" for d in (2, 5, 10, 41)))
for kappa in kappas:
    row = " ".join(f"{alpha_tilde(kappa, d):.3f}" for d in (2, 5, 10, 41))
    print(f"  {kappa:5.3f}  {row}")

print("\nthe curve bottoms out at kappa = 1/sqrt(delta):")
for delta in (5, 41):
    kstar = 1 / math.sqrt(delta)
    samples = np.linspace(0.02, 2.0, 400)
    observed = min(alpha_tilde(float(x), delta) for x in samples)
    print(
        f"  delta={delta}: alpha_tilde({kstar:.3f}) = "
        f"{alpha_tilde(kstar, delta):.4f}, grid minimum = {observed:.4f}"
    )
