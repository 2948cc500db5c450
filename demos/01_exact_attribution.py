#!/usr/bin/env python3
"""Exact Shapley values from a handful of structured probes.

We build a tiny interpretable model, compute Shapley values the expensive
way (all 2^n coalitions) and the cheap way (2n^2 selector probes summed
with one fixed quadrature weight vector), and watch the two agree to machine
precision while the forward-pass counters tell very different stories.
"""

import numpy as np

from tnshap import (
    enumerate_game,
    exact_sii,
    explain,
    gen_tree_teacher,
)

n = 10
model, lifts = gen_tree_teacher(n, bond_dim=6, seed=1)
x = np.random.default_rng(0).uniform(-1.0, 1.0, n)

print(f"model: balanced tree over {n} features, cut rank 6")
print(f"instance: {np.round(x, 3)}")
print()

# The expensive route: every coalition of the interventional game.
before = model.forward_count
table = enumerate_game(model, lifts, x)
phi_enum = exact_sii(table, 1).values
enum_cost = model.forward_count - before
print(f"enumeration: {enum_cost} forwards (2^{n})")

# The cheap route: on/off probes at n Chebyshev nodes per feature.
before = model.forward_count
attribution = explain(model, lifts, x, k=1)
probe_cost = model.forward_count - before
print(f"probes:      {probe_cost} forwards (2n^2 = {2 * n * n})")
print()

print("feature   enumeration      probes           |diff|")
for i in range(n):
    a, b = phi_enum[i], attribution.values[i]
    print(f"  f{i + 1:<4}  {a:+.12f}  {b:+.12f}   {abs(a - b):.2e}")

print()
total = attribution.values.sum()
lifted = lifts.lift_instance(x)
off = [np.array([0.0, 1.0])] * n
full_minus_empty = model.forward(lifted) - model.forward(off)
print(f"efficiency check: sum(phi) = {total:+.12f}")
print(f"                  v(N)-v(0) = {full_minus_empty:+.12f}")
print(f"speedup in forwards: {enum_cost / probe_cost:.1f}x at n={n}, "
      f"and the gap widens exponentially with n")
