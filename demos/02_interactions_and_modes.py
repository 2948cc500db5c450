#!/usr/bin/env python3
"""Order-k interaction indices and the two probe modes.

Pairwise and three-way interaction indices come from the same probe
quadrature as Shapley values; only the toggled subset and the number of
nodes change. Inclusion-exclusion spends 2^k forwards per node,
while the signed-toggle trick collapses each alternating sum into a single
contraction of [phi, 0] inputs. Both give identical numbers.
"""

import numpy as np

from tnshap import (
    INCLUSION_EXCLUSION,
    SIGNED_TOGGLE,
    enumerate_game,
    exact_sii,
    explain,
    gen_cp_teacher,
)

n = 8
model, lifts = gen_cp_teacher(n, rank=4, seed=3)
x = np.random.default_rng(1).uniform(-1.0, 1.0, n)
table = enumerate_game(model, lifts, x)

for k in (2, 3):
    print(f"=== order k={k} ===")
    before = model.forward_count
    ie = explain(model, lifts, x, k, mode=INCLUSION_EXCLUSION)
    ie_cost = model.forward_count - before

    before = model.forward_count
    st = explain(model, lifts, x, k, mode=SIGNED_TOGGLE)
    st_cost = model.forward_count - before

    truth = exact_sii(table, k)
    gap_modes = np.max(np.abs(ie.values - st.values))
    gap_truth = np.max(np.abs(st.values - truth.values))
    subsets = len(st.subsets)
    print(f"  {subsets} subsets, {n - k + 1} nodes each")
    print(f"  inclusion-exclusion: {ie_cost} forwards "
          f"({2**k} patterns x {n - k + 1} nodes per subset)")
    print(f"  signed toggle:       {st_cost} forwards (1 per node)")
    print(f"  max |IE - ST|        = {gap_modes:.2e}")
    print(f"  max |ST - oracle|    = {gap_truth:.2e}")

    ranked = sorted(st.entries(), key=lambda e: -abs(e[1]))[:3]
    print("  strongest interactions:")
    for subset, value in ranked:
        print(f"    {subset}: {value:+.6f}")
    print()

# An additive model has no interactions at all.
from tnshap import TT, LiftSpec, TensorNetworkModel, TnTopology  # noqa: E402

print("additive sanity: a model with no joint terms")
# a two-core train on binary legs (x_i, 1): bond channel 0 carries 2 x1 into
# x2's constant read, channel 1 carries x1's constant read into 3 x2
additive = TensorNetworkModel(TnTopology(TT, 2, (2, 2), (2,)), [
    np.array([[[2.0, 0.0], [0.0, 1.0]]]),        # (1, 2, 2): [0, leg, bond]
    np.array([[[0.0], [1.0]], [[3.0], [0.0]]]),  # (2, 2, 1): [bond, leg, 0]
])
pairs = explain(additive, LiftSpec.binary(2), [1.0, 1.0], 2)
print(f"  f(x) = 2 x1 + 3 x2, interaction(1,2) = {pairs.values[0]:+.2e}")
