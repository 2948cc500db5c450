#!/usr/bin/env python3
"""Runtime scaling of full Shapley attribution with dimension.

Enumeration costs 2^n forwards; the probe route is charged exactly 2n^2.
On a tree the engine evaluates each node with s real leaves below it at
only s + 1 points, in one up pass and one adjoint down pass, so the
wall-clock grows near-linearly in n at fixed rank. This script times the
attribution path across doubling dimensions and fits the log-log slope; at
n of a few dozen a request's fixed cost still weighs, which flattens the
slope there.
"""

import time

import numpy as np

from tnshap import explain, gen_tree_teacher

dims = (16, 32, 64, 128, 256)
rank = 16
repeats = 5

print(f"k=1 attribution, all features, rank-{rank} tree surrogates")
print()
print("   n   forwards   median ms")
medians = []
for n in dims:
    model, lifts = gen_tree_teacher(n, rank, seed=n)
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    explain(model, lifts, x, 1)  # warmup
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        aset = explain(model, lifts, x, 1)
        times.append(time.perf_counter() - t0)
    med = float(np.median(times)) * 1e3
    medians.append(med)
    print(f"  {n:>3}   {aset.forwards_used:>7}   {med:9.3f}")

slope = float(np.polyfit(np.log(dims), np.log(medians), 1)[0])
print()
print(f"log-log slope of runtime vs n: {slope:.2f} (near-linear; the 2n^2")
print("counted probe configurations come from one up and one adjoint down")
print("pass, each node run at s + 1 points for the s leaves below it)")
print()
print("compare: enumeration at n=256 would need 2^256 ~ 1.2e77 forwards")
