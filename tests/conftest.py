"""Shared fixtures and independent brute-force oracles for the test suite.

The brute-force helpers here enumerate coalitions with itertools and apply
the defining factorial-weighted sums directly; they share no code with the
library's oracle or probe paths, so any agreement is evidence, not tautology.
"""

import sys
from itertools import chain, combinations
from math import factorial
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
try:
    import tnshap  # noqa: F401
except ImportError:  # running from a checkout without installation
    sys.path.insert(0, str(_SRC))
    import tnshap  # noqa: F401

from tnshap import LiftSpec, TensorNetworkModel, TnTopology, off_state, signed_toggle
from tnshap.attribute import CSV_HEADER
from tnshap.tensor_net import (
    BLOCK_ENTRIES,
    _node_core,
    _open_leg1,
    _open_leg2,
    tree_up_messages,
)


def powerset(items):
    s = list(items)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def coalition_value_fn(model, lifts, x):
    """The interventional game of (model, x): on-features keep their lifted
    vector, the rest sit at the all-off state. Evaluates one forward per call.
    """
    lifted = lifts.lift_instance(x)

    def value(coalition):
        legs = [
            lifted[i] if (i + 1) in coalition else off_state(lifted[i].shape[0])
            for i in range(model.n)
        ]
        return model.forward(legs)

    return value


def brute_shapley(n, value):
    """Defining Shapley sum over the full powerset (independent oracle)."""
    phi = []
    for i in range(1, n + 1):
        rest = [j for j in range(1, n + 1) if j != i]
        total = 0.0
        for c in powerset(rest):
            s = len(c)
            w = factorial(s) * factorial(n - s - 1) / factorial(n)
            total += w * (value(set(c) | {i}) - value(set(c)))
        phi.append(total)
    return np.array(phi)


def brute_sii(n, k, value):
    """Defining order-k interaction sum over the full powerset."""
    out = []
    for subset in combinations(range(1, n + 1), k):
        rest = [j for j in range(1, n + 1) if j not in subset]
        total = 0.0
        for c in powerset(rest):
            s = len(c)
            w = factorial(s) * factorial(n - k - s) / factorial(n - k + 1)
            delta = 0.0
            for part in powerset(subset):
                delta += (-1.0) ** (k - len(part)) * value(set(c) | set(part))
            total += w * delta
        out.append(total)
    return np.array(out)


def write_attribution_rows(fh, rows) -> None:
    """Serialize (instance_id, order, subset, value, flag) rows verbatim: the
    row-at-a-time reference that ``write_attribution_csv`` is tested against."""
    fh.write(CSV_HEADER + "\n")
    for iid, order, subset, value, flag in rows:
        subset_txt = ";".join(str(i) for i in subset)
        fh.write(f"{iid},{order},{subset_txt},{float(value)!r},{flag}\n")


def quadrature_weights_reference(m: int) -> np.ndarray:
    """Fejer's first-rule weights on ``chebyshev_nodes(m)``, mapped to (0, 1),
    by the defining cosine sum

        w_j = (1/m) (1 - 2 sum_{l=1}^{floor(m/2)} cos(2 l theta_j) / (4 l^2 - 1))

    with theta_j = (2j + 1) pi / (2m): the O(m^2) reference that the FFT
    construction of ``quadrature_weights`` is tested against."""
    ell = np.arange(1, m // 2 + 1)
    weights = np.empty(m)
    # rows of the (m, m / 2) cosine table in blocks, so its memory stays O(m)
    step = max(1, BLOCK_ENTRIES // max(1, ell.shape[0]))
    for j0 in range(0, m, step):
        # 2 l theta_j = l (2j + 1) pi / m, reduced modulo 2 pi in integers so
        # the cosine sees an argument below 2 pi
        turns = np.outer(2 * np.arange(j0, min(m, j0 + step)) + 1, ell) % (2 * m)
        terms = np.cos(turns * (np.pi / m)) / (4 * ell**2 - 1)
        weights[j0 : j0 + step] = (1.0 - 2.0 * terms.sum(axis=1)) / m
    return weights


def chebyshev_map_reference(size: int, count: int) -> np.ndarray:
    """The (count, size) map from a polynomial's values at
    ``chebyshev_nodes(size)`` to its values at ``chebyshev_nodes(count)``,
    count >= size, by the defining cosine sums: C3 diag(w) C2 with
    C2[j, l] = cos(j (2l + 1) pi / (2 size)), the values' Chebyshev
    coefficients, w = (1, 2, ..., 2) / size, and
    C3[i, j] = cos(j (2i + 1) pi / (2 count)). Each angle is reduced modulo
    2 pi in integers, so the cosine sees an argument below 2 pi; the O(n^3)
    reference that the DCT pair of ``tensor_net._Interpolation`` is tested
    against."""
    j = np.arange(size)
    c2 = np.cos((np.outer(j, 2 * np.arange(size) + 1) % (4 * size)) * (np.pi / (2 * size)))
    c3 = np.cos((np.outer(2 * np.arange(count) + 1, j) % (4 * count)) * (np.pi / (2 * count)))
    w = np.full(size, 2.0 / size)
    w[0] = 1.0 / size
    return (c3 * w) @ c2


def tree_down_messages(topology, cores, msgs) -> list:
    """Root-to-leaf messages: entry ``v`` is the (B, bond) contraction of
    everything outside node ``v``'s subtree, dual to ``tree_up_messages``'
    ``msgs``; entry 1 is the all-ones (B, 1) boundary at the root. The
    reference down pass for the environment and ALS tests."""
    L = topology.leaf_count
    down = [None] * (2 * L)
    down[1] = np.ones((msgs[1].shape[0], 1))
    for v in range(1, L):
        core = _node_core(cores, v)
        down[2 * v] = _open_leg1(core.transpose(1, 0, 2), msgs[2 * v + 1], down[v])
        down[2 * v + 1] = _open_leg1(core, msgs[2 * v], down[v])
    return down


def tree_order1_reference(model, lifts, xs, nodes, weights) -> np.ndarray:
    """(B, n) node-weighted order-1 probes of the rows ``xs`` on a tree, one
    node at a time: at each node t every leg carries its selector-scaled
    input ``off + t * toggled``, ``tree_up_messages`` and
    ``tree_down_messages`` run over all nodes, and leg j's probe closes its
    leaf's down message against its toggled leaf message. The per-node
    reference for ``tree_probes``' grouped passes at k = 1."""
    topo, cores = model.topology, model.cores
    toggled = [signed_toggle(v) for v in lifts.lift_rows(xs)]
    out = np.zeros((xs.shape[0], model.n))
    for t, w in zip(nodes, weights):
        legs = [off_state(x.shape[1])[None] + t * x for x in toggled]
        down = tree_down_messages(topo, cores, tree_up_messages(topo, cores, legs))
        for j, x in enumerate(toggled):
            leaf = topo.leaf_count + j
            out[:, j] += w * np.einsum("br,br->b", down[leaf], x @ _node_core(cores, leaf))
    return out


def tt_left_states(cores, batch) -> list:
    """Prefix contractions: entry i is the (B, bond_i) state after absorbing
    legs 1..i; entry 0 is the all-ones (B, 1) boundary. The reference prefix
    pass for the environment and ALS tests, dual to ``tt_right_states``."""
    rows = batch[0].shape[0]
    states = [np.ones((rows, 1))]
    for core, x in zip(cores, batch):
        states.append(_open_leg2(core, states[-1], x))
    return states


def product_model():
    """g = x1 * x2 as a bond-1 tensor train over binary lifts."""
    topo = TnTopology("tt", 2, (2, 2), (1,))
    pick = np.array([[1.0], [0.0]]).reshape(1, 2, 1)
    return TensorNetworkModel(topo, [pick, pick.copy()]), LiftSpec.binary(2)


def additive_model(a=2.0, b=3.0):
    """g = a*x1 + b*x2 as a bond-2 tensor train over binary lifts."""
    topo = TnTopology("tt", 2, (2, 2), (2,))
    first = np.zeros((1, 2, 2))
    first[0, 0, 0] = a  # data channel feeds bond channel 0
    first[0, 1, 1] = 1.0  # bias feeds bond channel 1
    second = np.zeros((2, 2, 1))
    second[0, 1, 0] = 1.0  # channel 0 closes with x2's bias
    second[1, 0, 0] = b  # channel 1 picks b * x2
    return TensorNetworkModel(topo, [first, second]), LiftSpec.binary(2)


def random_tt_model(rng, n, bond=3, scale=1.0):
    from tnshap import capped_uniform_bonds

    dims = (2,) * n
    topo = TnTopology("tt", n, dims, capped_uniform_bonds("tt", dims, bond))
    cores = [scale * rng.standard_normal(s) / np.sqrt(s[-1]) for s in topo.core_shapes()]
    return TensorNetworkModel(topo, cores), LiftSpec.binary(n)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
