"""Exhaustive ground truth: coalition enumeration, defining-sum indices,
the Moebius transform and its size-grouped sums, flat probes and the
diagonal coefficient probe.

Coalition masks are integers with bit i set when feature i+1 is on; index 0
is the all-off state. Everything here works from the 2^n table by direct
summation, or from network rows contracted from scratch, and shares no step
with the probe engine it validates: ``_scaled_inputs``, which scales the data
channels of the lifted legs at each selector value, is built here only (the
engine scales no inputs).
``probe_configurations`` lays out the on/off rows of the flat probes; the
fit's training set takes its structured block from it. The diagonal probe
reads its coefficient sums off one discrete Fourier transform of the diagonal
polynomial at the roots of unity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import attribute, tensor_net
from .attribute import AttributionSet
from .lift import LiftSpec, off_state

MAX_TABLE_FEATURES = 20
# masks per forward_batch call of ``enumerate_game``: bounds a tree's messages
FLAT_ROW_BUDGET = 2**13


@dataclass(frozen=True)
class CoalitionTable:
    """All 2^n coalition values of one instance's interventional game."""

    n: int
    values: np.ndarray
    forwards_used: int = 0

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (1 << self.n,):
            raise ValueError(f"table for n={self.n} needs {1 << self.n} values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def enumerate_game(model, lifts: LiftSpec, x) -> CoalitionTable:
    """Evaluate every coalition: on-features keep their lifted vector, the
    rest get the all-off state. Costs exactly 2^n forwards, issued in
    ``forward_batch`` calls of at most ``FLAT_ROW_BUDGET`` masks.
    """
    n = model.n
    if n > MAX_TABLE_FEATURES:
        raise ValueError(
            f"enumeration over n={n} needs a table of {1 << n} entries; "
            f"limit is n={MAX_TABLE_FEATURES}"
        )
    lifted = lifts.lift_instance(x)
    off = [off_state(v.shape[0]) for v in lifted]
    size = 1 << n
    values = np.empty(size)
    for c0 in range(0, size, FLAT_ROW_BUDGET):
        masks = np.arange(c0, min(size, c0 + FLAT_ROW_BUDGET))
        legs = [np.where(((masks >> r) & 1)[:, None] == 1, lifted[r], off[r]) for r in range(n)]
        values[c0 : c0 + masks.shape[0]] = model.forward_batch(legs)
    return CoalitionTable(n=n, values=values, forwards_used=size)


def _scaled_inputs(lifted, nodes: np.ndarray) -> list:
    """Per-leg (B * m, d) arrays, instance-major: each lifted row with its
    data channels scaled at every node. ``lifted[i]`` is feature i's (d,)
    vector for one instance or its (B, d) rows for B stacked instances."""
    m = nodes.shape[0]
    rows = np.atleast_2d(lifted[0]).shape[0]
    scale = np.tile(nodes, rows)[:, None]
    out = []
    for v in lifted:
        u = np.repeat(np.atleast_2d(v), m, axis=0)
        u[:, :-1] *= scale
        out.append(u)
    return out


def probe_configurations(lifts: LiftSpec, x, subsets, nodes):
    """The on/off configurations of the probes Q_S(t) of one instance and
    their inclusion-exclusion signs: ((rows, d_i) legs, (2^k,) signs).

    ``subsets`` are 1-based tuples of one size k. Rows run over (subset,
    node, pattern); the 2^k patterns go from all-on to all-off over the
    subset's legs, each signed by its off count, with every other leg
    selector-scaled at the row's node. At k = 1 a subset's rows at a node
    are its (on, off) pair.
    """
    lifted = lifts.lift_instance(x)
    k, m = len(subsets[0]), len(nodes)
    # row p of a (subset, node) block switches on the legs set in on[p], all-on first
    on = (np.arange((1 << k) - 1, -1, -1)[:, None] >> np.arange(k)) & 1
    signs = (-1.0) ** (k - on.sum(axis=1))
    legs = [np.tile(np.repeat(u, 1 << k, axis=0), (len(subsets), 1))
            for u in _scaled_inputs(lifted, np.asarray(nodes, dtype=np.float64))]
    for s_idx, subset in enumerate(subsets):
        for pos, feat in enumerate(subset):
            v = lifted[feat - 1]
            block = legs[feat - 1][s_idx * (m << k) : (s_idx + 1) * (m << k)]
            block.reshape(m, 1 << k, -1)[:] = np.where(on[:, pos, None] == 1, v, off_state(len(v)))
    return legs, signs


def flat_probes(model, lifts: LiftSpec, x, subsets, nodes) -> np.ndarray:
    """(len(subsets), len(nodes)) probes Q_S(t) of one instance by
    inclusion-exclusion over ``probe_configurations`` from one
    ``forward_batch`` call, every row contracted from scratch: the reference
    the probe engine is tested against.
    """
    legs, signs = probe_configurations(lifts, x, subsets, nodes)
    return model.forward_batch(legs).reshape(len(subsets), len(nodes), -1) @ signs


def _popcounts(n: int) -> np.ndarray:
    masks = np.arange(1 << n)
    pc = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        pc += (masks >> b) & 1
    return pc


def sii_weights(n: int, k: int) -> np.ndarray:
    """Interaction size weights s!(n-k-s)!/(n-k+1)! for s = 0..n-k; at k = 1
    the Shapley weights s!(n-s-1)!/n!.

    Factorials are exact integers; each weight is one correctly rounded
    division, so any 1 <= k <= n is supported.
    """
    n = tensor_net.as_int(n, "n")
    k = attribute._check_order(k, n)
    fact = math.factorial
    return np.array([fact(s) * fact(n - k - s) / fact(n - k + 1) for s in range(n - k + 1)])


def exact_sii(table: CoalitionTable, k: int) -> AttributionSet:
    """Order-k interaction indices by direct summation: the discrete
    derivative over each subset, size-weighted over all complements. At
    k = 1 these are the Shapley values.
    """
    n = table.n
    k = attribute._check_order(k, n)
    v = table.values
    weights = sii_weights(n, k)
    pc = _popcounts(n)
    masks = np.arange(1 << n)
    subsets = list(itertools.combinations(range(1, n + 1), k))
    values = np.empty(len(subsets))
    for idx, subset in enumerate(subsets):
        s_mask = 0
        for feat in subset:
            s_mask |= 1 << (feat - 1)
        comp = masks[(masks & s_mask) == 0]
        delta = np.zeros(comp.shape[0])
        for bits in range(1 << k):
            l_mask = 0
            for pos, feat in enumerate(subset):
                if (bits >> pos) & 1:
                    l_mask |= 1 << (feat - 1)
            sign = (-1.0) ** (k - bin(bits).count("1"))
            delta += sign * v[comp | l_mask]
        values[idx] = np.sum(weights[pc[comp]] * delta)
    return AttributionSet(
        order=k,
        subsets=tuple(subsets),
        values=values,
        forwards_used=table.forwards_used,
    )


def mobius_coefficients(table: CoalitionTable) -> np.ndarray:
    """Monomial coefficients c_T via the fast signed subset transform
    (n 2^n instead of the 4^n double loop)."""
    n = table.n
    c = np.array(table.values, dtype=np.float64)
    idx = np.arange(1 << n)
    for b in range(n):
        bit = 1 << b
        has = (idx & bit) != 0
        c[has] -= c[idx[has] ^ bit]
    return c


def size_grouped_sums(coeffs: np.ndarray) -> np.ndarray:
    """Aggregate Moebius coefficients by subset size: entry s sums all c_T
    with |T| = s."""
    size = coeffs.shape[0]
    n = size.bit_length() - 1
    pc = _popcounts(n)
    return np.bincount(pc, weights=coeffs, minlength=n + 1)


def diagonal_coefficient_probe(model, lifts: LiftSpec, x) -> np.ndarray:
    """Size-aggregated coefficient sums from the diagonal polynomial p(t).

    Scaling every leg by the same selector value t makes the output a
    degree-n polynomial whose t^s coefficient sums all size-s monomials. The
    identity holds at any complex t, so p is evaluated at the n + 1 roots of
    unity and its coefficients are one discrete Fourier transform of those
    values, with no solve. The complex rows go through the network's own
    contraction, charged as n + 1 forwards to ``model``.
    """
    attribute._check_model_lifts(model, lifts)
    m = model.n + 1
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    lifted = [v.astype(np.complex128) for v in lifts.lift_instance(x)]
    p_values = tensor_net._contract_batch(model.topology, model.cores,
                                          _scaled_inputs(lifted, roots))
    model.counter.add(m)
    return np.fft.fft(p_values).real / m

