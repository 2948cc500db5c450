"""Exhaustive ground truth: coalition enumeration, defining-sum indices,
subset-lattice (Moebius/zeta) transforms, and flat probes.

Coalition masks are integers with bit i set when feature i+1 is on; index 0
is the all-off state. Everything here works from the 2^n table by direct
summation, or from ``forward_batch`` rows contracted from scratch,
independent of the probe engine it validates.
"""

from __future__ import annotations

import itertools
import logging
import struct
from dataclasses import dataclass

import numpy as np

from .attribute import (
    AttributionSet,
    _scaled_inputs,
    chebyshev_nodes,
    shapley_weights,
    sii_weights,
)
from .lift import LiftSpec, off_state

logger = logging.getLogger(__name__)

MAX_TABLE_FEATURES = 20
# masks per forward_batch call of ``enumerate_game``: bounds a tree's messages
FLAT_ROW_BUDGET = 2**13
# max-abs residual of the diagonal probe's Vandermonde solve above which a
# warning is logged (the coefficients are still returned)
DIAGONAL_RESIDUAL_WARN = 1e-6
_DUMP_MAGIC = b"TNSHCTB1"


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


def flat_probes(model, lifts: LiftSpec, x, subsets, nodes) -> np.ndarray:
    """(len(subsets), len(nodes)) probes Q_S(t) of one instance by
    inclusion-exclusion from one ``forward_batch`` call, every row contracted
    from scratch: the reference the probe engine is tested against.

    ``subsets`` are 1-based tuples of one size k. Each sums the 2^k on/off
    configurations of its legs, signed by their off count, with every other
    leg selector-scaled at each of ``nodes``.
    """
    lifted = lifts.lift_instance(x)
    k, m = len(subsets[0]), len(nodes)
    # pattern p of a (subset, node) row block switches on the legs of its set bits
    on = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    signs = (-1.0) ** (k - on.sum(axis=1))
    legs = [np.tile(np.repeat(u, 1 << k, axis=0), (len(subsets), 1))
            for u in _scaled_inputs(lifted, np.asarray(nodes, dtype=np.float64))]
    for s_idx, subset in enumerate(subsets):
        for pos, feat in enumerate(subset):
            v = lifted[feat - 1]
            block = legs[feat - 1][s_idx * (m << k) : (s_idx + 1) * (m << k)]
            block.reshape(m, 1 << k, -1)[:] = np.where(on[:, pos, None] == 1, v, off_state(len(v)))
    return model.forward_batch(legs).reshape(len(subsets), m, 1 << k) @ signs


def _popcounts(n: int) -> np.ndarray:
    masks = np.arange(1 << n)
    pc = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        pc += (masks >> b) & 1
    return pc


def exact_shapley(table: CoalitionTable) -> np.ndarray:
    """Shapley values by the defining size-weighted sum over all coalitions."""
    n = table.n
    v = table.values
    weights = shapley_weights(n)
    pc = _popcounts(n)
    masks = np.arange(1 << n)
    phi = np.empty(n)
    for i in range(n):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        phi[i] = np.sum(weights[pc[without]] * (v[without | bit] - v[without]))
    return phi


def exact_sii(table: CoalitionTable, k: int) -> AttributionSet:
    """Order-k interaction indices by direct summation: the discrete
    derivative over each subset, size-weighted over all complements.
    """
    n = table.n
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} must satisfy 1 <= k <= n={n}")
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


def zeta_reconstruct(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``mobius_coefficients``: v(C) = sum of c_T over T within C."""
    c = np.array(coeffs, dtype=np.float64)
    size = c.shape[0]
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("coefficient array length must be a power of two")
    idx = np.arange(size)
    for b in range(n):
        bit = 1 << b
        has = (idx & bit) != 0
        c[has] += c[idx[has] ^ bit]
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
    degree-n polynomial whose t^s coefficient sums all size-s monomials, so
    n + 1 evaluations and one Vandermonde solve (with one step of iterative
    refinement) recover the sums directly. The identity holds at any real t;
    the nodes are the n + 1 Chebyshev-Gauss nodes on [-1, 1], where the
    monomial Vandermonde matrix is far better conditioned than on (0, 1)
    (about 2e4 against 8e8 at n = 12).
    """
    m = model.n + 1
    nodes = 2.0 * chebyshev_nodes(m) - 1.0
    p_values = model.forward_batch(_scaled_inputs(lifts.lift_instance(x), nodes))
    vander = np.vander(nodes, m, increasing=True)
    coeffs = np.linalg.solve(vander, p_values)
    coeffs += np.linalg.solve(vander, p_values - vander @ coeffs)
    residual = float(np.max(np.abs(p_values - vander @ coeffs)))
    if residual > DIAGONAL_RESIDUAL_WARN:
        logger.warning(
            "diagonal probe solve residual %.3e above threshold; values kept",
            residual,
        )
    return coeffs


def dump_table(path, table: CoalitionTable) -> None:
    """Write magic, n (little-endian uint64), then 2^n little-endian doubles."""
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<Q", table.n))
        fh.write(table.values.astype("<f8").tobytes())


def load_table(path) -> CoalitionTable:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _DUMP_MAGIC:
            raise ValueError(f"bad table magic {magic!r}")
        (n,) = struct.unpack("<Q", fh.read(8))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.shape[0] != 1 << n:
        raise ValueError(f"expected {1 << n} values, found {data.shape[0]}")
    return CoalitionTable(n=int(n), values=data.astype(np.float64))
