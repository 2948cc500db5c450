"""Probe-quadrature attribution: Shapley values and order-k interactions.

For a target feature set S of size k, the probe Q_S(t) toggles the features
in S (inclusion-exclusion over on/off, or the equivalent single signed-toggle
contraction) while every other leg is scaled by the diagonal selector S(t).
A scaled leg is t * on + (1 - t) * off, so with m = n - k + 1

    Q_S(t) = sum over T outside S of t^|T| (1 - t)^(m - 1 - |T|) Delta_S(T),

a polynomial of degree at most m - 1. The Shapley / interaction size weights
are the Beta integrals int_0^1 t^s (1 - t)^(m - 1 - s) dt, so every index is
exactly int_0^1 Q_S(t) dt (the multilinear-extension identity). On the m
Chebyshev-Gauss nodes that integral is Fejer's first rule: each index is the
dot product of its m probe values with one cached weight vector
(``quadrature_weights``), with no solve and no conditioning limit on m.

Forward accounting is part of the contract: inclusion-exclusion spends
2^k (n - k + 1) evaluations per subset, signed toggle n - k + 1, and the
counter reports one forward per evaluated input configuration whichever
arithmetic computes it. Both value helpers below return node-weighted sums
-- the index itself at the m = n - k + 1 nodes, the raw probe at a single
node, whose weight is 1 -- and never an (m, subsets) probe matrix:

* ``_shared_values``: all subsets (any k, either mode) on a
  ``TensorNetworkModel``, from one shared-environment engine,
  ``tensor_net.toggle_probes``, over B stacked instances. Inclusion-exclusion
  and signed toggle share its arithmetic, since
  ``on - off_state == signed_toggle(on)``; only their counted contracts
  differ. Each subset closes at the lowest node holding all of its toggled
  legs, against that node's environment with the weights folded in: a
  train's suffix sweep closes it at its first toggled leg against the
  weighted prefix, emitting lexicographic order as it goes; a tree's
  up-pass closes it against the weighted down message of the node where
  its toggled legs meet (its leaf at k = 1). That is about C(n, k) m chi^2
  per instance on a train (bond dimension chi) instead of the flat path's
  C(n, k) m n chi^2, with no ``forward_batch`` call.
* ``_flat_values``: explicit subset lists, ``probe_value`` and models that
  are not tensor networks (``CpTeacher``), as flat ``forward_batch`` rows
  contracted from scratch -- all 2^k on/off configurations for
  inclusion-exclusion -- chunked by whole subsets to ``FLAT_ROW_BUDGET``
  rows per call, so peak memory does not grow with C(n, k). This is also
  the reference the engine is tested against.

``explain`` is ``explain_batch`` on one row, which stacks all-subsets
requests into chunks under ``STACK_ROW_BUDGET``; no threads are used.
``forwards_used`` is the count the value helper added to the counter, not a
difference of the shared counter, so concurrent requests on one model do
not leak into each other's counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor_net
from .lift import LiftSpec, off_state, signed_toggle

INCLUSION_EXCLUSION = "inclusion-exclusion"
SIGNED_TOGGLE = "signed-toggle"
MODES = (INCLUSION_EXCLUSION, SIGNED_TOGGLE)

# rows per forward_batch call on the flat probe path; whole subsets per call
FLAT_ROW_BUDGET = 2**13
# open states (instances x nodes x order-(k-1) toggle choices) per sweep of a
# stacked batch: at k = 1 the selector-scaled rows of one environment pass.
# Bounds the batch's memory whatever the number of instances
STACK_ROW_BUDGET = 256


def chebyshev_nodes(m: int) -> np.ndarray:
    """Chebyshev-Gauss nodes mapped to (0, 1).

    t_l = (1 + cos((2l + 1) pi / (2m))) / 2 for l = 0..m-1, returned in the
    formula's natural (descending) order.
    """
    if m < 1:
        raise ValueError("need at least one node")
    ell = np.arange(m)
    return 0.5 * (1.0 + np.cos((2 * ell + 1) * np.pi / (2 * m)))


@functools.lru_cache(maxsize=None)
def quadrature_weights(m: int) -> np.ndarray:
    """Fejer's first-rule weights on ``chebyshev_nodes(m)``, mapped to (0, 1).

    w_j = (1/m) (1 - 2 sum_{l=1}^{floor(m/2)} cos(2 l theta_j) / (4 l^2 - 1))
    with theta_j = (2j + 1) pi / (2m). The weights are positive, sum to 1 and
    integrate every polynomial of degree below m exactly, so ``w @ q`` is
    int_0^1 Q(t) dt for probe values q = Q(chebyshev_nodes(m)). Built once
    per m and shared read-only.
    """
    if m < 1:
        raise ValueError("need at least one node")
    ell = np.arange(1, m // 2 + 1)
    # 2 l theta_j = l (2j + 1) pi / m, reduced modulo 2 pi in integers so the
    # cosine sees an argument below 2 pi
    turns = np.outer(2 * np.arange(m) + 1, ell) % (2 * m)
    terms = np.cos(turns * (np.pi / m)) / (4 * ell**2 - 1)
    weights = (1.0 - 2.0 * terms.sum(axis=1)) / m
    weights.setflags(write=False)
    return weights


def shapley_weights(n: int) -> np.ndarray:
    """Size weights s!(n-s-1)!/n! for s = 0..n-1.

    Factorials are exact integers; each weight is one correctly rounded
    division, so any n >= 1 is supported.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fact = math.factorial
    return np.array([fact(s) * fact(n - s - 1) / fact(n) for s in range(n)])


def sii_weights(n: int, k: int) -> np.ndarray:
    """Interaction size weights s!(n-k-s)!/(n-k+1)! for s = 0..n-k.

    Reduces to ``shapley_weights(n)`` at k = 1.
    """
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} must satisfy 1 <= k <= n={n}")
    fact = math.factorial
    return np.array([fact(s) * fact(n - k - s) / fact(n - k + 1) for s in range(n - k + 1)])


@dataclass(frozen=True)
class AttributionSet:
    """Attribution values of one order for one instance.

    ``subsets`` are sorted 1-based feature tuples in lexicographic order,
    aligned with ``values``.
    """

    order: int
    subsets: tuple
    values: np.ndarray
    forwards_used: int

    def entries(self):
        return list(zip(self.subsets, self.values.tolist()))

    def value(self, subset) -> float:
        target = tuple(sorted(int(i) for i in subset))
        return float(self.values[self.subsets.index(target)])


def _normalize_subsets(n: int, k: int, subsets):
    if isinstance(subsets, str):
        if subsets != "all":
            raise ValueError(f"unknown subset request {subsets!r}")
        return tuple(itertools.combinations(range(1, n + 1), k))
    norm = []
    for s in subsets:
        t = tuple(sorted(int(i) for i in s))
        if not t:
            raise ValueError("empty subset: need at least one feature")
        if len(t) != k or len(set(t)) != k:
            raise ValueError(f"subset {s} is not a {k}-element set")
        if t[0] < 1 or t[-1] > n:
            raise ValueError(f"subset {s} has feature indices outside 1..{n}")
        norm.append(t)
    if not norm:
        raise ValueError("need at least one subset")
    return tuple(sorted(set(norm)))


def _resolve_mode(k: int, mode) -> str:
    if mode is None or mode == "auto":
        return INCLUSION_EXCLUSION if k == 1 else SIGNED_TOGGLE
    if mode not in MODES:
        raise ValueError(f"unknown probe mode {mode!r}")
    return mode


def _check_model_lifts(model, lifts: LiftSpec) -> None:
    if lifts.n != model.n:
        raise ValueError(f"lift spec covers {lifts.n} features, model has {model.n}")
    for i, (dl, dm) in enumerate(zip(lifts.dims, model.phys_dims)):
        if dl != dm:
            raise ValueError(
                f"mode {i + 1}: lift produces dim {dl}, model expects {dm}"
            )


def probe_value(model, lifts: LiftSpec, x, subset, t: float, mode=INCLUSION_EXCLUSION) -> float:
    """Evaluate the probe Q_S(t; x) for one subset at one selector value."""
    _check_model_lifts(model, lifts)
    s = _normalize_subsets(model.n, len(tuple(subset)), [subset])[0]
    mode = _resolve_mode(len(s), mode)
    values, _ = _flat_values(model, lifts.lift_instance(x), [s], np.array([float(t)]), mode)
    return float(values[0])


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


def _shared_values(model, lifted, nodes, k: int, mode):
    """Every k-subset's probes, weighted by ``quadrature_weights(len(nodes))``,
    for B stacked instances from one ``tensor_net.toggle_probes`` sweep.

    ``lifted[i]`` holds feature i's (B, d_i) lifted rows. Both modes take the
    signed-toggle arithmetic and differ only in the counted contract. Returns
    ((B, C(n, k)) values in lexicographic subset order, the forwards added to
    the counter: one per evaluated configuration).
    """
    scaled = _scaled_inputs(lifted, nodes)
    toggled = [signed_toggle(v) for v in lifted]
    weights = quadrature_weights(nodes.shape[0])
    values = tensor_net.toggle_probes(model.topology, model.cores, scaled, toggled, nodes,
                                      weights, k)
    patterns = 1 << k if mode == INCLUSION_EXCLUSION else 1
    forwards = lifted[0].shape[0] * nodes.shape[0] * math.comb(model.n, k) * patterns
    model.counter.add(forwards)
    return values, forwards


def _flat_values(model, lifted, subsets, nodes, mode):
    """One instance's subset probes, weighted like ``_shared_values``, via
    flat batched forwards, chunked by whole subsets to at most
    ``FLAT_ROW_BUDGET`` rows per call (one subset per call when a single
    subset needs more).

    Returns ((num_subsets,) values, the forwards added to the counter).
    """
    k = len(subsets[0])
    m = nodes.shape[0]
    patterns = 1 << k if mode == INCLUSION_EXCLUSION else 1
    # pattern p switches on the legs of its set bits; its sign counts the off legs
    signs = np.array([(-1.0) ** bin(patterns - 1 - p).count("1") for p in range(patterns)])
    weights = quadrature_weights(m)
    rows = m * patterns
    repeated = [np.repeat(u, patterns, axis=0) for u in _scaled_inputs(lifted, nodes)]
    step = max(1, FLAT_ROW_BUDGET // rows)
    blocks = []
    for c0 in range(0, len(subsets), step):
        chunk = subsets[c0 : c0 + step]
        legs = [np.tile(u, (len(chunk), 1)) for u in repeated]
        for s_idx, subset in enumerate(chunk):
            base = s_idx * rows
            for pos, feat in enumerate(subset):
                r = feat - 1
                if mode == SIGNED_TOGGLE:
                    legs[r][base : base + rows] = signed_toggle(lifted[r])
                else:
                    on = lifted[r]
                    off = off_state(on.shape[0])
                    for p in range(patterns):
                        vec = on if (p >> pos) & 1 else off
                        legs[r][base + p : base + rows : patterns] = vec
        values = model.forward_batch(legs).reshape(len(chunk), m, patterns)
        blocks.append((values @ signs) @ weights)
    return np.concatenate(blocks), rows * len(subsets)


def _request(model, lifts: LiftSpec, k: int, subsets, mode):
    """Validate an order-k request shared by every instance of a batch.

    Returns (normalized subsets, resolved mode, the m = n - k + 1 Chebyshev
    nodes, whether the shared-environment engine applies).
    """
    _check_model_lifts(model, lifts)
    n = model.n
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} must satisfy 1 <= k <= n={n}")
    subset_list = _normalize_subsets(n, k, subsets)
    mode = _resolve_mode(k, mode)
    shared = isinstance(subsets, str) and isinstance(model, tensor_net.TensorNetworkModel)
    return subset_list, mode, chebyshev_nodes(n - k + 1), shared


def explain(model, lifts: LiftSpec, x, k: int, subsets="all", mode=None) -> AttributionSet:
    """Compute order-k attribution values for one instance.

    Parameters
    ----------
    model : TensorNetworkModel (or any object with the same forward protocol)
    lifts : LiftSpec matching the model's physical dimensions
    x : raw instance of length n, all values finite
    k : interaction order (k = 1 gives Shapley values)
    subsets : "all" for every k-subset, or an explicit list of 1-based tuples
    mode : "inclusion-exclusion", "signed-toggle", or None/"auto"
        (inclusion-exclusion for k = 1, signed toggle otherwise)

    Each subset's probe is evaluated at the n - k + 1 Chebyshev-Gauss nodes
    and its index is the Fejer-weighted sum of those values. This is
    ``explain_batch`` on one row; the exception it leaves in the row's slot
    is raised.
    """
    result = explain_batch(model, lifts, [x], k, mode=mode, subsets=subsets)[0]
    if isinstance(result, Exception):
        raise result
    return result


def explain_batch(model, lifts: LiftSpec, instances, k: int, mode=None, subsets="all") -> list:
    """Order-k attribution values of many instances, in order, without
    threads.

    All-subsets requests on a ``TensorNetworkModel`` stack instances, at
    every order and in either mode: each chunk of up to
    ``STACK_ROW_BUDGET // (m * C(n, k - 1))`` instances (m = n - k + 1) is
    lifted one feature column at a time and shares one ``toggle_probes``
    sweep. Explicit subset lists and models that are not tensor networks
    take the flat path one instance after the other.

    Per-instance failures do not abort the batch: the failing instance's slot
    holds the raised exception instead of an AttributionSet. Instances are
    checked before they are stacked, so a bad row fills only its own slot.
    """
    instances = list(instances)
    try:
        subset_list, mode, nodes, shared = _request(model, lifts, k, subsets, mode)
    except (TypeError, ValueError) as exc:
        return [exc] * len(instances)
    results = [None] * len(instances)
    rows = []
    for idx, x in enumerate(instances):
        try:
            if shared:
                rows.append((idx, lifts.check_instance(x)))
            else:
                values, forwards = _flat_values(model, lifts.lift_instance(x), subset_list,
                                                nodes, mode)
                results[idx] = AttributionSet(k, subset_list, values, forwards)
        except Exception as exc:  # noqa: BLE001 - batch isolation is the contract
            results[idx] = exc
    step = max(1, STACK_ROW_BUDGET // (nodes.shape[0] * math.comb(model.n, k - 1)))
    for c0 in range(0, len(rows), step):
        chunk = rows[c0 : c0 + step]
        lifted = lifts.lift_rows(np.stack([x for _, x in chunk]))
        values, forwards = _shared_values(model, lifted, nodes, k, mode)
        for (idx, _), vals in zip(chunk, values):
            results[idx] = AttributionSet(k, subset_list, vals, forwards // len(chunk))
    return results


CSV_HEADER = "instance_id,order,subset,value,flag"


def write_attribution_csv(fh, per_instance) -> None:
    """Write attribution rows: header instance_id,order,subset,value,flag.

    ``per_instance`` is a list over instances of AttributionSet lists. Rows
    are ordered by instance, then order, then (already lexicographic) subset;
    subsets are semicolon-joined 1-based indices. ``flag`` is kept for format
    stability and written empty.
    """
    rows = []
    for iid, sets in enumerate(per_instance):
        for aset in sorted(sets, key=lambda a: a.order):
            for subset, value in aset.entries():
                rows.append((iid, aset.order, subset, value, ""))
    write_attribution_rows(fh, rows)


def write_attribution_rows(fh, rows) -> None:
    """Serialize (instance_id, order, subset, value, flag) rows verbatim."""
    fh.write(CSV_HEADER + "\n")
    for iid, order, subset, value, flag in rows:
        subset_txt = ";".join(str(i) for i in subset)
        fh.write(f"{iid},{order},{subset_txt},{float(value)!r},{flag}\n")


def read_attribution_csv(fh) -> list:
    """Inverse of the writer: (instance_id, order, subset, value, flag) rows."""
    header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ValueError(f"bad attribution CSV header: {header!r}")
    rows = []
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        iid, order, subset_txt, value, flag = parts
        subset = tuple(int(s) for s in subset_txt.split(";"))
        rows.append((int(iid), int(order), subset, float(value), flag))
    return rows
