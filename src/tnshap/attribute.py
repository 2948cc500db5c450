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
arithmetic computes it. Every request -- all subsets, an explicit subset
list, a ``probe_value`` -- goes through one value helper, ``_probe_values``:
one sweep over B stacked instances, with no ``forward_batch`` call. Both
modes share its arithmetic, since ``on - off_state == signed_toggle(on)``:
the helper zeroes the bias channel of the request's own lifted rows in
place, so no leg is copied to toggle it.
It returns node-weighted sums -- the index itself at the m = n - k + 1
nodes, the raw probe at one node of weight 1. The sweep is
``tensor_net.tt_probes`` on a train and ``tensor_net.tree_probes`` on a tree,
at every k, with one argument list, on the (B, d) signed-toggled rows, so no
(B * m)-row selector-scaled input is built: each closes a subset at the
lowest node holding its toggled legs, about C(n, k) m chi^2 per instance on
a train (bond dimension chi) instead of the C(n, k) m n chi^2 of
contracting every probe from scratch; a tree evaluates a node with s real
leaves below it at s + 1 points (``tensor_net``'s tree section gives the
cost). An explicit list toggles only the legs it names, so it costs at most
the all-subsets request over them.
Only a ``TensorNetworkModel`` is explained; any other object is a TypeError.
``oracle.flat_probes`` is the 2^k-configuration reference the engine is
tested against.

``explain`` is ``explain_batch`` on one row, which stacks instances into
chunks of at most ``STACK_ENTRY_BUDGET`` float64 entries of engine state, at
``tensor_net.probe_entries`` per instance (a train's prefix state at every
leg and a tree's messages, plus the widest order-(k-1) stack); no threads
are used. ``forwards_used`` is
the count the value helper added to the counter, not a difference of the
shared counter, so concurrent requests on one model do not leak into each
other's counts.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import tensor_net
from .lift import LiftSpec
from .tensor_net import chebyshev_nodes

INCLUSION_EXCLUSION = "inclusion-exclusion"
SIGNED_TOGGLE = "signed-toggle"
MODES = (INCLUSION_EXCLUSION, SIGNED_TOGGLE)

# float64 entries (4 MB) of live engine state per sweep of a stacked batch: a
# chunk stacks as many instances as fit at ``tensor_net.probe_entries`` each,
# m chi (n + 3 C(N, k-1)) on a train and 2 chi sum_v P_v + 2 m chi C(N, k-1)
# on a tree (at least one), which bounds the batch's memory whatever the
# number of instances. In a sweep of 2^16..2^22 this was the knee: k = 2
# batches ran slower per instance above it, and every peak doubled per step
STACK_ENTRY_BUDGET = 1 << 19


@functools.lru_cache(maxsize=None)
def quadrature_weights(m: int) -> np.ndarray:
    """Fejer's first-rule weights on ``chebyshev_nodes(m)``, mapped to (0, 1).

    w_j = (1/m) (1 - 2 sum_{l=1}^{floor(m/2)} cos(2 l theta_j) / (4 l^2 - 1))
    with theta_j = (2j + 1) pi / (2m), built by one inverse real FFT of the
    Chebyshev moments v_l = 2 e^{i pi l / m} / (1 - 4 l^2), l = 0..floor(m/2),
    extended conjugate-symmetrically to length m: w = Re(ifft(v)) / 2, in
    the nodes' descending order (Waldvogel, "Fast construction of the Fejer
    and Clenshaw-Curtis quadrature rules", BIT 46 (2006) 195-202). The weights
    are positive, sum to 1 and integrate every polynomial of degree below m
    exactly, so ``w @ q`` is int_0^1 Q(t) dt for probe values
    q = Q(chebyshev_nodes(m)). Built once per m and shared read-only.
    """
    if tensor_net.as_int(m, "node count") < 1:
        raise ValueError("need at least one node")
    ell = np.arange(m // 2 + 1)
    moments = 2.0 / (1.0 - 4.0 * ell**2) * np.exp(1j * np.pi / m * ell)
    weights = np.fft.irfft(moments, m) / 2.0
    weights.setflags(write=False)
    return weights


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
        target = _feature_indices(subset)
        if target not in self.subsets:
            raise ValueError(f"subset {target} is not in this order-{self.order} set")
        return float(self.values[self.subsets.index(target)])


def _feature_indices(subset) -> tuple:
    """The subset's feature indices, sorted; one that ``tensor_net.as_int``
    refuses, a bool or 3.5, is a ValueError."""
    try:
        return tuple(sorted(tensor_net.as_int(i, "feature index") for i in subset))
    except ValueError:
        raise ValueError(f"subset {subset} has a feature index that is not an integer") from None


def _check_order(k, n: int) -> int:
    """The order k as an int in 1..n, by ``tensor_net.as_int``'s rule."""
    try:
        k = tensor_net.as_int(k, "order k")
    except ValueError:
        raise ValueError(f"order k={k!r} is not an integer") from None
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} must satisfy 1 <= k <= n={n}")
    return k


def _normalize_subsets(n: int, k: int, subsets):
    if isinstance(subsets, str):
        if subsets != "all":
            raise ValueError(f"unknown subset request {subsets!r}")
        return tuple(itertools.combinations(range(1, n + 1), k))
    norm = []
    for s in subsets:
        if not hasattr(s, "__iter__"):
            raise ValueError(f"subset {s!r} is not a sequence of feature indices")
        t = _feature_indices(s)
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
    if not isinstance(model, tensor_net.TensorNetworkModel):
        raise TypeError(f"cannot explain a {type(model).__name__}: need a TensorNetworkModel")
    if lifts.n != model.n:
        raise ValueError(f"lift spec covers {lifts.n} features, model has {model.n}")
    for i, (dl, dm) in enumerate(zip(lifts.dims, model.phys_dims)):
        if dl != dm:
            raise ValueError(
                f"mode {i + 1}: lift produces dim {dl}, model expects {dm}"
            )


def probe_value(model, lifts: LiftSpec, x, subset, t: float, mode=INCLUSION_EXCLUSION) -> float:
    """Evaluate the probe Q_S(t; x) for one subset at one finite selector
    value: the probe engine at one node of weight 1 over the subset's legs."""
    _check_model_lifts(model, lifts)
    s = _normalize_subsets(model.n, len(tuple(subset)), [subset])[0]
    if not math.isfinite(t):
        raise ValueError(f"selector value t must be finite, got {t}")
    lifted = lifts.lift_rows(lifts.check_instance(x)[None])
    values, forwards = _probe_values(model, lifted, np.array([float(t)]), np.ones(1), len(s),
                                     _resolve_mode(len(s), mode), tuple(i - 1 for i in s))
    model.counter.add(forwards)
    return float(values[0, 0])


def _probe_values(net, lifted, nodes, weights, k: int, mode, legs, columns=None):
    """Probes of the k-subsets of ``legs`` (0-based) at ``nodes``, summed
    with the per-node ``weights``, for B stacked instances from one sweep
    over the network ``net`` on their toggled rows: one call, with the same
    arguments, to ``tensor_net.tt_probes`` on a train or
    ``tensor_net.tree_probes`` on a tree.

    ``lifted[i]`` holds feature i's (B, d_i) lifted rows, which the request
    owns: their bias channel is zeroed in place, which toggles them
    (``lift.signed_toggle`` without the copy). ``columns`` keeps
    the subsets of those lexicographic ranks (None keeps all). Returns
    ((B, kept) values, the forwards the caller charges to the model
    explained: one per evaluated configuration of each kept subset, by
    ``mode``'s contract).
    """
    for v in lifted:
        v[:, -1] = 0.0
    probes = tensor_net.tt_probes if net.topology.kind == tensor_net.TT else tensor_net.tree_probes
    values = probes(net, lifted, nodes, weights, k, legs)
    if columns is not None:
        values = values[:, columns]
    patterns = 1 << k if mode == INCLUSION_EXCLUSION else 1
    return values, lifted[0].shape[0] * nodes.shape[0] * values.shape[1] * patterns


def explain(model, lifts: LiftSpec, x, k: int, subsets="all", mode=None) -> AttributionSet:
    """Compute order-k attribution values for one instance.

    Parameters
    ----------
    model : TensorNetworkModel (any other object is a TypeError)
    lifts : LiftSpec matching the model's physical dimensions
    x : raw instance of length n, all values finite
    k : interaction order (k = 1 gives Shapley values)
    subsets : "all" for every k-subset, or an explicit list of 1-based tuples,
        costing at most the all-subsets request over the features it names
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

    Each chunk of up to ``STACK_ENTRY_BUDGET // e`` instances (at least
    one) is lifted in one call per distinct feature map and shares one
    ``_probe_values`` sweep over the N legs the request toggles (N = n for
    all subsets, else the number of features an explicit list names), which
    costs at most the all-subsets request over them; a list keeps its own
    subsets. ``e = tensor_net.probe_entries`` is one instance's float64
    entries of engine state at bond dimension chi and m = n - k + 1 nodes:
    m chi (n + 3 C(N, k - 1)) on a train, 2 chi sum_v P_v + 2 m chi
    C(N, k - 1) on a tree with P_v points at node v. A model
    that is not a ``TensorNetworkModel`` fills every slot with a TypeError,
    a k that is a bool or not integral with a ValueError.

    Per-instance failures do not abort the batch: the failing instance's slot
    holds the raised exception instead of an AttributionSet. Instances are
    checked before they are stacked, so a bad row fills only its own slot.
    """
    instances = list(instances)
    try:
        _check_model_lifts(model, lifts)
        n = model.n
        k = _check_order(k, n)
        subset_list = _normalize_subsets(n, k, subsets)
        mode = _resolve_mode(k, mode)
    except (TypeError, ValueError) as exc:
        return [exc] * len(instances)
    legs, columns = tuple(range(n)), None
    if not isinstance(subsets, str):
        legs = tuple(sorted({i - 1 for s in subset_list for i in s}))
        after = {leg + 1: len(legs) - 1 - p for p, leg in enumerate(legs)}
        # lexicographic rank among the k-subsets of legs: C(N, k) - 1 minus the
        # C(N - 1 - c_j, k - j) subsets that first exceed it at position j
        columns = [math.comb(len(legs), k) - 1 - sum(math.comb(after[i], k - j)
                                                     for j, i in enumerate(s))
                   for s in subset_list]
    nodes, weights = chebyshev_nodes(n - k + 1), quadrature_weights(n - k + 1)
    results = [None] * len(instances)
    good, xs = _checked_rows(lifts, instances, results)
    if not good:  # no sweep, so no engine state to count
        return results
    step = max(1, STACK_ENTRY_BUDGET // tensor_net.probe_entries(model.topology, nodes, k, legs))
    for c0 in range(0, len(good), step):
        chunk = good[c0 : c0 + step]
        lifted = lifts.lift_rows(xs[c0 : c0 + step])
        values, forwards = _probe_values(model, lifted, nodes, weights, k, mode, legs, columns)
        model.counter.add(forwards)
        for idx, vals in zip(chunk, values):
            results[idx] = AttributionSet(k, subset_list, vals, forwards // len(chunk))
    return results


def _checked_rows(lifts: LiftSpec, instances: list, results: list) -> tuple:
    """The indices of the ``instances`` that pass ``lifts.check_instance``
    and their rows as one (R, n) float64 array. The rows are stacked and
    checked as one block; only a block that fails (a wrong length, a
    non-numeric row or a non-finite value) is checked row by row, with each
    bad row's ValueError left in its slot of ``results``."""
    try:
        xs = np.array(instances, dtype=np.float64)
        if xs.shape == (len(instances), lifts.n) and np.isfinite(xs).all():
            return range(len(instances)), xs
    except (TypeError, ValueError):
        pass
    good, rows = [], []
    for idx, x in enumerate(instances):
        try:
            rows.append(lifts.check_instance(x))
            good.append(idx)
        except Exception as exc:  # noqa: BLE001 - batch isolation is the contract
            results[idx] = exc
    return good, np.stack(rows) if rows else None


CSV_HEADER = "instance_id,order,subset,value,flag"


def write_attribution_csv(fh, per_instance, start: int = 0) -> None:
    """Write attribution rows: header instance_id,order,subset,value,flag.

    ``per_instance`` is a list over instances of AttributionSet lists, whose
    instance ids count up from ``start``; only a write that starts at
    instance 0 writes the header, so a file can be written one block of
    instances at a time. Rows are ordered by instance, then order, then
    (already lexicographic) subset; subsets are semicolon-joined 1-based
    indices and values are ``repr`` floats. ``flag`` is kept for format
    stability and written empty. The output is byte-identical to the
    row-at-a-time reference writer the tests keep (``tests/conftest.py``)
    on the same rows.
    """
    if start == 0:
        fh.write(CSV_HEADER + "\n")
    # "order,subset," per subset, built once per subset list: instances of one
    # request share theirs. Keyed by id, which stays unique while per_instance
    # holds every set
    columns = {}
    for iid, sets in enumerate(per_instance, start):
        sep = f",\n{iid},"
        for aset in sorted(sets, key=lambda a: a.order):
            texts = columns.get(id(aset.subsets))
            if texts is None:
                texts = columns[id(aset.subsets)] = [
                    f"{aset.order},{';'.join(map(str, s))}," for s in aset.subsets]
            # one repr of the value list gives every float's repr
            values = repr(aset.values.tolist())[1:-1].split(", ")
            fh.write(sep[2:] + sep.join(map(operator.add, texts, values)) + ",\n")


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
        try:
            subset = tuple(int(s) for s in subset_txt.split(";"))
            rows.append((int(iid), int(order), subset, float(value), flag))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return rows
