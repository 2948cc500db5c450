"""Tensor-network models: topologies, forward contraction, cut rank.

Two topologies are supported: a tensor train (chain of order-3 cores with
boundary bonds of extent 1) and a balanced binary tree (leaves carry the
physical legs, internal nodes carry only bonds). Trees over a non-power-of-two
number of features are padded with dimension-1 dummy leaves whose input is
pinned to the scalar 1; dummies are invisible to callers.

Models are immutable after construction. Every evaluated input configuration
bumps a thread-safe forward counter: the scalar ``forward`` adds 1 per call,
``forward_batch`` adds one per row. Batched evaluation is the complexity
contract's unit of accounting, not an approximation -- each row is a full
contraction of one input configuration.

Forward passes, environments and the ALS updates of ``tnshap.fit`` go
through the two row-wise helpers of the "row-wise contractions" section.
Node-weighted probes take one argument list on both topologies: the cores,
the (B, d) signed-toggled rows, from which each leg under the selector at
node t is the affine matrix ``core[:, -1, :] + t * (toggled @ core)``, the
nodes, their weights, the order and the legs. ``tt_probes`` runs every leg
of a train at all m quadrature nodes; ``tree_probes`` runs a node with s
real leaves below it at only s + 1 points (its section comment gives the
cost), and at k >= 2 merges and closes the same-shape nodes of a tree level
in one batched call; ``probe_entries`` counts the float64 state one instance
adds to either sweep. The integers of a topology, a lift, an order and a fit
config pass one rule, ``as_int``.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

TT = "tt"
BTREE = "btree"

DEFAULT_MATERIALIZE_LIMIT = 2**20
# entries of a dense table built at once: an order-1 tree plan keeps
# interpolation matrices up to this size and builds larger ones in row blocks
# of it at each use; the quadrature weights build their cosine table so too
BLOCK_ENTRIES = 1 << 16


def as_int(value, what: str) -> int:
    """``value`` as a plain int; a bool, which ``operator.index`` reads as 0
    or 1, or a non-integral value such as 4.9 or 4.0 is a ValueError that
    starts with ``what``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


class ForwardCounter:
    """Thread-safe tally of evaluated input configurations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    def add(self, k: int = 1) -> None:
        with self._lock:
            self._count += int(k)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


@dataclass(frozen=True)
class TnTopology:
    """Shape-level description of a tensor network.

    Parameters
    ----------
    kind : str
        ``"tt"`` or ``"btree"``.
    n : int
        Number of (real) features; one physical leg each.
    phys_dims : tuple of int
        Physical dimension of each feature leg, length ``n``.
    bond_dims : tuple of int
        Internal edge extents. Chain order for a tensor train (``n - 1``
        entries). For a tree, one entry per non-root node in BFS order
        (``2 * leaf_count - 2`` entries, entry ``v - 2`` for node ``v``).

    Tree nodes use heap indexing: the root is node 1, node ``v`` has
    children ``2v`` and ``2v + 1``, leaf slot ``j`` is node
    ``leaf_count + j``, and node ``v``'s core is ``cores[v - 1]`` in
    serialization order. Slots ``>= n`` are dummy pads with physical
    dimension 1.
    """

    kind: str
    n: int
    phys_dims: tuple
    bond_dims: tuple

    def __post_init__(self):
        if self.kind not in (TT, BTREE):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        object.__setattr__(self, "n", as_int(self.n, "n"))
        if self.n < 1:
            raise ValueError("need at least one feature")
        for name in ("phys_dims", "bond_dims"):
            object.__setattr__(self, name, tuple(as_int(d, f"{name} entry")
                                                 for d in getattr(self, name)))
        if len(self.phys_dims) != self.n:
            raise ValueError("phys_dims length must equal n")
        if any(d < 1 for d in self.phys_dims):
            raise ValueError("physical dimensions must be >= 1")
        if any(b < 1 for b in self.bond_dims):
            raise ValueError("bond dimensions must be >= 1")
        expected = self.n - 1 if self.kind == TT else max(0, 2 * self.leaf_count - 2)
        if len(self.bond_dims) != expected:
            raise ValueError(
                f"{self.kind} over n={self.n} needs {expected} bond dims, "
                f"got {len(self.bond_dims)}"
            )

    @property
    def leaf_count(self) -> int:
        """Number of leaf slots (power of two for trees, n for trains)."""
        if self.kind == TT:
            return self.n
        return _tree_leaf_count(self.n)

    def leaf_phys_dim(self, slot: int) -> int:
        return self.phys_dims[slot] if slot < self.n else 1

    def tree_bond(self, v: int) -> int:
        """Extent of the edge between node ``v`` and its parent."""
        return self.bond_dims[v - 2]

    def core_shapes(self) -> list:
        """Core shapes in serialization order (chain / BFS node order)."""
        if self.kind == TT:
            shapes = []
            left = 1
            for i, d in enumerate(self.phys_dims):
                right = self.bond_dims[i] if i < self.n - 1 else 1
                shapes.append((left, d, right))
                left = right
            return shapes
        L = self.leaf_count
        if L == 1:
            return [(self.phys_dims[0],)]
        shapes = [(self.tree_bond(2), self.tree_bond(3))]
        for v in range(2, L):
            shapes.append((self.tree_bond(2 * v), self.tree_bond(2 * v + 1), self.tree_bond(v)))
        for j in range(L):
            shapes.append((self.leaf_phys_dim(j), self.tree_bond(L + j)))
        return shapes


def capped_uniform_bonds(kind: str, phys_dims, chi: int) -> tuple:
    """Uniform bond dimensions capped at the largest rank an edge can carry.

    The cap for an edge is the smaller of the physical-dimension products on
    its two sides; extents beyond that are pure parameter redundancy. Dummy
    tree leaves contribute a factor of 1, so dummy-side edges collapse to 1.
    """
    phys_dims = tuple(as_int(d, "phys_dims entry") for d in phys_dims)
    n = len(phys_dims)
    chi = as_int(chi, "bond dimension")
    if chi < 1:
        raise ValueError("bond dimension must be >= 1")

    def capped_prod(dims):
        p = 1
        for d in dims:
            p *= d
            if p > 10**9:
                return 10**9
        return p

    if kind == TT:
        return tuple(
            min(chi, capped_prod(phys_dims[: i + 1]), capped_prod(phys_dims[i + 1 :]))
            for i in range(n - 1)
        )
    if kind != BTREE:
        raise ValueError(f"unknown topology kind {kind!r}")
    L = _tree_leaf_count(n)
    full = [phys_dims[j] if j < n else 1 for j in range(L)]
    bonds = []
    for v in range(2, 2 * L):
        lo, hi = _subtree_leaf_range(v, L)
        inside = capped_prod(full[lo:hi])
        outside = capped_prod(full[:lo] + full[hi:])
        bonds.append(min(chi, inside, outside))
    return tuple(bonds)


def _tree_leaf_count(n: int) -> int:
    return 2 ** math.ceil(math.log2(n))


def _subtree_leaf_range(v: int, leaf_count: int):
    """Half-open leaf-slot range covered by node ``v`` of a perfect tree."""
    lo = v
    while lo < leaf_count:
        lo *= 2
    hi = v
    while hi < leaf_count:
        hi = 2 * hi + 1
    return lo - leaf_count, hi - leaf_count + 1


class TensorNetworkModel:
    """An immutable tensor network realizing a multilinear map on lifted inputs.

    Parameters
    ----------
    topology : TnTopology
    cores : sequence of array-like
        Cores in the topology's serialization order; shapes must match
        ``topology.core_shapes()`` exactly.
    """

    def __init__(self, topology: TnTopology, cores) -> None:
        self.topology = topology
        expected = topology.core_shapes()
        if len(cores) != len(expected):
            raise ValueError(f"expected {len(expected)} cores, got {len(cores)}")
        frozen = []
        for idx, (core, shape) in enumerate(zip(cores, expected)):
            arr = np.ascontiguousarray(core, dtype=np.float64)
            if arr.shape != tuple(shape):
                raise ValueError(
                    f"core {idx}: expected shape {tuple(shape)}, got {arr.shape}"
                )
            arr.setflags(write=False)
            frozen.append(arr)
        self.cores = tuple(frozen)
        self.counter = ForwardCounter()

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def phys_dims(self) -> tuple:
        return self.topology.phys_dims

    @property
    def forward_count(self) -> int:
        return self.counter.count

    def forward(self, legs) -> float:
        """Contract the network with one input vector per feature leg.

        Counts as exactly one forward evaluation: a one-row ``forward_batch``.
        """
        return float(self.forward_batch([np.asarray(x).reshape(1, -1) for x in legs])[0])

    def forward_batch(self, legs) -> np.ndarray:
        """Contract a batch of configurations; ``legs[i]`` has shape (B, d_i).

        Counts as B forward evaluations, one per configuration row.
        """
        batch = [np.asarray(x, dtype=np.float64) for x in legs]
        self._check_legs(batch)
        b = batch[0].shape[0]
        self.counter.add(b)
        return _contract_batch(self.topology, self.cores, batch)

    def _check_legs(self, batch) -> None:
        if len(batch) != self.n:
            raise ValueError(f"expected {self.n} input legs, got {len(batch)}")
        for i, (x, d) in enumerate(zip(batch, self.phys_dims)):
            if x.ndim != 2 or x.shape[1] != d:
                raise ValueError(
                    f"mode {i + 1}: expected input of length {d}, "
                    f"got shape {x.shape}"
                )


def cut_rank(topology: TnTopology) -> int:
    """Largest bond extent crossed by any bipartition into connected halves.

    Both supported topologies are acyclic, so any cut splitting the graph
    into two connected components crosses exactly one internal edge; the
    maximum over cuts is the maximum bond dimension.
    """
    return max(topology.bond_dims, default=1)


def _contract_batch(topology: TnTopology, cores, batch) -> np.ndarray:
    if topology.kind == TT:
        return _tt_contract(cores, batch)
    return tree_up_messages(topology, cores, batch)[1][:, 0]


# -- row-wise contractions ----------------------------------------------------
#
# A row-wise step contracts a (p, q, r) core with two row-aligned (B, .)
# inputs; each helper is named for the leg it leaves open. ``_open_leg2``
# serves TT prefix steps and tree up messages, the root's (B, 1) output
# included. ``_open_leg1`` serves right-child down messages and, on
# ``core.transpose(1, 0, 2)``, left-child down messages and TT suffix steps.
# Tree passes read node cores through ``_node_core``, which gives the root a
# parent leg of extent 1, so the root contracts like any other node.
# One helper for both would need a core transpose and a strided reduction on
# one of the passes, which measured slower.


def _open_leg2(core, a, b) -> np.ndarray:
    """Contract legs 0 and 1 of a (p, q, r) core with (B, p) rows ``a`` and
    (B, q) rows ``b``; returns (B, r)."""
    p, q, r = core.shape
    tmp = (a @ core.reshape(p, q * r)).reshape(-1, q, r)
    return np.einsum("bqr,bq->br", tmp, b)


def _open_leg1(core, a, c) -> np.ndarray:
    """Contract legs 0 and 2 of a (p, q, r) core with (B, p) rows ``a`` and
    (B, r) rows ``c``; returns (B, q)."""
    p, q, r = core.shape
    tmp = (a @ core.reshape(p, q * r)).reshape(-1, q, r)
    return np.einsum("bqr,br->bq", tmp, c)


def _tt_contract(cores, batch) -> np.ndarray:
    state = None
    for core, x in zip(cores, batch):
        state = x @ core[0] if state is None else _open_leg2(core, state, x)
    return state[:, 0]


def _node_core(cores, v: int) -> np.ndarray:
    """Tree node ``v``'s core with a parent leg: the root's (p, q) core, or a
    one-leaf tree's (d,) core, gains a trailing leg of extent 1; every other
    core comes back unchanged."""
    return cores[0][..., None] if v == 1 else cores[v - 1]


def tree_up_messages(topology: TnTopology, cores, batch) -> list:
    """Leaf-to-root messages. Entry ``v`` is the (B, bond) message node ``v``
    sends to its parent; entry 1 is the root's (B, 1) network output.
    """
    L = topology.leaf_count
    rows = batch[0].shape[0]
    msgs = [None] * (2 * L)
    for v in range(2 * L - 1, 0, -1):
        core = _node_core(cores, v)
        if v < L:
            msgs[v] = _open_leg2(core, msgs[2 * v], msgs[2 * v + 1])
        else:
            msgs[v] = (batch[v - L] if v - L < topology.n else np.ones((rows, 1))) @ core
    return msgs


def tt_right_states(cores, batch) -> list:
    """Suffix contractions: entry i is the (B, bond_{i-1}) state for legs
    i+1..n absorbed; entry n is the all-ones (B, 1) boundary.
    """
    n = len(cores)
    states = [None] * (n + 1)
    states[n] = np.ones((batch[0].shape[0], 1))
    for i in range(n - 1, -1, -1):
        states[i] = _open_leg1(cores[i].transpose(1, 0, 2), batch[i], states[i + 1])
    return states


# -- order-k probes on a train ----------------------------------------------
#
# Under the selector at node t a leg carries ``off + t * toggled`` (bias
# channel last: 1 in ``off``, 0 in ``toggled``), so leg i acts as the affine
# matrix ``core[:, -1, :] + t * (toggled_i @ core)``; a signed-toggled leg
# contributes its toggled core alone. ``tt_probes`` builds each instance's
# toggled cores once, runs a prefix pass of the affine matrices from the
# quadrature weights, and a right-to-left pass that stacks, per number o < k
# of legs toggled so far, the suffix states of every such choice, kept only
# while enough toggleable legs remain to complete them. Each subset closes
# against the weighted prefix at its first leg, so no order-k state and no
# (m, C(n, k)) probe matrix is ever built.


def tt_probes(cores, toggled, nodes, weights, k: int, legs) -> np.ndarray:
    """Node-weighted signed-toggle probes of every k-subset of ``legs`` (the
    sorted 0-based legs a request may toggle) on a train: ``tree_probes``'
    arguments and (B, C(len(legs), k)) output, from one weighted prefix pass
    and one stacked right-to-left pass.

    Order-o suffix states are stacked as (B, C(toggleable legs after i, o),
    m, bond) arrays, order 0 starting from ones; a subset closes against the
    (B, m, bond) prefix at its first leg, one batched GEMV per closed block.
    Subsets that toggle leg i go ahead of those that skip it, so by
    induction every stack is in lexicographic order, and so is the reversed
    list of closed blocks.
    """
    n = len(cores)
    b = toggled[0].shape[0]
    m = nodes.shape[0]
    t = nodes[:, None]
    # leg i's toggled core per instance, a contiguous (B, r, l) array
    data = [(x @ core.transpose(1, 2, 0).reshape(x.shape[1], -1)).reshape(b, core.shape[2], -1)
            for core, x in zip(cores, toggled)]
    # entry i: the weighted (B, m, bond) prefix through legs 0..i-1
    left = [np.repeat(weights[None, :, None], b, axis=0)]
    for i in range(legs[-1]):
        state = left[-1]
        bias = (state.reshape(b * m, -1) @ cores[i][:, -1, :]).reshape(b, m, -1)
        left.append(bias + t * (state @ data[i].transpose(0, 2, 1)))
    toggleable = set(legs)
    before = len(legs)
    stacks = [np.ones((b, 1, m, 1))] + [None] * (k - 1)
    closed = []
    for i in range(n - 1, -1, -1):
        toggle = i in toggleable
        before -= toggle  # toggleable legs left of i
        l, _, r = cores[i].shape
        bias = cores[i][:, -1, :].T
        parts = [[] for _ in range(k)]
        for o, state in enumerate(stacks):
            grow = toggle and k - o - 1 <= before
            keep = k - o <= before
            if state is None or not (grow or keep):
                continue
            rows = state.shape[1]
            on = (state.reshape(b, rows * m, r) @ data[i]).reshape(b, rows, m, l)
            if grow and o + 1 == k:
                closed.append((on.reshape(b, rows, m * l) @ left[i].reshape(b, m * l, 1))[:, :, 0])
            elif grow:
                parts[o + 1].append(on)
            if keep:
                kept = (state.reshape(-1, r) @ bias).reshape(b, rows, m, l)
                kept += t * on
                parts[o].append(kept)
        stacks = [_stack(p) for p in parts]
    return _stack(closed[::-1])


def _stack(blocks, axis=1):
    if not blocks:
        return None
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=axis)


# -- order-k probes on a tree, on per-node point sets ------------------------
#
# With every leg selector-scaled, leg j's leaf message ``core[-1] + t *
# (tog_j @ core)`` (bias channel last, equal to 1) is affine in t, so the up
# message of a subtree with s real leaves is a polynomial of degree s in t,
# fixed by its values at s + 1 points. ``_tree_plan`` gives each node a
# point set: the root has the caller's nodes; an internal node has
# ``chebyshev_nodes(s + 1)`` when that is fewer points than its parent has,
# else its parent's; a real leaf always shares its parent's, where its affine
# message is evaluated directly. An up message reaches its parent's points
# through a barycentric interpolation matrix (``chebyshev_interpolation``),
# and the down pass carries the weighted adjoint back through the transpose,
# so node v's adjoint is the linear map from v's message at v's points to
# the weighted sum of root outputs. Toggling o leaves below v lowers the
# degree of v's message to s - o, so interpolation reproduces every probe
# exactly, and a k-subset's index is the adjoint at its lowest common node
# closed against the message with its legs toggled: at its leaf for k = 1,
# else where its two parts meet (``_toggle_close``). Up to order k - 1 the
# toggled messages are stacked per choice of legs and ride the same
# interpolation maps as the order-0 ones, as ``_tree_schedule`` lists. The
# order-0 up and down passes visit the nodes one by one; the stacked pass
# visits level groups: a run of nodes on one level with one core shape, one
# point set and one schedule entry (in a balanced tree, the nodes of a level
# with only real leaves below them, cut where the group's temporaries would
# outgrow the widest one node builds; the node that straddles the pads, a
# folded node and the root run alone). A group's stacks carry a leading
# group axis, so each merge, close and interpolation is one batched call for
# all its nodes. A node costs its point count times chi^3 per
# stacked row, about sum_v (s_v + 1) chi^3 per instance at k = 1, plus the
# interpolation GEMMs.


def chebyshev_nodes(m: int) -> np.ndarray:
    """Chebyshev-Gauss nodes mapped to (0, 1).

    t_l = (1 + cos((2l + 1) pi / (2m))) / 2 for l = 0..m-1, returned in the
    formula's natural (descending) order.
    """
    if as_int(m, "node count") < 1:
        raise ValueError("need at least one node")
    ell = np.arange(m)
    return 0.5 * (1.0 + np.cos((2 * ell + 1) * np.pi / (2 * m)))


def chebyshev_interpolation(size: int, targets) -> np.ndarray:
    """(len(targets), size) matrix taking a polynomial's values at
    ``chebyshev_nodes(size)`` to its values at ``targets``, exact for degree
    below ``size``: the barycentric formula with the first-kind weights
    (-1)^j sin(theta_j). A target equal to a node copies that node's value."""
    targets = np.asarray(targets, dtype=np.float64)
    nodes = chebyshev_nodes(size)
    theta = (2 * np.arange(size) + 1) * np.pi / (2 * size)
    lam = np.sin(theta)
    lam[1::2] *= -1.0
    # the nodes descend, so -nodes is sorted for the search for exact hits
    col = np.minimum(np.searchsorted(-nodes, -targets), size - 1)
    hit = np.flatnonzero(nodes[col] == targets)
    mat = np.subtract.outer(targets, nodes)
    mat[hit, col[hit]] = 1.0
    np.divide(lam, mat, out=mat)
    mat *= (1.0 / mat.sum(axis=1))[:, None]
    mat[hit] = 0.0
    mat[hit, col[hit]] = 1.0
    return mat


class _Interpolation:
    """``chebyshev_interpolation(size, targets)`` as a linear map on
    (size, cols) arrays, with its transpose. The matrix is kept when it has
    at most ``BLOCK_ENTRIES`` entries; a larger one is rebuilt in row
    blocks of that many entries at each use, so memory stays O(n) at any n."""

    def __init__(self, size: int, targets: np.ndarray) -> None:
        self.size, self.targets = size, targets
        self.step = max(1, BLOCK_ENTRIES // size)
        self.mat = None
        if targets.shape[0] <= self.step:
            self.mat = chebyshev_interpolation(size, targets)
            self.mat.setflags(write=False)

    def _blocks(self):
        for i in range(0, self.targets.shape[0], self.step):
            yield i, chebyshev_interpolation(self.size, self.targets[i : i + self.step])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(..., size, cols) values at the nodes -> (..., len(targets), cols)."""
        if self.mat is not None:
            return self.mat @ x
        return np.concatenate([mat @ x for _, mat in self._blocks()], axis=-2)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """The transpose: (len(targets), cols) -> (size, cols)."""
        if self.mat is not None:
            return self.mat.T @ y
        return sum(mat.T @ y[i : i + mat.shape[0]] for i, mat in self._blocks())


# bounded: one entry per (n, root nodes) pair a process explains
@functools.lru_cache(maxsize=16)
def _tree_plan(n: int, key: bytes) -> tuple:
    """``tree_probes``' point sets for n features with the root nodes whose
    float64 bytes are ``key``: (points, maps, total), where ``points[v]``
    holds node v's points as a (points, 1, 1) column and ``maps[v]`` is the
    ``_Interpolation`` from them to its parent's, or None where v shares its
    parent's points, and ``total`` is the number of points over all nodes
    (``probe_entries`` reads it). A subtree of pad leaves only is constant
    and has no points (None). Nodes with equal point sets and maps share one
    object, so ``_tree_schedule`` groups nodes by identity."""
    L = _tree_leaf_count(n)
    points = [None] * (2 * L)
    maps = [None] * (2 * L)
    points[1] = np.frombuffer(key)[:, None, None]
    # below the root a point set is chebyshev_nodes(size), one array per size;
    # a map is one object per (size, id of the parent's points)
    own, shared = {}, {}
    for v in range(2, 2 * L):
        lo, hi = _subtree_leaf_range(v, L)
        if lo >= n:
            continue
        parent = points[v // 2]
        size = min(hi, n) - lo + 1
        if v < L and size < parent.shape[0]:
            if size not in own:
                own[size] = chebyshev_nodes(size)[:, None, None]
                own[size].setflags(write=False)
            if (size, id(parent)) not in shared:
                shared[size, id(parent)] = _Interpolation(size, parent.ravel())
            points[v], maps[v] = own[size], shared[size, id(parent)]
        else:
            points[v] = parent
    return tuple(points), tuple(maps), sum(p.shape[0] for p in points if p is not None)


def _plan_key(nodes) -> bytes:
    return np.ascontiguousarray(nodes, dtype=np.float64).tobytes()


def tree_probes(cores, toggled, nodes, weights, k: int, legs) -> np.ndarray:
    """Node-weighted signed-toggle probes of every k-subset of ``legs`` (the
    sorted 0-based legs a request may toggle) on a binary tree over
    n = ``len(toggled)`` features, with ``tt_probes``' arguments, from one up
    pass, one adjoint down pass and, for k >= 2, one stacked up pass on
    per-node point sets (see the section comment).

    ``cores`` are in serialization order, over ``_tree_leaf_count(n)`` leaf
    slots. ``toggled[i]`` is the (B, d_i) signed toggle of leg i's lifted
    rows, whose bias channel is 1. Entry (b, s) of the returned
    (B, C(len(legs), k)) array is the ``weights``-weighted sum over l of
    instance b's contraction with the legs of the s-th subset (lexicographic
    order) toggled and every other leg selector-scaled at ``nodes[l]``: the
    index itself under quadrature weights, the raw probe at one node of
    weight 1. No (B * m)-row selector-scaled input is built.

    Messages are point-major, (points, B, bond) arrays, so one GEMM takes a
    message to another point set. The up and down passes visit the nodes one
    by one; the stacked pass runs once per level group of ``_tree_schedule``
    (same-shape nodes of a level), whose order-o stacks are
    (G, points * B, C(toggleable leaves under a node, o), bond) arrays, so
    each merge, close and interpolation is one call for the G nodes. Which
    orders a group keeps, merges and closes, and the permutation to
    lexicographic order, come from the schedule; this pass only runs it. A
    subtree of pads only sends a constant (bond,) vector, which its parent
    folds into its core once per call. Order-1 subsets close at their leaves
    in ``legs`` order.
    """
    n, b = len(toggled), toggled[0].shape[0]
    L = _tree_leaf_count(n)
    key = _plan_key(nodes)
    points, maps, _ = _tree_plan(n, key)
    ons = [toggled[j] @ _node_core(cores, L + j) for j in range(n)]
    # entry v: node v's up message at its parent's points
    up = [None] * (2 * L)
    # node v -> its core with the constant right child contracted, (p, r)
    folded = {}
    for v in range(2 * L - 1, 1, -1):
        core = _node_core(cores, v)
        t = points[v]
        if t is None:
            up[v] = core[0] if v >= L else np.einsum("p,q,pqr->r", up[2 * v], up[2 * v + 1],
                                                     core)
            continue
        if v >= L:
            msg = core[-1] + t * ons[v - L]
        else:
            rows = t.shape[0] * b
            left = up[2 * v].reshape(rows, -1)
            if points[2 * v + 1] is None:
                folded[v] = np.einsum("pqr,q->pr", core, up[2 * v + 1])
                msg = left @ folded[v]
            else:
                msg = _open_leg2(core, left, up[2 * v + 1].reshape(rows, -1))
            msg = msg.reshape(t.shape[0], b, -1)
        if maps[v] is not None:
            msg = maps[v].forward(msg.reshape(t.shape[0], -1)).reshape(-1, b, msg.shape[2])
        up[v] = msg
    inside, closes, levels, perm = _tree_schedule(legs, n, k, tuple(c.shape for c in cores), key)
    # entry v: the weighted adjoint of node v's up message, at v's points. It
    # is built where at least k toggleable leaves lie below v (the nodes where
    # subsets close, and their ancestors) and kept only where subsets close:
    # the toggleable leaves at k = 1, else the nodes the schedule closes at
    down = [None] * (2 * L)
    down[1] = np.repeat(weights[:, None, None], b, axis=1)
    for v in range(1, L):
        if inside[v] < k:
            continue
        core = _node_core(cores, v)
        p = down[v].shape[0]
        env = down[v].reshape(p * b, -1)
        if not closes[v]:
            down[v] = None
        for c in (2 * v, 2 * v + 1):
            if inside[c] < k:
                continue
            if v in folded:
                adj = env @ folded[v].T
            elif c == 2 * v:
                adj = _open_leg1(core.transpose(1, 0, 2), up[c + 1].reshape(p * b, -1), env)
            else:
                adj = _open_leg1(core, up[c - 1].reshape(p * b, -1), env)
            bond = adj.shape[1]
            if maps[c] is not None:
                adj = maps[c].adjoint(adj.reshape(p, -1))
            down[c] = adj.reshape(-1, b, bond)
    if k == 1:
        out = np.empty((b, len(legs)))
        for s_idx, j in enumerate(legs):
            out[:, s_idx] = np.einsum("fbr,br->b", down[L + j], ons[j])
        return out

    def step(below, grp, keep, ups, pairs, left, right, blocks) -> list:
        """One group's stacked messages by order, as one dict per block (a
        run of the group with one map) at the parents' points; its closed
        blocks go to ``closed``."""
        v, g, p = grp[0], len(grp), points[grp[0]].shape[0]
        if v >= L:
            msg = {}
            if inside[v]:
                on = _stacked([ons[u - L] for u in grp])[:, None]
                msg[1] = np.repeat(on, p, axis=1).reshape(g, -1, 1, on.shape[3])
        elif v in folded:
            fold = _stacked([folded[u] for u in grp])
            msg = {o: (x.reshape(g, -1, x.shape[3]) @ fold).reshape(*x.shape[:3], -1)
                   for o, x in _gather(below, left).items() if o}
        else:
            group_cores = [_node_core(cores, u) for u in grp]
            lchild, rchild = _gather(below, left), _gather(below, right)
            if pairs:
                env = _stacked([down[u] for u in grp])
                closed.extend(_toggle_close(group_cores, lchild[i], rchild[j], env)
                              for i, j in pairs)
            msg = {o: _stack([_toggle_merge(group_cores, lchild[i], rchild[j])
                              for i, j in merges], axis=2)
                   for o, merges in ups}
        parts = []
        for lo, hi in blocks:
            block, to_parent = grp[lo:hi], maps[grp[lo]]
            part = {o: x[lo:hi] for o, x in msg.items()}
            if to_parent is not None:
                part = {o: to_parent.forward(x.reshape(len(block), p, -1))
                        .reshape(len(block), -1, *x.shape[2:]) for o, x in part.items()}
            elif len(blocks) > 1:  # a view would keep the other blocks' own-point stacks
                part = {o: x.copy() for o, x in part.items()}
            if keep:
                part[0] = _stacked([up[u] for u in block]).reshape(len(block), -1, 1,
                                                                    up[v].shape[2])
            parts.append(part)
        return parts

    # each level's blocks of stacked messages, read by the level above
    below, closed = [], []
    for level in levels:
        below = [part for group in level for part in step(below, *group)]
    return np.concatenate(closed, axis=1)[:, perm]


def _stacked(arrays) -> np.ndarray:
    """Same-shape arrays along a new leading group axis; one array is a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _gather(blocks, src) -> dict:
    """A group's left or right children's (G, rows, choices, bond) stacks by
    order, from the level below's ``blocks`` at the (block index, slice)
    pairs ``src``: a view when one block holds them all."""
    return {o: _stack([blocks[i][o][part] for i, part in src], axis=0)
            for o in blocks[src[0][0]]}


def _toggle_merge(cores, left, right) -> np.ndarray:
    """Contract row-aligned stacks (G, N, a, p) and (G, N, c, q) through the
    G (p, q, r) ``cores`` into (G, N, a * c, r), left choices major. The
    smaller stack goes through the core GEMM, so the 5-D intermediate stays
    small; the cores are stacked in the layout that GEMM reads."""
    g, rows, a, p = left.shape
    c, q = right.shape[2:]
    r = cores[0].shape[2]
    if a <= c:
        core = _stacked(cores).reshape(g, p, q * r)
        tmp = (left.reshape(g, rows * a, p) @ core).reshape(g, rows, a, q, r)
        out = tmp.transpose(0, 1, 2, 4, 3).reshape(g, rows, a * r, q) @ right.transpose(0, 1, 3, 2)
        return out.reshape(g, rows, a, r, c).transpose(0, 1, 2, 4, 3).reshape(g, rows, a * c, r)
    core = _stacked([x.transpose(1, 0, 2) for x in cores]).reshape(g, q, p * r)
    tmp = (right.reshape(g, rows * c, q) @ core).reshape(g, rows, c, p, r)
    tmp = tmp.transpose(0, 1, 3, 2, 4).reshape(g, rows, p, c * r)
    return (left @ tmp).reshape(g, rows, a * c, r)


def _toggle_close(cores, left, right, env) -> np.ndarray:
    """Close stacks (G, P * B, a, p) and (G, P * B, c, q), point-major,
    through the G (p, q, r) ``cores`` against the nodes' weighted
    (G, P, B, r) adjoints, summed over the P points; returns (B, G * a * c),
    node-major, then left choices major. The adjoint goes into the core
    first, so no (P * B, a * c, r) block is built, and the smaller stack
    meets it first."""
    g, rows, a, p = left.shape
    c, q = right.shape[2:]
    b = env.shape[2]
    if a > c:
        out = _toggle_close([x.transpose(1, 0, 2) for x in cores], right, left, env)
        return out.reshape(b, g, c, a).transpose(0, 1, 3, 2).reshape(b, -1)
    core = _stacked(cores).reshape(g, p * q, -1)
    adj = (env.reshape(g, rows, -1) @ core.transpose(0, 2, 1)).reshape(g, rows, p, q)
    tmp = (left @ adj).reshape(g, -1, b, a, q).transpose(2, 0, 3, 1, 4).reshape(b, g, a, -1)
    right = right.reshape(g, -1, b, c, q).transpose(2, 0, 1, 4, 3).reshape(b, g, -1, c)
    return (tmp @ right).reshape(b, -1)


# bounded: an explicit subset list adds one entry per distinct leg set
@functools.lru_cache(maxsize=64)
def _tree_schedule(legs, n: int, k: int, shapes, key: bytes) -> tuple:
    """``tree_probes``' stacked pass over the k-subsets of ``legs`` on a tree
    over n features with core ``shapes``, at the point sets of
    ``_tree_plan(n, key)``: (inside, closes, levels, perm).

    Node v has ``inside[v]`` of the ``legs`` below it and closes the order-k
    (left, right) order pairs ``closes[v]``; at k = 1 a leaf closes itself.
    ``levels`` lists the tree's levels, leaves first, each as a tuple of
    groups (nodes, keep, ups, closes, left, right, blocks). A group is a run
    of nodes with points on one level that share a core shape, a point set,
    being folded or not, their stacks' (order, choices) and their
    children's, and these entries. It keeps only the orders below k that the
    legs outside each node can complete (else k near ``len(legs)`` stacks
    about 2^inside choices): 0 if ``keep``, and each o of ``ups``' (o,
    (left, right) order pairs merged into o). ``blocks`` cuts the run where
    its map to the parents' points changes, as (start, stop) positions; the
    level above reads a level by block. ``left`` and ``right`` are the
    (block index, slice) pairs of the level below that hold the group's left
    and right children, in order (None on a leaf, and ``right`` on a folded
    group). A run is cut where the widest temporary per instance of its
    nodes' steps (``_step_width``), summed over the group, would pass the
    widest of any one node, so a group builds no array wider than one node
    of the request does. ``perm`` takes the closing order (groups in turn,
    each close pair over the group's nodes) to lexicographic order: it sorts
    the leg-index rows built from the same pairs."""
    L = _tree_leaf_count(n)
    points, maps, _ = _tree_plan(n, key)
    toggleable = set(legs)
    inside, closes = [0] * (2 * L), [()] * (2 * L)
    labels, entry, width = [None] * (2 * L), [None] * (2 * L), [0] * (2 * L)

    def merged(a, b):  # two label blocks' rows, left choices major
        return np.concatenate([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))], axis=1)

    for v in range(2 * L - 1, 0, -1):
        inside[v] = int(v - L in toggleable) if v >= L else inside[2 * v] + inside[2 * v + 1]
        lo, hi = max(0, k - (len(legs) - inside[v])), min(k - 1, inside[v])
        keep, ups = lo == 0, ()
        lab = {0: np.empty((1, 0), dtype=np.intp)} if keep else {}
        if v >= L and inside[v] and k > 1:
            lab[1] = np.array([[v - L]], dtype=np.intp)
        elif v < L:
            left, right = labels[2 * v], labels[2 * v + 1]
            pairs = {o: tuple((i, o - i) for i in sorted(left) if o - i in right)
                     for o in [*range(max(lo, 1), hi + 1), k]}
            closes[v] = pairs.pop(k)
            ups = tuple(pairs.items())
            for o, merges in ups:
                lab[o] = np.concatenate([merged(left[i], right[j]) for i, j in merges])
        labels[v] = lab
        if points[v] is None:
            continue
        shape = shapes[v - 1] + (1,) if v == 1 else shapes[v - 1]
        kids = None if v >= L else tuple(_widths(labels[c]) for c in (2 * v, 2 * v + 1))
        entry[v] = (shape, id(points[v]), kids, _widths(lab), v < L and points[2 * v + 1] is None,
                    (keep, ups, closes[v]))
        width[v] = _step_width(shape, points[v].shape[0], maps[v], kids, ups, closes[v])
    widest = max(width)
    levels, where = [], {}
    for depth in range(L.bit_length() - 1, -1, -1):
        runs = []  # [first node, count, summed width]
        for v in range(1 << depth, 2 << depth):
            if entry[v] is None:
                continue
            if (runs and runs[-1][0] + runs[-1][1] == v and entry[runs[-1][0]] == entry[v]
                    and runs[-1][2] + width[v] <= widest):
                runs[-1][1] += 1
                runs[-1][2] += width[v]
            else:
                runs.append([v, 1, width[v]])
        level, blocks = [], []
        for first, count, _ in runs:
            grp = range(first, first + count)
            cuts = [i for i in range(1, count) if maps[first + i] is not maps[first + i - 1]]
            bounds = tuple(zip([0, *cuts], [*cuts, count]))
            kids = [_sources(where, range(2 * first + s, 2 * grp.stop, 2)) if first < L else None
                    for s in (0, 1)]
            level.append((grp, *entry[first][-1], *kids, bounds))
            blocks += [grp[lo:hi] for lo, hi in bounds]
        levels.append(tuple(level))
        where = {v: (i, pos) for i, block in enumerate(blocks) for pos, v in enumerate(block)}
    closed = [merged(labels[2 * v][i], labels[2 * v + 1][j])
              for level in levels for grp, _, _, pairs, *_ in level for i, j in pairs for v in grp]
    perm = np.lexsort(np.concatenate(closed).T[::-1]) if closed else None
    if perm is not None:
        perm.setflags(write=False)
    return tuple(inside), tuple(closes), tuple(levels), perm


def _widths(labels) -> tuple:
    """(order, choices) of a node's stacks, from its label blocks."""
    return tuple((o, len(x)) for o, x in labels.items())


def _sources(where, kids):
    """(block index, slice) pairs of the level below that hold ``kids`` in
    order, from ``where``'s node -> (block index, position) map; None when
    the kids are pads only."""
    runs = []
    for c in kids:
        if c not in where:
            return None
        i, pos = where[c]
        if runs and runs[-1][0] == i:
            runs[-1][2] = pos + 1
        else:
            runs.append([i, pos, pos + 1])
    return tuple((i, slice(start, stop, 2)) for i, start, stop in runs)


def _step_width(shape, points: int, to_parent, kids, ups, closes) -> int:
    """Float64 entries per instance of the widest array one node's step of
    the stacked pass builds: a leaf's order-1 stack, else its inputs, the
    merge and close products of ``_toggle_merge`` and ``_toggle_close``, and
    its stacks at its own and its parent's points (``to_parent`` is its
    map, or None). ``kids`` gives the (order, choices) of the children's
    stacks. A folded node's one GEMM per order is bounded by its merges'."""
    P, r = points, shape[-1]
    P_up = P if to_parent is None else to_parent.targets.shape[0]
    if kids is None:
        return P_up * r
    p, q = shape[:2]
    wl, wr = dict(kids[0]), dict(kids[1])
    sizes = [P * p * max(wl.values(), default=0), P * q * max(wr.values(), default=0)]
    for _, merges in ups:
        sizes.append(P_up * r * sum(wl[i] * wr[j] for i, j in merges))
        sizes += [P * r * (a * max(q, c) if a <= c else c * max(p, a))
                  for a, c in ((wl[i], wr[j]) for i, j in merges)]
    sizes += [max(P * p * q, P * max(a, c) * (q if a <= c else p), a * c)
              for a, c in ((wl[i], wr[j]) for i, j in closes)]
    return max(sizes)


def probe_entries(topology: TnTopology, nodes, k: int, legs) -> int:
    """Float64 entries of live state that one instance adds to a
    ``tt_probes`` or ``tree_probes`` sweep with these ``nodes``, order and
    ``legs``, at bond dimension chi = ``cut_rank(topology)`` and m nodes.

    Both hold the widest order-(k - 1) stack, m chi C(len(legs), k - 1),
    with its working copies: three on a train (the stack, the block grown
    from it and the block kept), two on a tree (the stack and its closing's
    products). A train adds its weighted prefix state at every leg,
    m chi n; a tree its kept up and down messages over ``_tree_plan``'s
    point sets, 2 chi sum_v P_v, read from the cached plan. A ``tracemalloc``
    peak per stacked instance falls within 2x of this count."""
    chi, m = cut_rank(topology), nodes.shape[0]
    stack = m * chi * math.comb(len(legs), k - 1)
    if topology.kind == TT:
        return 3 * stack + m * chi * topology.n
    return 2 * stack + 2 * chi * _tree_plan(topology.n, _plan_key(nodes))[2]


def materialize_full(model: TensorNetworkModel, limit: int = DEFAULT_MATERIALIZE_LIMIT) -> np.ndarray:
    """Expand the model into its dense coefficient tensor over the real legs.

    Refuses when the dense tensor would exceed ``limit`` entries.
    """
    entries = 1
    for d in model.phys_dims:
        entries *= d
    if entries > limit:
        raise ValueError(
            f"materialization needs {entries} entries, above the limit of {limit}"
        )
    topo = model.topology
    if topo.kind == TT:
        full = np.ones((1, 1))
        for core in model.cores:
            left, d, right = core.shape
            full = (full @ core.reshape(left, d * right)).reshape(-1, right)
        return full.reshape(model.phys_dims)
    return _tree_materialize(topo, model.cores, 1).reshape(model.phys_dims)


def _tree_materialize(topo: TnTopology, cores, v: int) -> np.ndarray:
    """Dense (prod real dims under v, bond) matrix for node ``v``'s subtree;
    the root's bond is 1. Children merge as one-row stacks."""
    if v >= topo.leaf_count:
        return _node_core(cores, v)
    ml = _tree_materialize(topo, cores, 2 * v)
    mr = _tree_materialize(topo, cores, 2 * v + 1)
    merged = _toggle_merge([_node_core(cores, v)], ml[None, None], mr[None, None])
    return merged.reshape(ml.shape[0] * mr.shape[0], -1)
