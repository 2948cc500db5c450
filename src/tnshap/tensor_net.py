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
Node-weighted probes take one argument list on both topologies: the model,
the (B, d) signed-toggled rows, from which each leg under the selector at
node t is the affine matrix ``core[:, -1, :] + t * (toggled @ core)``, the
nodes, their weights, the order and the legs. ``tt_probes`` runs every leg
of a train at all m quadrature nodes; ``tree_probes`` runs a node with s
real leaves below it at only s + 1 points (its section comment gives the
cost), and runs each of its passes over the same-shape nodes of a tree level
in one batched call, on what the model's first request of a shape derives
from its cores (``_tree_inputs``);
``probe_entries`` counts the float64 state one instance adds to either
sweep. The integers of a topology, a lift, an order and a fit config pass
one rule, ``as_int``.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

TT = "tt"
BTREE = "btree"

DEFAULT_MATERIALIZE_LIMIT = 2**20
# entries of a dense interpolation map built at once: a tree plan keeps maps
# up to this size; a larger map between Chebyshev point sets runs as a DCT
# pair, any other is built in row blocks of this size at each use
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

    The cores are kept read-only. A tree model also keeps what
    ``tree_probes`` derives from its cores alone, per request shape
    (``_tree_inputs``), so a repeated request pays only for its instances.
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
        # ``_tree_inputs``' plans by request shape, oldest first
        self._plans = {}
        self._plans_lock = threading.Lock()

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


def tt_probes(model, toggled, nodes, weights, k: int, legs) -> np.ndarray:
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
    cores = model.cores
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
# through ``_Interpolation``: a barycentric matrix (``chebyshev_interpolation``)
# up to ``BLOCK_ENTRIES`` entries, else a DCT pair at O(P log P) per column,
# and the down pass carries the weighted adjoint back through the transpose,
# so node v's adjoint is the linear map from v's message at v's points to
# the weighted sum of root outputs. Toggling o leaves below v lowers the
# degree of v's message to s - o, so interpolation reproduces every probe
# exactly, and a k-subset's index is the adjoint at its lowest common node
# closed against the message with its legs toggled: at its leaf for k = 1,
# else where its two parts meet (``_toggle_close``). Up to order k - 1 the
# toggled messages are stacked per choice of legs and ride the same
# interpolation maps as the order-0 ones, as ``_tree_schedule`` lists. Every
# pass -- the order-0 up pass, the adjoint down pass and the stacked pass --
# visits the same level groups: a run of nodes on one level with one core
# shape, one point set and one schedule entry (in a balanced tree, the nodes
# of a level with only real leaves below them, cut where the group's
# temporaries would outgrow the widest one node builds; the node that
# straddles the pads, a folded node and the root run alone). A group's
# cores are stacked once per model and request shape (``_tree_inputs``),
# and its messages, adjoints and stacks carry a leading group axis, so each
# step, merge, close and interpolation is one batched call for all its
# nodes, at every order. A node costs its point count times chi^3 per
# stacked row, about sum_v (s_v + 1) chi^3 per instance at k = 1, plus the
# maps: one GEMM each up to ``BLOCK_ENTRIES`` entries, else two real FFTs per
# column.


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
    (..., size, cols) arrays, with its transpose. The matrix is kept when it
    has at most ``BLOCK_ENTRIES`` entries, where one GEMM is fastest. A
    larger map onto ``chebyshev_nodes(len(targets))`` runs as a DCT pair:
    the values' Chebyshev coefficients by a DCT-II, then a zero-padded
    DCT-III at the targets, each one real FFT, O((size + P) log P) per
    column for P targets with no matrix built; its transpose runs the
    transposed pair (Trefethen, Approximation Theory and Approximation
    Practice, 2013, ch. 3). Any other large map (a caller's root nodes that
    are not Chebyshev nodes of their own count, such as Gauss-Legendre
    nodes) is rebuilt in row blocks of ``BLOCK_ENTRIES`` entries at each
    use, so memory stays O(n) at any n."""

    def __init__(self, size: int, targets: np.ndarray) -> None:
        count = targets.shape[0]
        self.size, self.targets = size, targets
        self.step = max(1, BLOCK_ENTRIES // size)
        self.mat = self.dct = None
        if count <= self.step:
            self.mat = chebyshev_interpolation(size, targets)
            self.mat.setflags(write=False)
        elif np.array_equal(targets, chebyshev_nodes(count)):
            # coefficient j of the interpolant is (2 - [j = 0]) / size times
            # the values' DCT-II term j; both directions apply it on the way
            # into the DCT-III
            self.dct = (_dct_twiddles(size, size), _dct_twiddles(count, size))

    def _blocks(self):
        for i in range(0, self.targets.shape[0], self.step):
            yield i, chebyshev_interpolation(self.size, self.targets[i : i + self.step])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(..., size, cols) values at the nodes -> (..., len(targets), cols)."""
        if self.mat is not None:
            return self.mat @ x
        if self.dct is not None:
            return _dct3(_dct2(x, self.dct[0], self.size), self.targets.shape[0])
        return np.concatenate([mat @ x for _, mat in self._blocks()], axis=-2)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """The transpose: (..., len(targets), cols) -> (..., size, cols)."""
        if self.mat is not None:
            return self.mat.T @ y
        if self.dct is not None:
            return _dct3(_dct2(y, self.dct[1], self.size), self.size)
        return sum(mat.T @ y[..., i : i + mat.shape[0], :] for i, mat in self._blocks())


@functools.lru_cache(maxsize=64)
def _dct_tables(n: int) -> tuple:
    """A length-n DCT's read-only tables: the even entries of 0..n-1, then
    the odd ones descending (Makhoul's order, which turns the DCT into one
    length-n real FFT), its inverse, and ``_dct3``'s factors
    n / 2 exp(i pi j / (2n)), j = 0..n//2, with n at j = 0 (irfft divides by
    n and counts each j > 0 twice), as a column."""
    order = np.concatenate([np.arange(0, n, 2), np.arange(1, n, 2)[::-1]])
    unwind = 0.5 * n * np.exp(0.5j * np.pi / n * np.arange(n // 2 + 1))
    unwind[0] = n
    tables = (order, np.argsort(order), unwind[:, None])
    for x in tables:
        x.setflags(write=False)
    return tables


def _dct_twiddles(n: int, size: int) -> np.ndarray:
    """exp(-i pi j / (2n)) for j = 0..n//2, times ``_Interpolation``'s
    coefficient weight 2 / size, halved at j = 0, as a (n//2 + 1, 1) column."""
    tw = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1)) * (2.0 / size)
    tw[0] *= 0.5
    tw = tw[:, None]
    tw.setflags(write=False)
    return tw


def _dct2(x: np.ndarray, twiddles: np.ndarray, keep: int) -> np.ndarray:
    """Terms j < ``keep`` of the DCT-II sum_l x_l cos(pi j (2l + 1) / (2n))
    along axis -2 of the (..., n, cols) ``x``, each times the weight folded
    into ``twiddles`` (``_dct_twiddles(n, ...)``): one real FFT of the
    reordered values gives term j as Re z_j and term n - j as -Im z_j."""
    n = x.shape[-2]
    half = n // 2 + 1
    z = np.fft.rfft(x[..., _dct_tables(n)[0], :], axis=-2)
    z *= twiddles
    out = np.empty((*x.shape[:-2], keep, x.shape[-1]))
    out[..., : min(keep, half), :] = z.real[..., :keep, :]
    if keep > half:
        np.negative(z.imag[..., n - keep + 1 : (n + 1) // 2, :][..., ::-1, :], out=out[..., half:, :])
    return out


def _dct3(coef: np.ndarray, n: int) -> np.ndarray:
    """The DCT-III y_l = sum_j c_j cos(pi j (2l + 1) / (2n)), l < n, of the
    (..., s, cols) ``coef`` zero-padded to n >= s along axis -2: the
    transpose of the DCT-II, as one inverse real FFT of
    h_j = exp(i pi j / (2n)) (c_j - i c_{n-j}), read back in order."""
    s, half = coef.shape[-2], n // 2 + 1
    h = np.zeros((*coef.shape[:-2], half, coef.shape[-1]), dtype=np.complex128)
    h.real[..., : min(s, half), :] = coef[..., :half, :]
    lo = max(1, n - s + 1)
    if lo < half:
        np.negative(coef[..., n - half + 1 : n - lo + 1, :][..., ::-1, :], out=h.imag[..., lo:, :])
    _, inverse, unwind = _dct_tables(n)
    h *= unwind
    return np.fft.irfft(h, n=n, axis=-2)[..., inverse, :]


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


def tree_probes(model, toggled, nodes, weights, k: int, legs) -> np.ndarray:
    """Node-weighted signed-toggle probes of every k-subset of ``legs`` (the
    sorted 0-based legs a request may toggle) on a binary tree ``model``
    over n features, with ``tt_probes``' arguments, from one up pass, one
    adjoint down pass and, for k >= 2, one stacked up pass on per-node
    point sets (see the section comment).

    ``toggled[i]`` is the (B, d_i) signed toggle of leg i's lifted rows,
    whose bias channel is 1. Entry (b, s) of the returned
    (B, C(len(legs), k)) array is the ``weights``-weighted sum over l of
    instance b's contraction with the legs of the s-th subset (lexicographic
    order) toggled and every other leg selector-scaled at ``nodes[l]``: the
    index itself under quadrature weights, the raw probe at one node of
    weight 1. No (B * m)-row selector-scaled input is built.

    Every pass runs once per level group of ``_tree_schedule`` (same-shape
    nodes of a level), whose cores, stacked as a (G, p, q, r) array that
    the group's up step, down step, merges and closes all read, come from
    ``_tree_inputs``: built on the model's first request of this shape and
    reused by every later one. Messages are point-major: a group's order-0
    up messages and adjoints are (G, points * B, bond) arrays, its order-o
    stacks (G, points * B, C(toggleable leaves under a node, o), bond)
    arrays, so one GEMM takes a block of them to another point set. Which
    orders a group keeps, merges and closes, where the adjoint descends,
    and the permutation to lexicographic order, come from the schedule;
    this pass only runs it. A subtree of pads only sends a constant (bond,)
    vector, which ``_tree_inputs`` folds into its parent's cores. Order-1
    subsets close at their leaves, one call per leaf group, in ``legs``
    order.
    """
    b = toggled[0].shape[0]
    L = _tree_leaf_count(model.n)
    key = _plan_key(nodes)
    points = _tree_plan(model.n, key)[0]
    (levels, _, perm), stacked, folds, flips = _tree_inputs(model, legs, k, key)
    # each leaf group's toggled leaf messages, (G, B, bond)
    ons = [_stacked([toggled[v - L] for v in grp[0]]) @ core
           for grp, core in zip(levels[0], stacked[0])]
    # up[d][j]: block j of level d's order-0 up messages at the parents'
    # points, (G, points * B, bond); the root sends none
    up = []
    for d, level in enumerate(levels[:-1]):
        blocks = []
        for i, (grp, _, _, _, left, right, bounds, _) in enumerate(level):
            core, t = stacked[d][i], points[grp[0]]
            if left is None:
                msg = core[:, -1, None, None] + t * ons[i][:, None]
                msg = msg.reshape(len(grp), -1, core.shape[2])
            elif right is None:
                msg = _take(up[d - 1], left) @ folds[d, i]
            else:
                msg = _merge(core, _take(up[d - 1], left), _take(up[d - 1], right))
            blocks += _at_parents(msg, t.shape[0], bounds)
            del msg  # freed before the next group's arrays are built
        up.append(blocks)
    # down[d]: level d's group index -> the weighted adjoint of its nodes' up
    # messages, (G, points * B, bond) at their points. It is built where at
    # least k toggleable leaves lie below the group's nodes and kept only
    # where they close: the toggleable leaves at k = 1, else the groups the
    # schedule closes at; another is handed to ``_descend``, which frees it
    # before the children's adjoints are built
    down = [{} for _ in levels]
    down[-1][0] = np.repeat(weights, b)[None, :, None]
    for d in range(len(levels) - 1, 0, -1):
        # the level below's messages, and its adjoints by block at the parents' points
        below, staged = up[d - 1], [None] * len(up[d - 1])
        for i, (grp, _, _, closes, left, right, _, toggles) in enumerate(levels[d]):
            if i not in down[d] or not any(toggles):
                continue
            adjs = _descend(folds[d, i] if right is None else stacked[d][i],
                            down[d][i] if closes else down[d].pop(i), _take(below, left),
                            None if right is None else _take(below, right), toggles)
            for src, x in zip((left, right), adjs):
                if x is not None:
                    _put(staged, below, src, x)
            del adjs, x
        for i, (*_, bounds, _) in enumerate(levels[d - 1]):
            if staged[bounds[0][2]] is not None:
                down[d - 1][i] = _at_children(staged, bounds)
        below = staged = None
        if k == 1:  # the last use of the level's children's messages
            up[d - 1] = None
    if k == 1:
        return np.concatenate([np.einsum("gfbr,gbr->bg", x.reshape(len(x), -1, b, x.shape[2]),
                                         ons[i]) for i, x in down[0].items()], axis=1)

    def step(below, d, i, grp, keep, ups, pairs, left, right, bounds, toggles) -> list:
        """One group's stacked messages by order, as one dict per block (a
        run of the group with one map) at the parents' points; its closed
        blocks go to ``closed``."""
        core, g, p = stacked[d][i], len(grp), points[grp[0]].shape[0]
        if left is None:
            msg = {}
            if toggles:
                on = ons[i][:, None]
                msg[1] = np.repeat(on, p, axis=1).reshape(g, -1, 1, on.shape[3])
        elif right is None:
            msg = {o: (x.reshape(g, -1, x.shape[3]) @ folds[d, i]).reshape(*x.shape[:3], -1)
                   for o, x in _gather(below, left).items() if o}
        else:
            lchild, rchild = _gather(below, left), _gather(below, right)
            if pairs:
                env = down[d][i].reshape(g, p, b, -1)
                closed.extend(_toggle_close(core, lchild[a], rchild[c], env) for a, c in pairs)
            msg = {o: _stack([_toggle_merge(core, flips.get((d, i)), lchild[a], rchild[c])
                              for a, c in merges], axis=2)
                   for o, merges in ups}
        msg = {o: _at_parents(x, p, bounds) for o, x in msg.items()}
        parts = []
        for at, (lo, hi, j, _) in enumerate(bounds):
            part = {o: x[at] for o, x in msg.items()}
            if keep:
                part[0] = up[d][j].reshape(hi - lo, -1, 1, up[d][j].shape[2])
            parts.append(part)
        return parts

    # each level's blocks of stacked messages, read by the level above
    below, closed = [], []
    for d, level in enumerate(levels):
        below = [part for i, group in enumerate(level) for part in step(below, d, i, *group)]
        down[d] = None  # ``below`` holds the views the level above reads
        if d < len(up):
            up[d] = None
    return np.concatenate(closed, axis=1)[:, perm]


def _tree_inputs(model, legs, k: int, key: bytes) -> tuple:
    """``tree_probes``' inputs that depend on the ``model`` and the request
    shape (``legs``, k, root nodes of bytes ``key``) alone: (schedule,
    stacked, folds, flips). ``schedule`` is ``_tree_schedule``'s;
    ``stacked[d][i]`` is level d's group i's cores, (G, p, q, r) by
    ``_group_cores``; ``folds`` maps a folded group's (d, i) to its cores
    with the pad-only right children's constant messages contracted,
    (G, p, r); ``flips`` maps a group whose left stacks outgrow the right
    ones in a merge to its cores as (G, q, p, r), which ``_toggle_merge``
    reads. A stack of order o under a node with s toggleable leaves holds
    all C(s, o) choices, so the legs give the widths.

    Built, read-only, on the model's first request of the shape and kept
    with the model for every later one, at most as many shapes as
    ``_tree_schedule`` keeps, the oldest dropped first."""
    request = (legs, k, key)
    plan = model._plans.get(request)
    if plan is not None:
        return plan
    schedule = _tree_schedule(legs, model.n, k, tuple(c.shape for c in model.cores), key)
    levels, pads, _ = schedule
    cores, L = model.cores, _tree_leaf_count(model.n)
    # node v of a subtree of pads only -> the constant (bond,) vector it sends up
    const = {}
    for run in pads:
        core = _group_cores(cores, run)
        if run[0] >= L:
            const.update(zip(run, core[:, 0]))
        else:
            const.update(zip(run, np.einsum("gp,gq,gpqr->gr", _stacked([const[2 * v] for v in run]),
                                            _stacked([const[2 * v + 1] for v in run]), core)))

    def inside(v):  # toggleable leaves below node v
        lo, hi = _subtree_leaf_range(v, L)
        return bisect.bisect_left(legs, hi) - bisect.bisect_left(legs, lo)

    stacked = tuple(tuple(_group_cores(cores, grp[0]) for grp in level) for level in levels)
    folds, flips = {}, {}
    for d, level in enumerate(levels):
        for i, (grp, _, ups, _, left, right, *_) in enumerate(level):
            if left is None:
                continue
            if right is None:
                folds[d, i] = np.einsum("gpqr,gq->gpr", stacked[d][i],
                                        _stacked([const[2 * v + 1] for v in grp]))
            elif any(math.comb(inside(2 * grp[0]), a) > math.comb(inside(2 * grp[0] + 1), c)
                     for _, merges in ups for a, c in merges):
                flips[d, i] = np.ascontiguousarray(stacked[d][i].transpose(0, 2, 1, 3))
    for x in (*(c for level in stacked for c in level), *folds.values(), *flips.values()):
        x.setflags(write=False)
    plan = (schedule, stacked, folds, flips)
    with model._plans_lock:
        model._plans.pop(request, None)
        while len(model._plans) >= _tree_schedule.cache_parameters()["maxsize"]:
            del model._plans[next(iter(model._plans))]
        model._plans[request] = plan
    return plan


def _group_cores(cores, grp) -> np.ndarray:
    """The cores of the consecutive nodes ``grp`` (a range) stacked along a
    leading group axis, as ``_node_core`` gives them; one core is a view."""
    if len(grp) == 1:
        return _node_core(cores, grp[0])[None]
    return np.array(cores[grp.start - 1 : grp.stop - 1])


def _stacked(arrays) -> np.ndarray:
    """Same-shape arrays along a new leading group axis; one array is a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _merge(core, left, right) -> np.ndarray:
    """Contract row-aligned (G, N, p) and (G, N, q) messages through the
    (G, p, q, r) stacked ``core`` into (G, N, r): the order-0 up step,
    ``_toggle_merge`` with one choice on each side less its 5-D reshapes."""
    g, rows, p = left.shape
    q, r = core.shape[2:]
    tmp = (left @ core.reshape(g, p, q * r)).reshape(g, rows, q, r)
    return (right[:, :, None] @ tmp)[:, :, 0]


def _descend(core, env, left, right, need) -> list:
    """The (G, N, p) and (G, N, q) adjoints of the left and right children's
    up messages ``left`` and ``right`` from the (G, N, r) adjoint ``env`` of
    the (G, p, q, r) stacked ``core``'s output, each None unless ``need``
    says the pass descends to it; a folded group passes its (G, p, r) folded
    core and no right messages. The adjoint goes into the core first, one
    GEMM for both children, and is dropped there, so an ``env`` handed over
    is freed before the children's adjoints are built; at r = 1 (the root)
    each child's adjoint is one GEMV instead."""
    if right is None:
        return [env @ core.transpose(0, 2, 1), None]
    g, rows, r = env.shape
    p, q = core.shape[1:3]
    if r == 1:
        mat = core[..., 0]
        return [(right @ mat.transpose(0, 2, 1)) * env if need[0] else None,
                (left @ mat) * env if need[1] else None]
    adj = (env @ core.reshape(g, p * q, r).transpose(0, 2, 1)).reshape(g, rows, p, q)
    del env
    return [(adj @ right[..., None])[..., 0] if need[0] else None,
            (left[:, :, None] @ adj)[:, :, 0] if need[1] else None]


def _take(blocks, src) -> np.ndarray:
    """A group's left or right children's (G, ...) arrays, from the level
    below's ``blocks`` at the (block index, slice) pairs ``src`` (slice None:
    the whole block): a view when one block holds them all."""
    if len(src) == 1:
        i, part = src[0]
        return blocks[i] if part is None else blocks[i][part]
    return np.concatenate([blocks[i] if part is None else blocks[i][part] for i, part in src])


def _put(staged, blocks, src, x) -> None:
    """Place a group's children's (G, ...) arrays ``x`` in the level below's
    ``staged`` blocks at the (block index, slice) pairs ``src``: as the
    block when it is theirs alone, else copied in, allocating a block like
    ``blocks``' on first use."""
    if len(src) == 1 and src[0][1] is None:
        staged[src[0][0]] = x
        return
    at = 0
    for i, part in src:
        if staged[i] is None:
            staged[i] = np.empty_like(blocks[i])
        dest = staged[i] if part is None else staged[i][part]
        dest[...] = x[at : at + len(dest)]
        at += len(dest)


def _gather(blocks, src) -> dict:
    """``_take`` by order, from the level below's blocks of stacks by order."""
    return {o: _take({i: blocks[i][o] for i, _ in src}, src) for o in blocks[src[0][0]]}


def _at_parents(x, points: int, bounds) -> list:
    """A group's (G, points * B, ...) arrays ``x`` by block at the parents'
    points: rows lo:hi of each (lo, hi, index, map) block of ``bounds``
    through its map (None: the parents share its points). A block cut from a
    group of several is copied, as a view would keep the others' own-point
    arrays."""
    if len(bounds) == 1 and bounds[0][3] is None:
        return [x]
    return [x[lo:hi].copy() if to is None else
            to.forward(x[lo:hi].reshape(hi - lo, points, -1)).reshape(hi - lo, -1, *x.shape[2:])
            for lo, hi, _, to in bounds]


def _at_children(staged, bounds) -> np.ndarray:
    """The transpose of ``_at_parents``: a group's (G, points * B, bond)
    adjoints at its own points, from its blocks' adjoints at the parents'
    points in the level's ``staged`` list."""
    if len(bounds) == 1 and bounds[0][3] is None:
        return staged[bounds[0][2]]
    return _stack([staged[j] if to is None else
                   to.adjoint(staged[j].reshape(hi - lo, to.targets.shape[0], -1))
                   .reshape(hi - lo, -1, staged[j].shape[2]) for lo, hi, j, to in bounds], axis=0)


def _toggle_merge(core, flipped, left, right) -> np.ndarray:
    """Contract row-aligned stacks (G, N, a, p) and (G, N, c, q) through the
    (G, p, q, r) stacked ``core`` into (G, N, a * c, r), left choices major.
    The smaller stack goes through the core GEMM, so the 5-D intermediate
    stays small; a larger left stack reads ``flipped``, the core as
    (G, q, p, r), which ``_tree_inputs`` builds once per model and request
    shape."""
    g, rows, a, p = left.shape
    c, q = right.shape[2:]
    r = core.shape[3]
    if a <= c:
        tmp = (left.reshape(g, rows * a, p) @ core.reshape(g, p, q * r)).reshape(g, rows, a, q, r)
        out = tmp.transpose(0, 1, 2, 4, 3).reshape(g, rows, a * r, q) @ right.transpose(0, 1, 3, 2)
        return out.reshape(g, rows, a, r, c).transpose(0, 1, 2, 4, 3).reshape(g, rows, a * c, r)
    tmp = (right.reshape(g, rows * c, q) @ flipped.reshape(g, q, p * r)).reshape(g, rows, c, p, r)
    tmp = tmp.transpose(0, 1, 3, 2, 4).reshape(g, rows, p, c * r)
    return (left @ tmp).reshape(g, rows, a * c, r)


def _toggle_close(core, left, right, env) -> np.ndarray:
    """Close stacks (G, P * B, a, p) and (G, P * B, c, q), point-major,
    through the (G, p, q, r) stacked ``core`` against the nodes' weighted
    (G, P, B, r) adjoints, summed over the P points; returns (B, G * a * c),
    node-major, then left choices major. The adjoint goes into the core
    first, so no (P * B, a * c, r) block is built, and the smaller stack
    meets it first."""
    g, rows, a, p = left.shape
    c, q = right.shape[2:]
    b = env.shape[2]
    adj = (env.reshape(g, rows, -1) @ core.reshape(g, p * q, -1).transpose(0, 2, 1))
    adj = adj.reshape(g, rows, p, q)
    swap = a > c
    if swap:
        left, right, adj, a, c, q = right, left, adj.transpose(0, 1, 3, 2), c, a, p
    tmp = (left @ adj).reshape(g, -1, b, a, q).transpose(2, 0, 3, 1, 4).reshape(b, g, a, -1)
    right = right.reshape(g, -1, b, c, q).transpose(2, 0, 1, 4, 3).reshape(b, g, -1, c)
    out = tmp @ right
    return (out.transpose(0, 1, 3, 2) if swap else out).reshape(b, -1)


# bounded: an explicit subset list adds one entry per distinct leg set
@functools.lru_cache(maxsize=64)
def _tree_schedule(legs, n: int, k: int, shapes, key: bytes) -> tuple:
    """``tree_probes``' passes over the k-subsets of ``legs`` on a tree over
    n features with core ``shapes``, at the point sets of
    ``_tree_plan(n, key)``: (levels, pads, perm).

    ``levels`` lists the tree's levels, leaves first, each as a tuple of
    groups (nodes, keep, ups, closes, left, right, blocks, toggles). A group
    is a run of nodes with points on one level that share a core shape, a
    point set, being folded or not, their stacks' (order, choices) and their
    children's, whether k of the legs lie below them, and these entries.
    ``toggles`` is, on a leaf, whether it is one of the legs (it closes at
    k = 1 and stacks order 1 above), else whether the down pass descends to
    the (left, right) children: k of the legs lie below each. Up to order
    k - 1 a group keeps only the orders that the legs outside each node can
    complete (else k near ``len(legs)`` stacks about 2^inside choices): 0 if
    ``keep``, and each o of ``ups``' (o, (left, right) order pairs merged
    into o); ``closes`` lists the order-k (left, right) order pairs it
    closes. ``blocks`` cuts the run where its map to the parents' points
    changes, as (start, stop, block index, map) entries, the index counting
    the level's blocks and the map None where the parents share the nodes'
    points; the level above reads a level by block. ``left`` and ``right``
    are the (block index, slice) pairs of the level below that hold the
    group's left and right children, in order, with slice None for a block
    of one node (None on a leaf, and ``right`` on a folded group).

    A run is cut where the widest temporary per instance of its nodes' steps
    in any pass (``_step_width``), summed over the group, would pass the
    widest of any one node, so a group builds no array wider than one node
    of the request does; one rule for every order. ``pads`` lists the
    runs of a level's nodes with no real leaf below them that share a core
    shape, leaves first. ``perm`` takes the
    closing order (groups in turn, each close pair over the group's nodes)
    to lexicographic order: it sorts the leg-index rows built from the same
    pairs."""
    L = _tree_leaf_count(n)
    points, maps, _ = _tree_plan(n, key)
    toggleable = set(legs)
    inside, closes = [0] * (2 * L), [()] * (2 * L)
    labels, entry, width = [None] * (2 * L), [None] * (2 * L), [0] * (2 * L)

    def merged(a, b):  # two label blocks' rows, left choices major
        return np.concatenate([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))], axis=1)

    def shape(v):
        return shapes[v - 1] + (1,) if v == 1 else shapes[v - 1]

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
        kids = toggles = folded = None
        if v >= L:
            toggles = inside[v] > 0
        else:
            kids = tuple(_widths(labels[c]) for c in (2 * v, 2 * v + 1))
            toggles = (inside[2 * v] >= k, inside[2 * v + 1] >= k)
            folded = points[2 * v + 1] is None
        entry[v] = (shape(v), id(points[v]), kids, _widths(lab), folded, inside[v] >= k, toggles,
                    (keep, ups, closes[v]))
        width[v] = _step_width(shape(v), points[v].shape[0], maps[v], kids, ups, closes[v],
                               folded, toggles)
    widest = max(width)
    levels, pads, where = [], [], {}
    for depth in range(L.bit_length() - 1, -1, -1):
        runs = []  # [first node, count, summed width]
        for v in range(1 << depth, 2 << depth):
            if entry[v] is None:
                if pads and pads[-1].stop == v and shape(v) == shape(pads[-1].start):
                    pads[-1] = range(pads[-1].start, v + 1)
                else:
                    pads.append(range(v, v + 1))
            elif (runs and runs[-1][0] + runs[-1][1] == v and entry[runs[-1][0]] == entry[v]
                    and runs[-1][2] + width[v] <= widest):
                runs[-1][1] += 1
                runs[-1][2] += width[v]
            else:
                runs.append([v, 1, width[v]])
        level, blocks = [], []
        for first, count, _ in runs:
            grp = range(first, first + count)
            cuts = [i for i in range(1, count) if maps[first + i] is not maps[first + i - 1]]
            bounds = tuple((lo, hi, len(blocks) + j, maps[first + lo])
                           for j, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, count])))
            kids = [_sources(where, range(2 * first + s, 2 * grp.stop, 2)) if first < L else None
                    for s in (0, 1)]
            level.append((grp, *entry[first][-1], *kids, bounds, entry[first][-2]))
            blocks += [grp[lo:hi] for lo, hi, *_ in bounds]
        levels.append(tuple(level))
        where = {v: (i, pos, len(block)) for i, block in enumerate(blocks)
                 for pos, v in enumerate(block)}
    closed = [merged(labels[2 * v][i], labels[2 * v + 1][j])
              for level in levels for grp, _, _, pairs, *_ in level for i, j in pairs for v in grp]
    perm = np.lexsort(np.concatenate(closed).T[::-1]) if closed else None
    if perm is not None:
        perm.setflags(write=False)
    return tuple(levels), tuple(pads), perm


def _widths(labels) -> tuple:
    """(order, choices) of a node's stacks, from its label blocks."""
    return tuple((o, len(x)) for o, x in labels.items())


def _sources(where, kids):
    """(block index, slice) pairs of the level below that hold ``kids`` in
    order, from ``where``'s node -> (block index, position, block size) map,
    with slice None for a block of one node; None when the kids are pads
    only."""
    runs = []
    for c in kids:
        if c not in where:
            return None
        i, pos, size = where[c]
        if runs and runs[-1][0] == i:
            runs[-1][2] = pos + 1
        else:
            runs.append([i, pos, pos + 1, size])
    return tuple((i, None if size == 1 else slice(start, stop, 2)) for i, start, stop, size in runs)


def _step_width(shape, points: int, to_parent, kids, ups, closes, folded, toggles) -> int:
    """Float64 entries per instance of the widest array one node's steps in
    ``tree_probes``' passes build. A leaf's is its message, or order-1
    stack, at its parent's points. Another node's are its inputs, its up
    message at its own and its parent's points (``to_parent`` is its map, or
    None) with the up GEMM's (q, r) product, the down step's (p, q) adjoint
    where it descends to a child (``toggles``) and r > 1, and the merge and
    close products of ``_toggle_merge`` and ``_toggle_close``. ``kids`` gives
    the (order, choices) of the children's stacks. A ``folded`` node's one
    GEMM per order is bounded by its merges'."""
    P, r = points, shape[-1]
    P_up = P if to_parent is None else to_parent.targets.shape[0]
    if kids is None:
        return P_up * r
    p, q = shape[:2]
    wl, wr = dict(kids[0]), dict(kids[1])
    sizes = [P * p * max(wl.values(), default=1), P * q * max(wr.values(), default=1),
             P * r * (1 if folded else q), P_up * r]
    if any(toggles):
        sizes.append(P * (p if folded else max(p, q) if r == 1 else p * q))
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
    core = _node_core(cores, v)
    merged = _toggle_merge(core[None], core.transpose(1, 0, 2)[None], ml[None, None],
                           mr[None, None])
    return merged.reshape(ml.shape[0] * mr.shape[0], -1)
