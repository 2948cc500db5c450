"""Synthetic multilinear teachers and alternating-least-squares students.

Teachers are tensor network models of two kinds: rank-R CP maps (weighted
sums of products of per-feature linear reads) built as their diagonal tensor
train, and random tree tensor networks. Both are output-normalized by one
rule so random draws have unit-order magnitude on the [-1, 1]^n cube.

Students are fit by deterministic ALS sweeps: each core is re-solved as an
exact linear least-squares problem against its contracted environment, with
environments kept fresh along the sweep so the training MSE never increases.
A tree student's up messages are built in one pass per fit and every sweep
keeps them current; a train's suffix states are built once per sweep. Each
sweep returns the student's outputs on the training rows from its own final
state, so the per-sweep MSE needs no further contraction.
A core's design is the row-wise Khatri-Rao product of its environment
factors (a tree node's two child up messages and its down message, a leaf's
leg and down message, a train core's left state, leg and right state). Each
factor is orthonormalized by a thin QR, the problem on the orthonormalized
design is solved by Cholesky normal equations, and the solution is mapped
back by the small R^-1 along each core mode. The normal equations are
contracted from the factors without building the design: the Gram is read
off a packed Gram of the factors' per-row pair products (prod b_i(b_i+1)/2
entries for widths b_i) through an index map cached per width tuple, and
the inverse Cholesky factor L^-1 is built directly by a blocked Cholesky in
matrix products. A solve that cannot be certified (numerically singular R,
failed Cholesky, or a Gram condition bound above ``GRAM_COND_LIMIT``) falls
back to SVD ``lstsq`` on the raw design, the only place the design is
built. The solves add their tallies straight to the ``FitReport`` the fit
returns, the only place they are kept: both paths (``fast_solves``,
``lstsq_fallbacks``), the rank-deficient and Tikhonov fallback solves, and
the largest Gram condition bound seen. The CLI puts all five in the fit
manifest; the v1 report JSON has only the rank-deficient and Tikhonov counts.
The training set mixes a Gaussian neighborhood around a center point with
the 2n^2 on/off configurations of the order-1 probes at the center, laid
out by ``oracle.probe_configurations`` at the nodes ``explain`` integrates
order 1 on, all evaluated exactly on the (multilinear) teacher.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import attribute, oracle
from .attribute import chebyshev_nodes
from .lift import LiftSpec
from .tensor_net import (
    BTREE,
    TT,
    TensorNetworkModel,
    TnTopology,
    _contract_batch,
    _node_core,
    _open_leg1,
    _open_leg2,
    _subtree_leaf_range,
    as_int,
    capped_uniform_bonds,
    tree_up_messages,
    tt_right_states,
)

logger = logging.getLogger("tnshap.fit")

NORMALIZATION_SAMPLES = 1024
TIKHONOV_SCALE = 1e-10
# A core solve on orthonormalized environments is taken when every R factor
# has reciprocal condition above R_RCOND and the Gram's condition bound is
# at most GRAM_COND_LIMIT; otherwise it falls back to lstsq.
R_RCOND = 1e-8
GRAM_COND_LIMIT = 1e10
CONFIG_VERSION = 1
REPORT_VERSION = 1


def _diagonal_train(factors, weights) -> TensorNetworkModel:
    """The tensor train of the rank-R CP map sum_r w_r prod_i <factors[i][r], x_i>
    on lifted inputs, for (R, d_i) factors: diagonal (R, d, R) cores, the last
    one's right leg summed, the weights contracted into the first one's left."""
    rank = len(weights)
    cores = [np.zeros((rank, f.shape[1], rank)) for f in factors]
    for core, f in zip(cores, factors):
        core[np.arange(rank), :, np.arange(rank)] = f
    cores[-1] = cores[-1].sum(axis=2, keepdims=True)
    cores[0] = (weights @ cores[0].reshape(rank, -1)).reshape(1, -1, cores[0].shape[2])
    dims = tuple(f.shape[1] for f in factors)
    return TensorNetworkModel(TnTopology(TT, len(dims), dims, (rank,) * (len(dims) - 1)), cores)


def _output_normalized(model: TensorNetworkModel, lifts: LiftSpec, rng) -> TensorNetworkModel:
    """``model`` with its first core divided by its output standard deviation
    over ``NORMALIZATION_SAMPLES`` uniform rows of [-1, 1]^n drawn from
    ``rng``; unscaled when that deviation is at most 1e-12."""
    legs = lifts.lift_rows(rng.uniform(-1.0, 1.0, size=(NORMALIZATION_SAMPLES, lifts.n)))
    std = float(np.std(_contract_batch(model.topology, model.cores, legs)))
    if not std > 1e-12:
        return model
    return TensorNetworkModel(model.topology, [model.cores[0] / std, *model.cores[1:]])


def gen_cp_teacher(n: int, rank: int, seed: int, lifts: LiftSpec | None = None):
    """Random rank-R CP teacher with factors ~ N(0,1), as its diagonal tensor
    train, output-normalized to unit standard deviation over uniform samples
    of [-1, 1]^n."""
    rank = as_int(rank, "rank")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    lifts = lifts or LiftSpec.binary(n)
    rng = np.random.default_rng(as_int(seed, "seed"))
    factors = [rng.standard_normal((rank, d)) for d in lifts.dims]
    return _output_normalized(_diagonal_train(factors, np.ones(rank)), lifts, rng), lifts


def gen_tree_teacher(n: int, bond_dim: int, seed: int, lifts: LiftSpec | None = None):
    """Random balanced-tree teacher with N(0,1) cores (dummy pads fixed to 1),
    output-normalized like ``gen_cp_teacher``."""
    lifts = lifts or LiftSpec.binary(n)
    rng = np.random.default_rng(as_int(seed, "seed"))
    topo = TnTopology(BTREE, n, lifts.dims, capped_uniform_bonds(BTREE, lifts.dims, bond_dim))
    cores = _init_cores(topo, rng, lambda shape: np.sqrt(shape[-1]))
    return _output_normalized(TensorNetworkModel(topo, cores), lifts, rng), lifts


def _init_cores(topo: TnTopology, rng, scale) -> list:
    """Cores drawn N(0,1) in core order and divided by ``scale(shape)``;
    a tree node over pad leaves only is fixed to ones and takes no draw."""
    return [np.ones(shape) if _is_pure_dummy(topo, idx + 1)
            else rng.standard_normal(shape) / scale(shape)
            for idx, shape in enumerate(topo.core_shapes())]


def _is_pure_dummy(topo: TnTopology, node: int) -> bool:
    if topo.kind == TT:
        return False
    lo, _hi = _subtree_leaf_range(node, topo.leaf_count)
    return lo >= topo.n


@dataclass(frozen=True)
class FitConfig:
    """Student fitting configuration (JSON schema version 1). Every
    validation message starts with the name of the field at fault."""

    topology: str = BTREE
    bond_dim: int = 8
    neighborhood: int = 200
    sigma_frac: float = 0.1
    max_sweeps: int = 30
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.topology not in (TT, BTREE):
            raise ValueError(f"topology must be {TT!r} or {BTREE!r}, got {self.topology!r}")
        for name in ("bond_dim", "neighborhood", "max_sweeps", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.bond_dim < 1:
            raise ValueError("bond_dim must be >= 1")
        if self.neighborhood < 0:
            raise ValueError("neighborhood must be >= 0")
        if not (math.isfinite(self.sigma_frac) and self.sigma_frac > 0):
            raise ValueError(f"sigma_frac must be a finite number > 0, got {self.sigma_frac}")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if math.isnan(self.tol):
            raise ValueError("tol must be a number, got nan")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_json_dict(self) -> dict:
        return {"version": CONFIG_VERSION, **asdict(self)}


@dataclass
class TrainingSet:
    """Lifted input configurations with teacher targets."""

    legs: list
    targets: np.ndarray

    @property
    def rows(self) -> int:
        return self.targets.shape[0]


def build_training_set(teacher, lifts: LiftSpec, center, config: FitConfig) -> TrainingSet:
    """Gaussian neighborhood plus structured on/off probe configurations.

    The neighborhood draws ``config.neighborhood`` raw instances around
    ``center`` with per-feature sigma ``config.sigma_frac``. The structured
    block is ``oracle.probe_configurations`` for the n singletons at the
    n order-1 nodes ``explain`` integrates on: for every feature i and node
    t, the on and off configurations of the order-1 probe at the center (all
    other legs selector-scaled by t). Every row is evaluated exactly on the
    teacher: neighborhood + 2n^2 teacher calls.
    """
    n = lifts.n
    rng = np.random.default_rng(config.seed)
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (n,):
        raise ValueError(f"center must have length {n}")

    raw = center[None, :] + rng.standard_normal((config.neighborhood, n)) * config.sigma_frac
    neighborhood_legs = lifts.lift_rows(raw)
    structured_legs, _signs = oracle.probe_configurations(
        lifts, center, [(i,) for i in range(1, n + 1)], chebyshev_nodes(n))

    legs = [
        np.concatenate([nb, st], axis=0)
        for nb, st in zip(neighborhood_legs, structured_legs)
    ]
    return TrainingSet(legs=legs, targets=teacher.forward_batch(legs))


@dataclass
class OrderQuality:
    r2: float | None
    r2_defined: bool
    cosine: float
    mse: float


# the solve tallies in manifest order, and those the v1 report JSON leaves out
_SOLVE_TALLIES = ("fast_solves", "lstsq_fallbacks", "rank_deficient_solves",
                  "tikhonov_fallbacks", "max_gram_cond")
_MANIFEST_ONLY = ("fast_solves", "lstsq_fallbacks", "max_gram_cond")


@dataclass
class FitReport:
    """Training and attribution-fidelity metrics (JSON schema version 1).

    The core solves add to the solve tallies as they run.
    """

    train_r2: float | None = None
    train_mse: float | None = None
    sweeps_used: int = 0
    wall_time_s: float = 0.0
    sweep_train_r2: list = field(default_factory=list)
    sweep_train_mse: list = field(default_factory=list)
    rank_deficient_solves: int = 0
    tikhonov_fallbacks: int = 0
    orders: dict = field(default_factory=dict)
    fast_solves: int = 0
    lstsq_fallbacks: int = 0
    max_gram_cond: float = 0.0

    def numerical_health(self) -> dict:
        return {name: getattr(self, name) for name in _SOLVE_TALLIES}

    def to_json_dict(self) -> dict:
        out = {"version": REPORT_VERSION, **asdict(self)}
        for name in _MANIFEST_ONLY:
            del out[name]
        out["orders"] = {str(k): out["orders"][k] for k in sorted(out["orders"])}
        return out


def _lstsq_solve(report: FitReport, design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The fallback: SVD least squares on the raw design, with a
    Tikhonov-regularized normal-equation solve if it is not finite."""
    sol, _res, rank, _sv = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        report.rank_deficient_solves += 1
    if not np.all(np.isfinite(sol)):
        gram = design.T @ design
        lam = TIKHONOV_SCALE * (np.trace(gram) / gram.shape[0] + 1.0)
        sol = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), design.T @ y)
        report.tikhonov_fallbacks += 1
    return sol


def _khatri_rao(factors) -> np.ndarray:
    """Row-wise Khatri-Rao product of (rows, b_i) factors, first factor's
    index slowest."""
    rows = factors[0].shape[0]
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, :, None] * f[:, None, :]).reshape(rows, -1)
    return out


def _row_contract(factors, weights: np.ndarray) -> np.ndarray:
    """sum_r w_r f_1[r] (x) ... (x) f_k[r] over the rows of (rows, b_i)
    factors, flattened with the first factor's index slowest: that is
    ``_khatri_rao(factors).T @ weights`` without the (rows, prod b_i)
    product. The last two factors meet in one matrix product per column of
    the weighted Khatri-Rao product of the others."""
    if len(factors) == 1:
        return weights @ factors[0]
    *lead, mid, last = factors
    mid_t = np.ascontiguousarray(mid.T)
    return np.concatenate([(mid_t * w) @ last
                           for w in _khatri_rao([weights[:, None], *lead]).T]).ravel()


def _pair_products(q: np.ndarray) -> np.ndarray:
    """Per-row upper-triangle outer products q[r, j] q[r, l], j <= l, in
    ``np.triu_indices`` order: (rows, b(b+1)/2)."""
    q_t = np.ascontiguousarray(q.T)
    return np.concatenate([q_t[j:] * q_t[j] for j in range(q_t.shape[0])]).T


@functools.lru_cache(maxsize=16)
def _gram_index(widths: tuple) -> np.ndarray:
    """(W, W) map, W = prod(widths), from each entry of the Gram of
    ``_khatri_rao`` of factors of these widths to its entry of the packed
    Gram ``_row_contract(map(_pair_products, factors), ones)``. Read-only:
    every solve of these widths shares it (a fit has a handful of width
    tuples)."""
    index = np.zeros((1, 1), dtype=np.intp)
    for b in widths:
        j, l = np.triu_indices(b)
        pair = np.empty((b, b), dtype=np.intp)
        pair[j, l] = pair[l, j] = np.arange(j.shape[0])
        index = (index[:, None, :, None] * j.shape[0] + pair[None, :, None, :]).reshape(
            index.shape[0] * b, -1)
    index.flags.writeable = False
    return index


def _normal_equations(qs, y: np.ndarray):
    """Gram D^T D and D^T y of the design D = ``_khatri_rao(qs)``, never
    building D: G[(j), (l)] = sum_r prod_i q_i[r, j_i] q_i[r, l_i] is read off
    the packed Gram of the factors' pair products, prod b_i(b_i+1)/2 entries,
    through the cached ``_gram_index``."""
    packed = _row_contract([_pair_products(q) for q in qs], np.ones(y.shape[0]))
    return packed[_gram_index(tuple(q.shape[1] for q in qs))], _row_contract(qs, y)


def _chol_inv(gram: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L of a symmetric positive-definite
    ``gram`` (G = L L^T), by recursive halving so the work is in matrix
    products (numpy has no triangular solve). With L11 L11^T the leading
    half, L21 = G21 L11^-T and L22 L22^T = G22 - L21 L21^T (the Schur
    complement), the off-diagonal block of L^-1 is -L22^-1 L21 L11^-1.
    Raises ``LinAlgError`` when a leading block or a Schur complement is
    not positive definite."""
    n = gram.shape[0]
    if n <= 32:
        return np.linalg.inv(np.linalg.cholesky(gram))
    h = n // 2
    top = _chol_inv(gram[:h, :h])
    low = gram[h:, :h] @ top.T
    bottom = _chol_inv(gram[h:, h:] - low @ low.T)
    out = np.zeros_like(gram)
    out[:h, :h] = top
    out[h:, h:] = bottom
    out[h:, :h] = -(bottom @ low) @ top
    return out


def _solve_core(report: FitReport, factors, y: np.ndarray, shape) -> np.ndarray:
    """Least-squares core whose design is ``_khatri_rao(factors)``.

    Tries ``_certified_solve``; when that cannot certify its solution the
    core falls back to ``_lstsq_solve`` on the raw design, the only place
    the design is built. Each solve adds to ``report``'s tallies.
    """
    sol = _certified_solve(report, factors, y)
    if sol is None:
        report.lstsq_fallbacks += 1
        sol = _lstsq_solve(report, _khatri_rao(factors), y)
    else:
        report.fast_solves += 1
    return sol.reshape(shape)


def _certified_solve(report: FitReport, factors, y: np.ndarray):
    """The minimizer of ||_khatri_rao(factors) c - y||, or None when it
    cannot be certified.

    Each (rows, b_i) environment factor is thin-QR'd, F_i = Q_i R_i. Since
    KR(Q_1 R_1, ..., Q_k R_k) = KR(Q_1, ..., Q_k) (R_1 x ... x R_k), the
    minimizer is the solution z of the well-conditioned problem on the
    orthonormalized design D, mapped back by R_i^-1 along each core mode.
    z comes from the normal equations: the Gram and D^T y are contracted
    from the Q_i by ``_normal_equations`` without building D, and
    ``_chol_inv`` gives the inverse Cholesky factor, so z = L^-T L^-1 D^T y.
    None (uncertified) when the core has more coefficients than rows, an
    R_i is numerically singular (reciprocal condition at most ``R_RCOND``),
    the Cholesky fails, or the Gram's condition bound
    ||G||_F ||L^-1||_F^2 exceeds ``GRAM_COND_LIMIT``; every bound computed
    feeds ``report.max_gram_cond``.
    """
    widths = [f.shape[1] for f in factors]
    if math.prod(widths) > y.shape[0]:
        return None
    try:
        qs, r_invs = [], []
        for f in factors:
            q, r = np.linalg.qr(f)
            sv = np.linalg.svd(r, compute_uv=False)
            if not sv[-1] > R_RCOND * sv[0]:
                return None
            qs.append(q)
            r_invs.append(np.linalg.inv(r))
        gram, rhs = _normal_equations(qs, y)
        chol_inv = _chol_inv(gram)
    except np.linalg.LinAlgError:
        return None
    # ||G||_F ||L^-1||_F^2 bounds the 2-norm condition number of G = L L^T
    cond = float(np.linalg.norm(gram) * np.sum(chol_inv * chol_inv))
    report.max_gram_cond = max(report.max_gram_cond, cond)
    if not cond <= GRAM_COND_LIMIT:
        return None
    coef = (chol_inv.T @ (chol_inv @ rhs)).reshape(widths)
    for axis, r_inv in enumerate(r_invs):
        coef = np.moveaxis(np.tensordot(r_inv, coef, axes=(1, axis)), 0, axis)
    return coef


def _train_r2(mse: float, var: float) -> float:
    if var < 1e-30:
        return 1.0 if mse < 1e-20 else float("-inf")
    return 1.0 - mse / var


def fit_student(training: TrainingSet, config: FitConfig, lifts: LiftSpec):
    """Fit a student network to the training set by ALS sweeps.

    Returns (model, report). Sweeping stops at ``max_sweeps`` or once the
    train R^2 improvement falls below ``tol``.
    """
    start = time.perf_counter()
    n = lifts.n
    dims = lifts.dims
    for leg, d in zip(training.legs, dims):
        if leg.shape[1] != d:
            raise ValueError("training legs do not match the lift dimensions")
    topo = TnTopology(
        config.topology, n, dims, capped_uniform_bonds(config.topology, dims, config.bond_dim)
    )
    rng = np.random.default_rng(config.seed)
    cores = _init_cores(topo, rng, lambda shape: np.sqrt(math.prod(shape)))

    y = training.targets
    var = float(np.var(y))
    report = FitReport()
    prev_r2 = float("-inf")
    # a tree's up messages are built once and kept current by every sweep
    up = None if topo.kind == TT else tree_up_messages(topo, cores, training.legs)
    for sweep in range(config.max_sweeps):
        sweep_start = time.perf_counter()
        fallbacks = report.lstsq_fallbacks
        if topo.kind == TT:
            pred = _tt_sweep(topo, cores, training.legs, y, report)
        else:
            pred = _tree_sweep(topo, cores, training.legs, y, report, up)
        mse = float(np.mean((pred - y) ** 2))
        r2 = _train_r2(mse, var)
        report.sweep_train_mse.append(mse)
        report.sweep_train_r2.append(r2)
        report.sweeps_used += 1
        logger.debug("sweep %d: train MSE %.6e, R^2 %.9f, %d lstsq fallbacks, %.3f s",
                     sweep + 1, mse, r2, report.lstsq_fallbacks - fallbacks,
                     time.perf_counter() - sweep_start)
        if r2 - prev_r2 < config.tol:
            break
        prev_r2 = r2

    report.train_mse = report.sweep_train_mse[-1]
    report.train_r2 = report.sweep_train_r2[-1]
    report.wall_time_s = time.perf_counter() - start
    return TensorNetworkModel(topo, cores), report


def _tt_sweep(topo, cores, legs, y, report) -> np.ndarray:
    """Re-solve every core left to right; returns the swept train's outputs
    on the training rows (its final prefix state)."""
    right = tt_right_states(cores, legs)
    left = np.ones((y.shape[0], 1))
    for j in range(topo.n):
        cores[j] = _solve_core(report, [left, legs[j], right[j + 1]], y, cores[j].shape)
        left = _open_leg2(cores[j], left, legs[j])
    return left[:, 0]


def _tree_sweep(topo, cores, legs, y, report, up) -> np.ndarray:
    """Re-solve every non-pad node depth first from the root, each before its
    subtree. ``up`` holds the tree's up messages on entry and is kept
    current; returns its entry 1, the swept tree's training outputs."""
    L = topo.leaf_count

    def visit(v, down_v):
        # re-solve every core under v, then refresh v's up message
        if _is_pure_dummy(topo, v):
            return
        inputs = [legs[v - L]] if v >= L else [up[2 * v], up[2 * v + 1]]
        # the root's down message is all ones, a factor that would change only
        # the solve's rounding, so it stays out of the root's design
        cores[v - 1] = _solve_core(report, inputs + ([down_v] if v > 1 else []), y,
                                   cores[v - 1].shape)
        core = _node_core(cores, v)
        if v >= L:
            up[v] = inputs[0] @ core
            return
        visit(2 * v, _open_leg1(core.transpose(1, 0, 2), up[2 * v + 1], down_v))
        visit(2 * v + 1, _open_leg1(core, up[2 * v], down_v))
        up[v] = _open_leg2(core, up[2 * v], up[2 * v + 1])

    visit(1, np.ones((y.shape[0], 1)))
    return up[1][:, 0]


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < 1e-15 and nb < 1e-15:
        return 1.0
    if na < 1e-15 or nb < 1e-15:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def eval_quality(student, teacher, lifts: LiftSpec, instances, orders=(1, 2, 3),
                 base_report: FitReport | None = None) -> FitReport:
    """Attribution fidelity of the student against exact teacher values.

    For each order k, stacks the student's probe-quadrature values and the
    teacher's enumeration-oracle values over all subsets and instances, then
    reports R^2 (flagged undefined on zero-variance truth), cosine, and MSE.
    Each instance's 2^n teacher table is enumerated once for all orders.
    """
    instances = np.asarray(instances, dtype=np.float64)
    return _score(student, lifts, instances, _exact_values(teacher, lifts, instances, orders),
                  base_report if base_report is not None else FitReport())


def _exact_values(teacher, lifts: LiftSpec, instances, orders) -> dict:
    """Order k -> the teacher's exact values of every instance, in order."""
    truth = {attribute._check_order(k, lifts.n): [] for k in orders}
    for x in instances:
        table = oracle.enumerate_game(teacher, lifts, x)
        for k, values in truth.items():
            values.append(oracle.exact_sii(table, k).values)
    return {k: np.concatenate(values) for k, values in truth.items()}


def _score(student, lifts: LiftSpec, instances, truth: dict, report: FitReport) -> FitReport:
    """``eval_quality`` against the teacher values ``truth`` holds."""
    for k, b in truth.items():
        a = np.concatenate([attribute.explain(student, lifts, x, k).values for x in instances])
        mse = float(np.mean((a - b) ** 2))
        var = float(np.var(b))
        defined = not var < 1e-30
        report.orders[k] = OrderQuality(r2=1.0 - mse / var if defined else None,
                                        r2_defined=defined, cosine=_cosine(a, b), mse=mse)
    return report


def rank_sweep(teacher, lifts: LiftSpec, center, config: FitConfig, ranks, seeds,
               eval_instances, orders=(1, 2, 3)):
    """Fit students across (rank, seed) cells and score each against the
    teacher; failures, a rank or seed ``FitConfig`` refuses included, are
    recorded per cell without aborting the sweep. A seed's training set and
    the teacher's exact values are computed in the first cell that needs
    them, and again only if that failed."""
    cells, training, truth = [], {}, {}
    for rank in ranks:
        for seed in seeds:
            cell = {"rank": rank, "seed": seed, "error": None, "report": None}
            try:
                cell_config = replace(config, bond_dim=rank, seed=seed)
                cell["rank"], cell["seed"] = cell_config.bond_dim, cell_config.seed
                if seed not in training:
                    training[seed] = build_training_set(teacher, lifts, center, cell_config)
                student, report = fit_student(training[seed], cell_config, lifts)
                truth = truth or _exact_values(teacher, lifts, eval_instances, orders)
                cell["report"] = _score(student, lifts, eval_instances, truth, report)
            except Exception as exc:  # noqa: BLE001 - sweep isolation is the contract
                cell["error"] = f"{type(exc).__name__}: {exc}"
            cells.append(cell)
    return cells
