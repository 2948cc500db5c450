"""Synthetic multilinear teachers and alternating-least-squares students.

Teachers come in two flavors: rank-R CP models (weighted sums of per-feature
linear reads, convertible to an equivalent tensor train) and random tree
tensor networks. Both are output-normalized so random draws have unit-order
magnitude on the [-1, 1]^n cube.

Students are fit by deterministic ALS sweeps: each core is re-solved as an
exact linear least-squares problem against its contracted environment, with
environments kept fresh along the sweep so the training MSE never increases.
The training set mixes a Gaussian neighborhood around a center point with
the structured on/off selector configurations used by the order-1 probes,
evaluated exactly on the (multilinear) teacher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import attribute, oracle
from .attribute import chebyshev_nodes
from .lift import LiftSpec, off_state
from .tensor_net import (
    BTREE,
    TT,
    ForwardCounter,
    TensorNetworkModel,
    TnTopology,
    _contract_batch,
    _subtree_leaf_range,
    capped_uniform_bonds,
)

NORMALIZATION_SAMPLES = 1024
TIKHONOV_SCALE = 1e-10
CONFIG_VERSION = 1
REPORT_VERSION = 1


class CpTeacher:
    """Rank-R CP multilinear map on lifted inputs.

    Evaluates sum_r w_r prod_i <factor[i][r], x_i>; multilinear in every leg
    by construction. Exposes the same forward protocol as a network model.
    """

    def __init__(self, factors, weights) -> None:
        self.factors = tuple(np.ascontiguousarray(f, dtype=np.float64) for f in factors)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        rank = self.weights.shape[0]
        if any(f.shape[0] != rank for f in self.factors):
            raise ValueError("every factor matrix must have `rank` rows")
        self.counter = ForwardCounter()

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def rank(self) -> int:
        return self.weights.shape[0]

    @property
    def phys_dims(self) -> tuple:
        return tuple(f.shape[1] for f in self.factors)

    @property
    def forward_count(self) -> int:
        return self.counter.count

    def forward(self, legs) -> float:
        return float(self.forward_batch([np.asarray(x).reshape(1, -1) for x in legs])[0])

    def forward_batch(self, legs) -> np.ndarray:
        legs = [np.asarray(x, dtype=np.float64) for x in legs]
        if len(legs) != self.n:
            raise ValueError(f"expected {self.n} input legs, got {len(legs)}")
        prod = None
        for i, (x, f) in enumerate(zip(legs, self.factors)):
            if x.shape[1] != f.shape[1]:
                raise ValueError(f"mode {i + 1}: expected length {f.shape[1]}")
            reads = x @ f.T
            prod = reads if prod is None else prod * reads
        self.counter.add(legs[0].shape[0])
        return prod @ self.weights

    def to_tensor_train(self) -> TensorNetworkModel:
        """Equivalent tensor train: diagonal interior cores, weights absorbed
        into the first core."""
        n, rank = self.n, self.rank
        dims = self.phys_dims
        if n == 1:
            core = (self.weights @ self.factors[0]).reshape(1, dims[0], 1)
            topo = TnTopology(TT, 1, dims, ())
            return TensorNetworkModel(topo, [core])
        topo = TnTopology(TT, n, dims, (rank,) * (n - 1))
        cores = []
        first = np.zeros((1, dims[0], rank))
        first[0] = (self.factors[0] * self.weights[:, None]).T
        cores.append(first)
        for i in range(1, n - 1):
            core = np.zeros((rank, dims[i], rank))
            for r in range(rank):
                core[r, :, r] = self.factors[i][r]
            cores.append(core)
        last = np.zeros((rank, dims[-1], 1))
        last[:, :, 0] = self.factors[-1]
        cores.append(last)
        return TensorNetworkModel(topo, cores)


def _normalization_inputs(lifts: LiftSpec, rng) -> list:
    raw = rng.uniform(-1.0, 1.0, size=(NORMALIZATION_SAMPLES, lifts.n))
    return [m.apply_batch(raw[:, i]) for i, m in enumerate(lifts.maps)]


def gen_cp_teacher(n: int, rank: int, seed: int, lifts: LiftSpec | None = None):
    """Random CP teacher with factors ~ N(0,1), output-normalized to unit
    standard deviation over uniform samples of [-1, 1]^n.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    lifts = lifts or LiftSpec.binary(n)
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((rank, d)) for d in lifts.dims]
    teacher = CpTeacher(factors, np.ones(rank))
    legs = _normalization_inputs(lifts, rng)
    std = float(np.std(teacher.forward_batch(legs)))
    if std > 1e-12:
        teacher = CpTeacher(factors, teacher.weights / std)
    return teacher, lifts


def gen_tree_teacher(n: int, bond_dim: int, seed: int, lifts: LiftSpec | None = None):
    """Random balanced-tree teacher with N(0,1) cores (dummy pads fixed to 1),
    output-normalized like ``gen_cp_teacher``."""
    lifts = lifts or LiftSpec.binary(n)
    rng = np.random.default_rng(seed)
    topo = TnTopology(BTREE, n, lifts.dims, capped_uniform_bonds(BTREE, lifts.dims, bond_dim))
    cores = []
    for node, shape in zip(_node_ids(topo), topo.core_shapes()):
        if _is_pure_dummy(topo, node):
            cores.append(np.ones(shape))
        else:
            cores.append(rng.standard_normal(shape) / np.sqrt(shape[-1]))
    legs = _normalization_inputs(lifts, rng)
    out = _contract_batch(topo, cores, legs)
    std = float(np.std(out))
    if std > 1e-12:
        cores[0] = cores[0] / std
    return TensorNetworkModel(topo, cores), lifts


def _node_ids(topo: TnTopology) -> list:
    if topo.kind == TT:
        return list(range(topo.n))
    L = topo.leaf_count
    return [1] if L == 1 else list(range(1, 2 * L))


def _is_pure_dummy(topo: TnTopology, node: int) -> bool:
    if topo.kind == TT:
        return False
    L = topo.leaf_count
    if L == 1:
        return False
    lo, _hi = _subtree_leaf_range(node, L)
    return lo >= topo.n


@dataclass(frozen=True)
class FitConfig:
    """Student fitting configuration (JSON schema version 1)."""

    topology: str = BTREE
    bond_dim: int = 8
    neighborhood: int = 200
    probe_nodes: int | None = None
    sigma_frac: float = 0.1
    max_sweeps: int = 30
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.topology not in (TT, BTREE):
            raise ValueError(f"unknown student topology {self.topology!r}")
        if self.bond_dim < 1:
            raise ValueError("bond_dim must be >= 1")
        if self.neighborhood < 0:
            raise ValueError("neighborhood sample count must be >= 0")
        if self.sigma_frac <= 0:
            raise ValueError("sigma_frac must be > 0")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")

    def to_json_dict(self) -> dict:
        return {
            "version": CONFIG_VERSION,
            "topology": self.topology,
            "bond_dim": self.bond_dim,
            "neighborhood": self.neighborhood,
            "probe_nodes": self.probe_nodes,
            "sigma_frac": self.sigma_frac,
            "max_sweeps": self.max_sweeps,
            "tol": self.tol,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "FitConfig":
        version = obj.get("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValueError(f"unsupported fit config version {version!r}")
        known = {f: obj[f] for f in (
            "topology", "bond_dim", "neighborhood", "probe_nodes",
            "sigma_frac", "max_sweeps", "tol", "seed",
        ) if f in obj}
        return FitConfig(**known)


@dataclass
class TrainingSet:
    """Lifted input configurations with teacher targets."""

    legs: list
    targets: np.ndarray
    neighborhood_rows: int
    structured_rows: int

    @property
    def rows(self) -> int:
        return self.targets.shape[0]


def build_training_set(teacher, lifts: LiftSpec, center, config: FitConfig,
                       feature_std=None) -> TrainingSet:
    """Gaussian neighborhood plus structured on/off probe configurations.

    The neighborhood draws ``config.neighborhood`` raw instances around
    ``center`` with per-feature sigma ``config.sigma_frac * feature_std``.
    The structured block holds, for every feature i and every probe node t,
    the on and off configurations of the order-1 probe at the center (all
    other legs selector-scaled by t), evaluated exactly on the teacher.
    Teacher calls: neighborhood + 2 * n * nodes (2n^2 by default).
    """
    n = lifts.n
    rng = np.random.default_rng(config.seed)
    sigma = np.asarray(feature_std if feature_std is not None else np.ones(n), dtype=np.float64)
    sigma = sigma * config.sigma_frac
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (n,):
        raise ValueError(f"center must have length {n}")

    m_nodes = config.probe_nodes or n
    nodes = chebyshev_nodes(m_nodes)
    raw = center[None, :] + rng.standard_normal((config.neighborhood, n)) * sigma[None, :]
    neighborhood_legs = [m.apply_batch(raw[:, i]) for i, m in enumerate(lifts.maps)]

    lifted_center = lifts.lift_instance(center)
    structured_rows = 2 * n * m_nodes
    structured_legs = [
        np.empty((structured_rows, d)) for d in lifts.dims
    ]
    row = 0
    for i in range(n):
        for t in nodes:
            for state in (lifted_center[i], off_state(lifts.dims[i])):
                for r in range(n):
                    if r == i:
                        structured_legs[r][row] = state
                    else:
                        vec = lifted_center[r].copy()
                        vec[:-1] *= t
                        structured_legs[r][row] = vec
                row += 1

    legs = [
        np.concatenate([nb, st], axis=0)
        for nb, st in zip(neighborhood_legs, structured_legs)
    ]
    targets = teacher.forward_batch(legs)
    return TrainingSet(
        legs=legs,
        targets=targets,
        neighborhood_rows=config.neighborhood,
        structured_rows=structured_rows,
    )


@dataclass
class OrderQuality:
    r2: float | None
    r2_defined: bool
    cosine: float
    mse: float

    def to_json_dict(self) -> dict:
        return {
            "r2": self.r2,
            "r2_defined": self.r2_defined,
            "cosine": self.cosine,
            "mse": self.mse,
        }


@dataclass
class FitReport:
    """Training and attribution-fidelity metrics (JSON schema version 1)."""

    train_r2: float | None = None
    train_mse: float | None = None
    sweeps_used: int = 0
    wall_time_s: float = 0.0
    sweep_train_r2: list = field(default_factory=list)
    sweep_train_mse: list = field(default_factory=list)
    rank_deficient_solves: int = 0
    tikhonov_fallbacks: int = 0
    orders: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "train_r2": self.train_r2,
            "train_mse": self.train_mse,
            "sweeps_used": self.sweeps_used,
            "wall_time_s": self.wall_time_s,
            "sweep_train_r2": list(self.sweep_train_r2),
            "sweep_train_mse": list(self.sweep_train_mse),
            "rank_deficient_solves": self.rank_deficient_solves,
            "tikhonov_fallbacks": self.tikhonov_fallbacks,
            "orders": {str(k): q.to_json_dict() for k, q in sorted(self.orders.items())},
        }


class _SolveStats:
    def __init__(self) -> None:
        self.rank_deficient = 0
        self.tikhonov = 0

    def solve(self, design: np.ndarray, y: np.ndarray) -> np.ndarray:
        sol, _res, rank, _sv = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            self.rank_deficient += 1
        if not np.all(np.isfinite(sol)):
            gram = design.T @ design
            lam = TIKHONOV_SCALE * (np.trace(gram) / gram.shape[0] + 1.0)
            sol = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), design.T @ y)
            self.tikhonov += 1
        return sol


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
    cores = []
    for node, shape in zip(_node_ids(topo), topo.core_shapes()):
        if _is_pure_dummy(topo, node):
            cores.append(np.ones(shape))
        else:
            size = 1
            for s in shape:
                size *= s
            cores.append(rng.standard_normal(shape) / np.sqrt(size))

    y = training.targets
    var = float(np.var(y))
    stats = _SolveStats()
    report = FitReport()
    prev_r2 = float("-inf")
    for _sweep in range(config.max_sweeps):
        if topo.kind == TT:
            _tt_sweep(topo, cores, training.legs, y, stats)
        else:
            _tree_sweep(topo, cores, training.legs, y, stats)
        pred = _contract_batch(topo, cores, training.legs)
        mse = float(np.mean((pred - y) ** 2))
        r2 = _train_r2(mse, var)
        report.sweep_train_mse.append(mse)
        report.sweep_train_r2.append(r2)
        report.sweeps_used += 1
        if r2 - prev_r2 < config.tol:
            break
        prev_r2 = r2

    report.train_mse = report.sweep_train_mse[-1]
    report.train_r2 = report.sweep_train_r2[-1]
    report.rank_deficient_solves = stats.rank_deficient
    report.tikhonov_fallbacks = stats.tikhonov
    report.wall_time_s = time.perf_counter() - start
    return TensorNetworkModel(topo, cores), report


def _tt_sweep(topo, cores, legs, y, stats) -> None:
    from .tensor_net import tt_right_states

    n = topo.n
    rows = y.shape[0]
    right = tt_right_states(cores, legs)
    left = np.ones((rows, 1))
    for j in range(n):
        l, d, r = cores[j].shape
        ld = (left[:, :, None] * legs[j][:, None, :]).reshape(rows, l * d)
        design = (ld[:, :, None] * right[j + 1][:, None, :]).reshape(rows, l * d * r)
        cores[j] = stats.solve(design, y).reshape(l, d, r)
        tmp = (left @ cores[j].reshape(l, d * r)).reshape(rows, d, r)
        left = np.einsum("bdr,bd->br", tmp, legs[j])


def _tree_sweep(topo, cores, legs, y, stats) -> None:
    L = topo.leaf_count
    rows = y.shape[0]
    if L == 1:
        design = legs[0]
        cores[0] = stats.solve(design, y).reshape(topo.core_shapes()[0])
        return

    def leg(j):
        return legs[j] if j < topo.n else np.ones((rows, 1))

    def apply_up(core, ml, mr):
        p, q, r = core.shape
        tmp = (ml @ core.reshape(p, q * r)).reshape(rows, q, r)
        return np.einsum("bqr,bq->br", tmp, mr)

    up = [None] * (2 * L)
    for j in range(L):
        up[L + j] = leg(j) @ cores[L + j - 1]
    for v in range(L - 1, 1, -1):
        up[v] = apply_up(cores[v - 1], up[2 * v], up[2 * v + 1])

    def refresh_up(v):
        if v >= L:
            up[v] = leg(v - L) @ cores[v - 1]
        else:
            up[v] = apply_up(cores[v - 1], up[2 * v], up[2 * v + 1])

    def visit(v, down_v):
        if _is_pure_dummy(topo, v):
            return
        idx = v - 1
        if v >= L:
            j = v - L
            d, b = cores[idx].shape
            design = (legs[j][:, :, None] * down_v[:, None, :]).reshape(rows, d * b)
            cores[idx] = stats.solve(design, y).reshape(d, b)
            refresh_up(v)
            return
        p, q, r = cores[idx].shape
        pq = (up[2 * v][:, :, None] * up[2 * v + 1][:, None, :]).reshape(rows, p * q)
        design = (pq[:, :, None] * down_v[:, None, :]).reshape(rows, p * q * r)
        cores[idx] = stats.solve(design, y).reshape(p, q, r)
        core = cores[idx]
        tmp = (up[2 * v + 1] @ core.transpose(1, 0, 2).reshape(q, p * r)).reshape(rows, p, r)
        visit(2 * v, np.einsum("bpr,br->bp", tmp, down_v))
        refresh_up(2 * v)
        tmp = (up[2 * v] @ core.reshape(p, q * r)).reshape(rows, q, r)
        visit(2 * v + 1, np.einsum("bqr,br->bq", tmp, down_v))
        refresh_up(2 * v + 1)
        refresh_up(v)

    root = cores[0]
    design = (up[2][:, :, None] * up[3][:, None, :]).reshape(rows, -1)
    cores[0] = stats.solve(design, y).reshape(root.shape)
    visit(2, up[3] @ cores[0].T)
    refresh_up(2)
    visit(3, up[2] @ cores[0])
    refresh_up(3)


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

    For each order k, stacks the student's probe-interpolated values and the
    teacher's enumeration-oracle values over all subsets and instances, then
    reports R^2 (flagged undefined on zero-variance truth), cosine, and MSE.
    """
    instances = np.asarray(instances, dtype=np.float64)
    report = base_report if base_report is not None else FitReport()
    for k in orders:
        student_vals = []
        teacher_vals = []
        for x in instances:
            aset = attribute.explain(student, lifts, x, k)
            student_vals.append(aset.values)
            table = oracle.enumerate_game(teacher, lifts, x)
            teacher_vals.append(oracle.exact_sii(table, k).values)
        a = np.concatenate(student_vals)
        b = np.concatenate(teacher_vals)
        mse = float(np.mean((a - b) ** 2))
        var = float(np.var(b))
        if var < 1e-30:
            quality = OrderQuality(r2=None, r2_defined=False, cosine=_cosine(a, b), mse=mse)
        else:
            quality = OrderQuality(
                r2=1.0 - mse / var, r2_defined=True, cosine=_cosine(a, b), mse=mse
            )
        report.orders[int(k)] = quality
    return report


def rank_sweep(teacher, lifts: LiftSpec, center, config: FitConfig, ranks, seeds,
               eval_instances, orders=(1, 2, 3)):
    """Fit students across (rank, seed) cells and score each against the
    teacher; failures are recorded per cell without aborting the sweep."""
    cells = []
    for rank in ranks:
        for seed in seeds:
            try:
                cell_config = replace(config, bond_dim=int(rank), seed=int(seed))
                training = build_training_set(teacher, lifts, center, cell_config)
                student, report = fit_student(training, cell_config, lifts)
                report = eval_quality(
                    student, teacher, lifts, eval_instances, orders, base_report=report
                )
                cells.append({"rank": int(rank), "seed": int(seed),
                              "report": report, "error": None})
            except Exception as exc:  # noqa: BLE001 - sweep isolation is the contract
                cells.append({"rank": int(rank), "seed": int(seed),
                              "report": None, "error": f"{type(exc).__name__}: {exc}"})
    return cells
