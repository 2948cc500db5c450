"""The benchmark workloads: seeded inputs, one timed operation, checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. Inputs (models via ``tnshap gen``, instances
and reference values) are built in ``setup`` from the seed, outside all
timing. ``op`` is the timed unit; ``check`` runs after it, outside the
timer, and never raises for a wrong answer -- it reports it.

Correctness reference. For a subset S of size k every interaction index is
``int_0^1 Q_S(t) dt``, where ``Q_S`` is the signed-toggle probe (legs in S
toggled with ``lift.signed_toggle``, every other data channel scaled by t).
``Q_S`` has degree n - k in t, so Gauss-Legendre with floor((n-k)/2) + 1
nodes integrates it exactly. The reference is built here from
``model.forward_batch`` alone and shares no interpolation code with
``attribute``; its forwards happen in ``setup`` and are kept out of all
counts and timings.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tnshap
from tnshap import attribute, cli, lift, model_io

REL_TOLERANCE = 1e-7
REFERENCE_CHUNK_ROWS = 8192


@dataclass
class Outcome:
    """Check result for one operation."""

    ok: bool
    instances: int = 0
    forwards: int = 0  # spent, read from the model's own counter
    rel_err: float | None = None
    train_r2: float | None = None
    note: str = ""
    warning: str = ""  # a defect in an auxiliary output, reported but not failed


def quadrature_reference(model, lifts, x, k: int, subsets) -> np.ndarray:
    """Order-k indices of one instance by Gauss-Legendre quadrature of Q_S."""
    q = (model.n - k) // 2 + 1
    g, w = np.polynomial.legendre.leggauss(q)
    t = 0.5 * (g + 1.0)
    w = 0.5 * w
    lifted = lifts.lift_instance(x)
    toggled = [lift.signed_toggle(v) for v in lifted]
    scaled = []
    for v in lifted:
        u = np.tile(v, (q, 1))
        u[:, :-1] *= t[:, None]
        scaled.append(u)
    per_chunk = max(1, REFERENCE_CHUNK_ROWS // q)
    out = np.empty(len(subsets))
    for c0 in range(0, len(subsets), per_chunk):
        chunk = subsets[c0 : c0 + per_chunk]
        legs = [np.tile(s, (len(chunk), 1)) for s in scaled]
        for si, subset in enumerate(chunk):
            for feat in subset:
                legs[feat - 1][si * q : (si + 1) * q] = toggled[feat - 1]
        out[c0 : c0 + len(chunk)] = model.forward_batch(legs).reshape(len(chunk), q) @ w
    return out


def rel_error(values, reference) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != reference.shape or not np.all(np.isfinite(values)):
        return math.inf
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(values - reference))) / (scale if scale > 0 else 1.0)


def forwards_contract(n: int, k: int) -> int:
    """Forwards per instance for all k-subsets in the default (auto) mode:
    inclusion-exclusion 2^k (n-k+1) per subset at k = 1, signed toggle
    n-k+1 per subset at k >= 2."""
    per_subset = (n - k + 1) * (2**k if k == 1 else 1)
    return per_subset * math.comb(n, k)


def _gen(kind: str, n: int, rank: int, seed: int, out: Path) -> None:
    argv = ["gen", "--kind", kind, "--n", str(n), "--rank", str(rank),
            "--seed", str(seed), "--out", str(out), "--manifest", str(out) + ".manifest.json"]
    if cli.main(argv) != 0:
        raise RuntimeError(f"tnshap gen failed: {argv}")


def _write_instances(path: Path, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"f{i}" for i in range(1, rows.shape[1] + 1)) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


class Workload:
    """Base: ``model_path`` and ``instances_path`` feed the set-up probe."""

    name = ""
    model_path: Path
    instances_path: Path | None = None

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError


class BulkExplain(Workload):
    """``tnshap explain`` over a seeded instance CSV, k = 1, default workers."""

    name = "bulk-k1"
    N, RANK, ROWS, FILES = 30, 16, 48, 4

    def setup(self) -> None:
        self.model_path = self.workdir / "bulk.json"
        _gen("tree", self.N, self.RANK, self.seed, self.model_path)
        model, lifts = model_io.load_model(self.model_path)
        subsets = [(j,) for j in range(1, self.N + 1)]
        self.files = []
        for f in range(self.FILES):
            rows = self.rng.uniform(-1.0, 1.0, size=(self.ROWS, self.N))
            path = self.workdir / f"instances{f}.csv"
            _write_instances(path, rows)
            ref = np.stack([quadrature_reference(model, lifts, x, 1, subsets) for x in rows])
            self.files.append((path, ref))
        self.instances_path = self.files[0][0]
        self.out = self.workdir / "attributions.csv"
        self.manifest = self.workdir / "explain.manifest.json"
        # The CLI loads its own model; keep a handle on it so the forwards it
        # spends can be read from the model's counter after each call.
        self.loaded = []
        load = model_io.load_model

        def load_and_keep(path):
            pair = load(path)
            self.loaded.append(pair[0])
            return pair

        model_io.load_model = load_and_keep

    def op(self, i: int):
        path, ref = self.files[i % self.FILES]
        self.loaded = []
        argv = ["explain", "--model", str(self.model_path), "--instances", str(path),
                "--order", "1", "--out", str(self.out), "--manifest", str(self.manifest)]
        return cli.main(argv), ref

    def check(self, result) -> Outcome:
        rc, ref = result
        loaded = self.loaded
        if rc != 0:
            return Outcome(False, note=f"explain exit code {rc}")
        with open(self.out, encoding="utf-8") as fh:
            rows = attribute.read_attribution_csv(fh)
        values = np.full(ref.shape, np.nan)
        for iid, order, subset, value, _flag in rows:
            if order == 1 and len(subset) == 1 and 0 <= iid < ref.shape[0]:
                values[iid, subset[0] - 1] = value
        err = rel_error(values, ref) if len(rows) == ref.size else math.inf
        want = forwards_contract(self.N, 1) * self.ROWS
        spent = sum(m.forward_count for m in loaded)
        with open(self.manifest, encoding="utf-8") as fh:
            reported = json.load(fh).get("forward_counts", {}).get("attribution")
        ok = err <= REL_TOLERANCE and spent == want and len(loaded) == 1
        note = "" if spent == want else f"spent {spent} forwards, contract {want}"
        warning = "" if reported == spent else f"manifest reports {reported} forwards, model spent {spent}"
        return Outcome(ok, instances=self.ROWS, forwards=spent, rel_err=err, note=note,
                       warning=warning)


class Requests(Workload):
    """One ``tnshap.explain(model, lifts, x, k)`` per request, all k-subsets."""

    KIND, N, RANK, K, POOL = "", 0, 0, 0, 8

    def setup(self) -> None:
        self.model_path = self.workdir / f"{self.name}.json"
        _gen(self.KIND, self.N, self.RANK, self.seed, self.model_path)
        self.model, self.lifts = model_io.load_model(self.model_path)
        self.pool = self.rng.uniform(-1.0, 1.0, size=(self.POOL, self.N))
        self.instances_path = self.workdir / f"{self.name}.csv"
        _write_instances(self.instances_path, self.pool)
        self.subsets = list(itertools.combinations(range(1, self.N + 1), self.K))
        self.refs = [quadrature_reference(self.model, self.lifts, x, self.K, self.subsets)
                     for x in self.pool]
        self.contract = forwards_contract(self.N, self.K)

    def op(self, i: int):
        before = self.model.forward_count
        res = tnshap.explain(self.model, self.lifts, self.pool[i % self.POOL], self.K)
        return res, self.model.forward_count - before, i % self.POOL

    def check(self, result) -> Outcome:
        res, counted, idx = result
        if tuple(res.subsets) != tuple(self.subsets):
            return Outcome(False, instances=1, rel_err=math.inf, note="subset order differs")
        err = rel_error(res.values, self.refs[idx])
        note = "" if counted == self.contract else f"spent {counted} forwards, contract {self.contract}"
        warning = ("" if res.forwards_used == counted
                   else f"explain reports {res.forwards_used} forwards, model spent {counted}")
        return Outcome(err <= REL_TOLERANCE and counted == self.contract, instances=1,
                       forwards=counted, rel_err=err, note=note, warning=warning)


class PairsK2(Requests):
    """The known-defect case: at n = 50, k = 2 the solve has m = 49 nodes, where
    the seed's Vandermonde factorization is singular and every request fails
    its check (ROADMAP item 1). Not in BENCHMARK.json, whose workloads must
    pass; ``runset.py`` runs it in every set so the defect stays on record."""

    name = "pairs-k2"
    KIND, N, RANK, K = "cp", 50, 8, 2


class PairsK2N40(Requests):
    """The gated TT pair workload: the same flat ``_probe_matrix`` path as
    ``pairs-k2`` at m = 39 nodes, which the seed solves correctly."""

    name = "pairs-k2-n40"
    KIND, N, RANK, K = "cp", 40, 8, 2


class TriplesK3(Requests):
    name = "triples-k3"
    KIND, N, RANK, K = "tree", 24, 16, 3


class FitAls(Workload):
    """``tnshap fit`` of a btree student with a fixed sweep count (tol 0)."""

    name = "fit-als"
    N, RANK, BOND, NEIGHBORHOOD, SWEEPS = 16, 14, 8, 2048, 2

    def setup(self) -> None:
        self.model_path = self.workdir / "teacher.json"
        _gen("tree", self.N, self.RANK, self.seed, self.model_path)
        self.student = self.workdir / "student.json"
        self.report = self.workdir / "student.report.json"
        self.manifest = self.workdir / "fit.manifest.json"
        self.first = None

    def op(self, i: int):
        argv = ["fit", "--teacher", str(self.model_path), "--topology", "btree",
                "--bond-dim", str(self.BOND), "--neighborhood", str(self.NEIGHBORHOOD),
                "--sigma-frac", "1.0", "--max-sweeps", str(self.SWEEPS), "--tol", "0",
                "--seed", str(self.seed), "--out", str(self.student),
                "--report", str(self.report), "--manifest", str(self.manifest)]
        return cli.main(argv)

    def check(self, result) -> Outcome:
        if result != 0:
            return Outcome(False, note=f"fit exit code {result}")
        student = self.student.read_bytes()
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(self.manifest, encoding="utf-8") as fh:
            teacher_calls = json.load(fh).get("forward_counts", {}).get("teacher_calls")
        report.pop("wall_time_s", None)
        if self.first is None:
            self.first = (student, report)
        mse = report.get("sweep_train_mse", [])
        notes = []
        if any(b > a for a, b in zip(mse, mse[1:])):
            notes.append("sweep MSE increased")
        if report.get("sweeps_used") != self.SWEEPS:
            notes.append(f"{report.get('sweeps_used')} sweeps, expected {self.SWEEPS}")
        want = self.NEIGHBORHOOD + 2 * self.N * self.N
        if teacher_calls != want:
            notes.append(f"teacher calls {teacher_calls} != {want}")
        if (student, report) != self.first:
            notes.append("student model or fit report differs from the first fit")
        return Outcome(not notes, train_r2=report.get("train_r2"), note="; ".join(notes))


WORKLOADS = {w.name: w for w in (BulkExplain, PairsK2N40, TriplesK3, FitAls, PairsK2)}
