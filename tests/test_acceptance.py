"""Acceptance criteria: one test per criterion, one printed PASS/FAIL line each.

The suite exercises the library end to end: exact agreement between the
probe-interpolation path and 2^n enumeration, the forward-count accounting,
mode equivalence, the surrogate-error bound, the game axioms, runtime
scaling, the rank-ablation pattern, the diagonal-probe cross-check, and CLI
determinism.
"""

import itertools
import json
import time

import numpy as np
import pytest

from tnshap import (
    INCLUSION_EXCLUSION,
    SIGNED_TOGGLE,
    FitConfig,
    LiftSpec,
    TensorNetworkModel,
    TnTopology,
    build_training_set,
    chebyshev_nodes,
    diagonal_coefficient_probe,
    enumerate_game,
    eval_quality,
    exact_sii,
    explain,
    fit_student,
    gen_cp_teacher,
    gen_tree_teacher,
    mobius_coefficients,
    quadrature_weights,
    size_grouped_sums,
)
from tnshap.cli import main as cli_main
from tnshap.fit import _diagonal_train
from tnshap.oracle import flat_probes

VERIFY_TOL = 1e-7


def report(criterion, ok, detail):
    line = f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _suite_teachers():
    """50 random teachers: CP and tree kinds over n in {4,6,8,10,12} and
    ranks {1,3,8}, each with 10 random instances."""
    combos = [
        (n, rank, kind)
        for n in (4, 6, 8, 10, 12)
        for rank in (1, 3, 8)
        for kind in ("cp", "tree")
    ]
    suite = []
    for idx in range(50):
        n, rank, kind = combos[idx % len(combos)]
        seed = 100 + idx
        if kind == "cp":
            model, lifts = gen_cp_teacher(n, rank, seed=seed)
        else:
            model, lifts = gen_tree_teacher(n, rank, seed=seed)
        instances = np.random.default_rng(seed + 5000).uniform(-1.0, 1.0, (10, n))
        suite.append((model, lifts, instances))
    return suite


@pytest.fixture(scope="module")
def suite():
    return _suite_teachers()


class TestCriterion1OracleExactness:
    def test_interpolation_matches_enumeration(self, suite):
        start = time.perf_counter()
        worst = 0.0
        checked = 0
        for model, lifts, instances in suite:
            for x in instances:
                table = enumerate_game(model, lifts, x)
                for k in (1, 2, 3):
                    if k > model.n:
                        continue
                    truth = exact_sii(table, k)
                    probed = explain(model, lifts, x, k)
                    worst = max(worst, float(np.max(np.abs(truth.values - probed.values))))
                    checked += 1
        elapsed = time.perf_counter() - start
        report(
            "1 (oracle exactness)",
            worst < VERIFY_TOL,
            f"max |interp - enum| = {worst:.3e} over {checked} order-checks "
            f"on 50 teachers, {elapsed:.1f}s",
        )


class TestCriterion2ForwardCounts:
    def test_counter_contracts_exact(self):
        model, lifts = gen_tree_teacher(6, 3, seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, 6)
        n = 6
        failures = []

        def check(label, got, want):
            if got != want:
                failures.append(f"{label}: got {got}, want {want}")

        before = model.forward_count
        aset = explain(model, lifts, x, 1, mode=INCLUSION_EXCLUSION)
        check("k=1 all-features IE", model.forward_count - before, 2 * n * n)
        check("k=1 forwards_used", aset.forwards_used, 2 * n * n)
        for i in range(1, n + 1):
            before = model.forward_count
            explain(model, lifts, x, 1, subsets=[(i,)], mode=INCLUSION_EXCLUSION)
            check(f"k=1 feature {i} IE", model.forward_count - before, 2 * n)
        for k in (2, 3):
            subset = tuple(range(1, k + 1))
            before = model.forward_count
            explain(model, lifts, x, k, subsets=[subset], mode=INCLUSION_EXCLUSION)
            check(f"k={k} per-subset IE", model.forward_count - before,
                  (2**k) * (n - k + 1))
            before = model.forward_count
            explain(model, lifts, x, k, subsets=[subset], mode=SIGNED_TOGGLE)
            check(f"k={k} per-subset ST", model.forward_count - before, n - k + 1)
        before = model.forward_count
        explain(model, lifts, x, 1, mode=SIGNED_TOGGLE)
        check("k=1 all-features ST", model.forward_count - before, n * n)
        report(
            "2 (forward-count contract)",
            not failures,
            "exact integer equality on all Table-style count checks"
            if not failures
            else "; ".join(failures),
        )


class TestCriterion3SignedToggleEquivalence:
    def test_modes_agree_on_suite(self, suite):
        """The probe engine's signed-toggle values against the oracle's flat
        2^k-configuration inclusion-exclusion forwards, integrated with the
        same Fejer weights: the two sides share no probe arithmetic."""
        worst_rel = 0.0
        for model, lifts, instances in suite:
            for k in (1, 2, 3):
                if k > model.n:
                    continue
                subsets = list(itertools.combinations(range(1, model.n + 1), k))
                m = model.n - k + 1
                nodes, weights = chebyshev_nodes(m), quadrature_weights(m)
                for x in instances:
                    a = flat_probes(model, lifts, x, subsets, nodes) @ weights
                    b = explain(model, lifts, x, k, mode=SIGNED_TOGGLE).values
                    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
                    worst_rel = max(worst_rel, float(np.max(np.abs(a - b) / scale)))
        report(
            "3 (signed-toggle equivalence)",
            worst_rel < 1e-9,
            f"max relative mode gap = {worst_rel:.3e}",
        )


class TestCriterion4SurrogateErrorBound:
    def test_two_epsilon_bound_and_k_sii_analog(self):
        rng = np.random.default_rng(2024)
        violations = 0
        pairs = 0
        for trial in range(100):
            n = int(rng.integers(4, 9))
            if trial % 2:
                f_model, lifts = gen_tree_teacher(n, 3, seed=3000 + trial)
            else:
                f_model, lifts = gen_cp_teacher(n, 3, seed=3000 + trial)
            cores = [np.array(c) for c in f_model.cores]
            which = int(rng.integers(0, len(cores)))
            delta = float(rng.uniform(1e-3, 0.3))
            cores[which] = cores[which] + delta * rng.standard_normal(cores[which].shape)
            g_model = TensorNetworkModel(f_model.topology, cores)
            x = rng.uniform(-1, 1, n)
            table_f = enumerate_game(f_model, lifts, x)
            table_g = enumerate_game(g_model, lifts, x)
            eps = float(np.max(np.abs(table_g.values - table_f.values)))
            pairs += 1
            phi_gap = np.max(np.abs(exact_sii(table_g, 1).values - exact_sii(table_f, 1).values))
            if phi_gap > 2 * eps + 1e-12:
                violations += 1
            for k in (2, 3):
                gap = np.max(np.abs(exact_sii(table_g, k).values - exact_sii(table_f, k).values))
                if gap > (2**k) * eps + 1e-12:
                    violations += 1
        report(
            "4 (surrogate error bound)",
            violations == 0,
            f"{violations} violations of |phi_g - phi_f| <= 2^k eps over {pairs} pairs, k=1..3",
        )


def _additive_tt(coeffs):
    """f(x) = sum_i coeffs[i] * x_i as a bond-2 train over binary lifts."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]
    topo = TnTopology("tt", n, (2,) * n, (2,) * (n - 1))
    cores = []
    first = np.zeros((1, 2, 2))
    first[0, 0, 0] = coeffs[0]
    first[0, 1, 1] = 1.0
    cores.append(first)
    for i in range(1, n - 1):
        mid = np.zeros((2, 2, 2))
        mid[0, 1, 0] = 1.0
        mid[1, 0, 0] = coeffs[i]
        mid[1, 1, 1] = 1.0
        cores.append(mid)
    last = np.zeros((2, 2, 1))
    last[0, 1, 0] = 1.0
    last[1, 0, 0] = coeffs[-1]
    cores.append(last)
    return TensorNetworkModel(topo, cores), LiftSpec.binary(n)


class TestCriterion5GameAxioms:
    def test_thousand_randomized_axiom_cases(self):
        rng = np.random.default_rng(55)
        failures = 0

        # 250 efficiency cases: sum of Shapley values = v(N) - v(empty)
        for trial in range(250):
            n = int(rng.integers(3, 9))
            model, lifts = gen_tree_teacher(n, int(rng.integers(1, 5)), seed=4000 + trial)
            x = rng.uniform(-1, 1, n)
            total = explain(model, lifts, x, 1).values.sum()
            lifted = lifts.lift_instance(x)
            off = [np.array([0.0, 1.0])] * n
            if abs(total - (model.forward(lifted) - model.forward(off))) > 1e-8:
                failures += 1

        # 250 dummy cases: a feature with zeroed data channels gets 0 at
        # order 1 and in every order-2 interaction containing it
        for trial in range(250):
            n = int(rng.integers(3, 7))
            base, lifts = gen_tree_teacher(n, 3, seed=4500 + trial)
            cores = [np.array(c) for c in base.cores]
            leaf_idx = len(cores) - base.topology.leaf_count  # first leaf core
            j = int(rng.integers(0, n))
            cores[leaf_idx + j][:-1, :] = 0.0  # zero the data rows of leaf j
            model = TensorNetworkModel(base.topology, cores)
            x = rng.uniform(-1, 1, n)
            phi = explain(model, lifts, x, 1)
            bad = abs(phi.value((j + 1,))) > 1e-9
            pairs = explain(model, lifts, x, 2)
            for subset, val in pairs.entries():
                if (j + 1) in subset and abs(val) > 1e-9:
                    bad = True
            failures += bad

        # 250 symmetry cases: swapping two features' roles permutes values
        for trial in range(250):
            n = int(rng.integers(3, 7))
            lifts = LiftSpec.binary(n)
            draw = np.random.default_rng(5000 + trial)
            factors = [draw.standard_normal((3, 2)) for _ in range(n)]
            i, j = sorted(rng.choice(n, size=2, replace=False))
            swapped = list(factors)
            swapped[i], swapped[j] = factors[j], factors[i]
            model = _diagonal_train(factors, np.ones(3))
            perm_model = _diagonal_train(swapped, np.ones(3))
            x = rng.uniform(-1, 1, n)
            x_perm = np.array(x)
            x_perm[[i, j]] = x_perm[[j, i]]
            phi = explain(model, lifts, x, 1).values
            phi_perm = explain(perm_model, lifts, x_perm, 1).values
            expected = np.array(phi)
            expected[[i, j]] = expected[[j, i]]
            if np.max(np.abs(phi_perm - expected)) > 1e-9:
                failures += 1

        # 250 additive cases: every pairwise interaction is zero
        for trial in range(250):
            n = int(rng.integers(3, 8))
            model, lifts = _additive_tt(rng.standard_normal(n))
            x = rng.uniform(-1, 1, n)
            pairs = explain(model, lifts, x, 2)
            if np.max(np.abs(pairs.values)) > 1e-9:
                failures += 1

        report(
            "5 (game axioms)",
            failures == 0,
            f"{failures} failures over 1000 randomized efficiency/dummy/"
            f"symmetry/additive cases",
        )


class TestCriterion6ScalingTrend:
    def test_bench_monotone_and_near_linear(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = cli_main(["bench", "--dims", "16,32,64,128,256", "--rank", "16",
                       "--repeats", "11", "--seed", "0", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        forwards = [r["forwards_per_instance"] for r in rows]
        medians = [r["median_ms"] for r in rows]
        dims = [r["n"] for r in rows]
        counts_ok = forwards == [2 * n * n for n in dims]
        monotone = all(b > a for a, b in zip(medians, medians[1:]))
        slope = float(np.polyfit(np.log(dims), np.log(medians), 1)[0])
        ok = counts_ok and monotone and 0.7 <= slope <= 1.6
        report(
            "6 (scaling trend)",
            ok,
            f"medians {['%.2f' % m for m in medians]} ms, slope {slope:.2f} "
            f"in [0.7, 1.6]: {0.7 <= slope <= 1.6}, monotone: {monotone}, "
            f"forwards {forwards}",
        )


class TestCriterion7RankAblation:
    def test_rank_pattern_against_rank14_tree_teacher(self):
        start = time.perf_counter()
        teacher, lifts = gen_tree_teacher(8, 14, seed=9)
        center = np.zeros(8)
        test_x = np.random.default_rng(77).uniform(-1, 1, (12, 8))
        results = {}
        for rank in (2, 4, 8, 10):
            config = FitConfig(topology="btree", bond_dim=rank, neighborhood=2048,
                               sigma_frac=1.0, max_sweeps=40, tol=1e-12, seed=3)
            training = build_training_set(teacher, lifts, center, config)
            student, rep = fit_student(training, config, lifts)
            rep = eval_quality(student, teacher, lifts, test_x, (1, 2, 3),
                               base_report=rep)
            results[rank] = rep
        elapsed = time.perf_counter() - start

        problems = []
        for rank in (8, 10):
            rep = results[rank]
            if rep.train_r2 < 0.999:
                problems.append(f"rank {rank} train R2 {rep.train_r2:.4f} < 0.999")
            for k in (1, 2, 3):
                if rep.orders[k].r2 < 0.99:
                    problems.append(f"rank {rank} order-{k} R2 {rep.orders[k].r2:.4f} < 0.99")
        if results[2].orders[3].r2 > 0.95:
            problems.append(f"rank 2 order-3 R2 {results[2].orders[3].r2:.4f} > 0.95")
        train_by_rank = [results[r].train_r2 for r in (2, 4, 8, 10)]
        if any(b < a - 1e-6 for a, b in zip(train_by_rank, train_by_rank[1:])):
            problems.append(f"train R2 not monotone in rank: {train_by_rank}")
        summary = ", ".join(
            f"rank {r}: train {results[r].train_r2:.4f} o3 {results[r].orders[3].r2:.4f}"
            for r in (2, 4, 8, 10)
        )
        report(
            "7 (rank ablation)",
            not problems,
            (summary + f", {elapsed:.0f}s") if not problems else "; ".join(problems),
        )


class TestCriterion8DiagonalProbeCrossCheck:
    def test_interpolated_size_sums_match_mobius(self):
        rng = np.random.default_rng(88)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 13))
            if trial % 2:
                model, lifts = gen_tree_teacher(n, 3, seed=6000 + trial)
            else:
                model, lifts = gen_cp_teacher(n, 3, seed=6000 + trial)
            x = rng.uniform(-1, 1, n)
            probed = diagonal_coefficient_probe(model, lifts, x)
            grouped = size_grouped_sums(mobius_coefficients(enumerate_game(model, lifts, x)))
            worst = max(worst, float(np.max(np.abs(probed - grouped))))
        report(
            "8 (diagonal-probe cross-check)",
            worst < 1e-8,
            f"max |interpolated - grouped Moebius| = {worst:.3e} over 100 models",
        )


WALL_TIME_KEYS = {"wall_time_s", "mean_ms", "std_ms", "median_ms", "times_ms",
                  "phase_wall_times_s"}


def _strip_times(obj):
    if isinstance(obj, dict):
        return {k: _strip_times(v) for k, v in obj.items() if k not in WALL_TIME_KEYS}
    if isinstance(obj, list):
        return [_strip_times(v) for v in obj]
    return obj


class TestCriterion9Determinism:
    def test_every_command_reproduces_identical_data(self, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        teacher = shared / "teacher.json"
        rc = cli_main(["gen", "--kind", "tree", "--n", "4", "--rank", "3",
                       "--seed", "7", "--out", str(teacher)])
        assert rc == 0
        inst = shared / "inst.csv"
        inst.write_text("f1,f2,f3,f4\n0.5,-0.25,0.75,0.1\n0.0,1.0,-1.0,0.5\n")

        def two_runs(name, argv_fn, compare):
            outs = []
            for tag in ("a", "b"):
                outdir = tmp_path / f"{name}_{tag}"
                outdir.mkdir()
                out = outdir / "out"
                rc = cli_main(argv_fn(str(out)))
                assert rc == 0, f"{name} run {tag} failed"
                outs.append(out)
            return compare(outs[0], outs[1])

        def bytes_equal(a, b):
            return a.read_bytes() == b.read_bytes()

        def stripped_json_equal(a, b):
            return _strip_times(json.loads(a.read_text())) == _strip_times(
                json.loads(b.read_text())
            )

        checks = {
            "gen-cp": two_runs(
                "gen_cp",
                lambda out: ["gen", "--kind", "cp", "--n", "6", "--rank", "3",
                             "--seed", "11", "--out", out],
                bytes_equal,
            ),
            "gen-tree": two_runs(
                "gen_tree",
                lambda out: ["gen", "--kind", "tree", "--n", "5", "--rank", "2",
                             "--seed", "12", "--out", out],
                bytes_equal,
            ),
            "fit": two_runs(
                "fit",
                lambda out: ["fit", "--teacher", str(teacher), "--bond-dim", "2",
                             "--neighborhood", "96", "--sigma-frac", "1.0",
                             "--max-sweeps", "8", "--seed", "4", "--out", out],
                lambda a, b: bytes_equal(a, b)
                and stripped_json_equal(
                    a.parent / "out.report.json", b.parent / "out.report.json"
                ),
            ),
            "explain": two_runs(
                "explain",
                lambda out: ["explain", "--model", str(teacher), "--instances",
                             str(inst), "--order", "2", "--out", out],
                bytes_equal,
            ),
            "verify": two_runs(
                "verify",
                lambda out: ["verify", "--model", str(teacher), "--instances",
                             str(inst), "--max-order", "2", "--out", out],
                bytes_equal,
            ),
            "bench": two_runs(
                "bench",
                lambda out: ["bench", "--dims", "10,20", "--rank", "4",
                             "--repeats", "2", "--seed", "3", "--out", out],
                stripped_json_equal,
            ),
            "rank-sweep": two_runs(
                "rank_sweep",
                lambda out: ["rank-sweep", "--teacher", str(teacher), "--ranks",
                             "2,3", "--seeds", "1", "--eval-points", "4",
                             "--neighborhood", "96", "--max-sweeps", "6",
                             "--seed", "2", "--out", out],
                stripped_json_equal,
            ),
        }
        bad = [name for name, ok in checks.items() if not ok]
        report(
            "9 (CLI determinism)",
            not bad,
            "bitwise-identical data outputs for "
            + ", ".join(checks) if not bad else "nondeterministic: " + ", ".join(bad),
        )
