"""Teacher generation, training-set construction, ALS fitting, quality metrics."""

import json

import numpy as np
import pytest

from conftest import tree_down_messages, tt_left_states
from tnshap import (
    FitConfig,
    LiftSpec,
    build_training_set,
    cut_rank,
    eval_quality,
    fit_student,
    gen_cp_teacher,
    gen_tree_teacher,
    materialize_full,
)
from tnshap import fit as fit_mod
from tnshap.attribute import chebyshev_nodes
from tnshap.fit import (
    FitReport,
    OrderQuality,
    _chol_inv,
    _diagonal_train,
    _khatri_rao,
    _normal_equations,
    _solve_core,
    rank_sweep,
)
from tnshap.lift import BINARY, FOURIER, POLY, FeatureMap, off_state
from tnshap.tensor_net import (
    TnTopology,
    _subtree_leaf_range,
    capped_uniform_bonds,
    tree_up_messages,
    tt_right_states,
)


def _structured_loop_reference(lifts, center, nodes):
    """The structured block built row by row: for every feature i, node t
    and state (on, off), leg i holds the state and every other leg the
    lifted center with its data channels scaled by t."""
    n = lifts.n
    lifted = lifts.lift_instance(center)
    legs = [np.empty((2 * n * len(nodes), d)) for d in lifts.dims]
    row = 0
    for i in range(n):
        for t in nodes:
            for state in (lifted[i], off_state(lifts.dims[i])):
                for r in range(n):
                    if r == i:
                        legs[r][row] = state
                    else:
                        vec = lifted[r].copy()
                        vec[:-1] *= t
                        legs[r][row] = vec
                row += 1
    return legs


def _reference_sweep(topo, cores, legs, y):
    """One ALS sweep in the library's visit order (a train left to right; a
    tree's root, then its non-pad nodes depth first, left child first) with
    every environment contracted from scratch and every core solved by
    lstsq on the raw design."""
    def solve(factors, shape):
        return np.linalg.lstsq(_khatri_rao(factors), y, rcond=None)[0].reshape(shape)

    if topo.kind == "tt":
        for j in range(topo.n):
            left = tt_left_states(cores, legs)[j]
            right = tt_right_states(cores, legs)[j + 1]
            cores[j] = solve([left, legs[j], right], cores[j].shape)
        return
    L = topo.leaf_count

    def preorder(v):
        if _subtree_leaf_range(v, L)[0] >= topo.n:
            return []
        return [v] if v >= L else [v] + preorder(2 * v) + preorder(2 * v + 1)

    for v in [1] + preorder(2) + preorder(3):
        up = tree_up_messages(topo, cores, legs)
        down = tree_down_messages(topo, cores, up)
        if v == 1:
            factors = [up[2], up[3]]
        elif v >= L:
            factors = [legs[v - L], down[v]]
        else:
            factors = [up[2 * v], up[2 * v + 1], down[v]]
        cores[v - 1] = solve(factors, cores[v - 1].shape)


def _conditioned(rng, rows, width, cond):
    """A (rows, width) matrix with singular values spread over [1/cond, 1]."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, width)))
    v, _ = np.linalg.qr(rng.standard_normal((width, width)))
    return (u * np.logspace(0, -np.log10(cond), width)) @ v.T


class TestDiagonalTrain:
    def test_bias_only_factors_give_constant(self):
        factors = [np.array([[0.0, 2.0]]), np.array([[0.0, 0.5]])]
        model = _diagonal_train(factors, np.array([1.0]))
        lifts = LiftSpec.binary(2)
        for x in ([0.0, 0.0], [3.0, -1.0]):
            assert model.forward(lifts.lift_instance(x)) == pytest.approx(1.0)

    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_cp_sum(self, rng, n, rank):
        """The train computes sum_r w_r prod_i <f_i[r], x_i> on lifted rows."""
        lifts = LiftSpec.binary(n)
        factors = [rng.standard_normal((rank, d)) for d in lifts.dims]
        weights = rng.standard_normal(rank)
        model = _diagonal_train(factors, weights)
        legs = lifts.lift_rows(rng.uniform(-1, 1, (10, n)))
        reads = np.stack([np.einsum("rd,bd->br", f, x) for f, x in zip(factors, legs)])
        want = np.einsum("r,br->b", weights, reads.prod(axis=0))
        np.testing.assert_allclose(model.forward_batch(legs), want, rtol=1e-12)


class TestTeacherGenerators:
    @pytest.mark.parametrize("gen", [gen_cp_teacher, gen_tree_teacher], ids=["cp", "tree"])
    def test_seed_determinism(self, gen):
        a, _ = gen(6, 4, seed=9)
        b, _ = gen(6, 4, seed=9)
        assert [c.tobytes() for c in a.cores] == [c.tobytes() for c in b.cores]

    @pytest.mark.parametrize("gen,rank,seed,needle", [
        (gen_cp_teacher, 2.5, 0, "rank must be an integer, got 2.5"),
        (gen_cp_teacher, 2, True, "seed must be an integer, got True"),
        (gen_tree_teacher, 2, True, "seed must be an integer, got True"),
    ], ids=["cp-rank-2.5", "cp-seed-True", "tree-seed-True"])
    def test_non_integral_rank_or_seed_refused(self, gen, rank, seed, needle):
        with pytest.raises(ValueError, match=f"^{needle}$"):
            gen(4, rank, seed=seed)

    @pytest.mark.parametrize("gen", [gen_cp_teacher, gen_tree_teacher], ids=["cp", "tree"])
    def test_output_scale_normalized(self, rng, gen):
        teacher, lifts = gen(6, 4, seed=1)
        raw = rng.uniform(-1, 1, (2000, 6))
        legs = [m.apply_batch(raw[:, i]) for i, m in enumerate(lifts.maps)]
        assert 0.5 < np.std(teacher.forward_batch(legs)) < 2.0


class TestTreeTeacher:
    def test_bond_one_is_product_form(self):
        """A bond-1 tree factorizes: every matricization has rank 1."""
        teacher, _ = gen_tree_teacher(4, 1, seed=0)
        dense = materialize_full(teacher).reshape(4, 4)
        s = np.linalg.svd(dense, compute_uv=False)
        assert s[1] < 1e-12 * s[0]

    def test_cut_rank_equals_requested_bond(self):
        teacher, _ = gen_tree_teacher(4, 3, seed=1)
        assert cut_rank(teacher.topology) == 3
        teacher16, _ = gen_tree_teacher(10, 16, seed=1)
        assert cut_rank(teacher16.topology) == 16


class TestTrainingSet:
    def test_budget_n8_m100(self):
        """100 neighborhood rows + 2 n^2 structured rows = 228 teacher calls."""
        teacher, lifts = gen_tree_teacher(8, 3, seed=0)
        config = FitConfig(neighborhood=100, seed=1)
        before = teacher.forward_count
        training = build_training_set(teacher, lifts, np.zeros(8), config)
        assert training.rows == 228
        assert teacher.forward_count - before == 228

    def test_zero_neighborhood_gives_structured_only(self):
        teacher, lifts = gen_tree_teacher(4, 2, seed=0)
        training = build_training_set(teacher, lifts, np.zeros(4), FitConfig(neighborhood=0))
        assert training.rows == 2 * 4 * 4

    def test_targets_match_manual_teacher_calls(self, rng):
        teacher, lifts = gen_cp_teacher(3, 2, seed=6)
        config = FitConfig(neighborhood=5, seed=2)
        training = build_training_set(teacher, lifts, np.zeros(3), config)
        for row in (0, 4, 7, training.rows - 1):
            legs = [training.legs[i][row] for i in range(3)]
            assert teacher.forward(legs) == pytest.approx(training.targets[row])

    @pytest.mark.parametrize("maps", [
        [FeatureMap(BINARY)] * 6,
        [FeatureMap(BINARY)],
        [FeatureMap(POLY, k=3), FeatureMap(BINARY), FeatureMap(FOURIER, k=2)],
    ])
    def test_structured_block_bitwise_matches_loop(self, rng, maps):
        lifts = LiftSpec(maps)
        n = lifts.n
        teacher = _diagonal_train([rng.standard_normal((3, d)) for d in lifts.dims], np.ones(3))
        config = FitConfig(neighborhood=7, seed=4)
        center = rng.uniform(-1, 1, n)
        training = build_training_set(teacher, lifts, center, config)
        ref = _structured_loop_reference(lifts, center, chebyshev_nodes(n))
        for leg, want in zip(training.legs, ref):
            assert leg[7:].tobytes() == want.tobytes()
        legs = [np.concatenate([leg[:7], want]) for leg, want in zip(training.legs, ref)]
        assert training.targets.tobytes() == teacher.forward_batch(legs).tobytes()

    def test_seed_determinism(self):
        teacher, lifts = gen_tree_teacher(4, 2, seed=0)
        a = build_training_set(teacher, lifts, np.zeros(4), FitConfig(neighborhood=20, seed=5))
        b = build_training_set(teacher, lifts, np.zeros(4), FitConfig(neighborhood=20, seed=5))
        np.testing.assert_array_equal(a.targets, b.targets)


class TestFitStudent:
    def _fit(self, teacher, lifts, rank, seed=3, neighborhood=512, topology="btree",
             max_sweeps=30):
        config = FitConfig(topology=topology, bond_dim=rank, neighborhood=neighborhood,
                           sigma_frac=1.0, max_sweeps=max_sweeps, tol=1e-12, seed=seed)
        training = build_training_set(teacher, lifts, np.zeros(teacher.n), config)
        return fit_student(training, config, lifts), config

    def test_representable_teacher_recovered(self):
        """Same topology, student bond >= teacher bond: near-perfect fit and
        attribution fidelity at orders 1..3."""
        teacher, lifts = gen_tree_teacher(6, 3, seed=2)
        (student, report), _ = self._fit(teacher, lifts, rank=4)
        assert report.train_r2 >= 0.999
        rng = np.random.default_rng(0)
        report = eval_quality(student, teacher, lifts, rng.uniform(-1, 1, (8, 6)),
                              orders=(1, 2, 3), base_report=report)
        for k in (1, 2, 3):
            assert report.orders[k].r2 >= 0.99

    def test_constant_teacher_r2_one_by_convention(self):
        factors = [np.array([[0.0, 1.0]])] * 3
        teacher = _diagonal_train(factors, np.array([2.0]))
        lifts = LiftSpec.binary(3)
        (student, report), _ = self._fit(teacher, lifts, rank=2, neighborhood=64)
        assert report.train_r2 == 1.0
        assert report.train_mse < 1e-20

    def test_rank2_underfits_rank14_tree(self):
        """Low-rank student against a rich teacher keeps train R^2 visibly
        below 1 (threshold 0.95, not the exact literature decimal)."""
        teacher, lifts = gen_tree_teacher(8, 14, seed=9)
        (student, report), _ = self._fit(teacher, lifts, rank=2, neighborhood=2048,
                                         max_sweeps=40)
        assert report.train_r2 < 0.95

    def test_sweep_mse_monotone(self):
        teacher, lifts = gen_tree_teacher(6, 4, seed=5)
        (student, report), _ = self._fit(teacher, lifts, rank=3, neighborhood=256)
        mse = report.sweep_train_mse
        for earlier, later in zip(mse, mse[1:]):
            assert later <= earlier + 1e-12

    def test_tt_student_on_cp_teacher(self):
        teacher, lifts = gen_cp_teacher(5, 2, seed=8)
        (student, report), _ = self._fit(teacher, lifts, rank=3, topology="tt",
                                         neighborhood=400)
        assert report.train_r2 >= 0.999
        assert student.topology.kind == "tt"

    def test_tree_student_with_pure_dummy_subtree(self):
        """n=5 pads to 8 leaves, so one internal node sits over dummies only;
        its cores stay fixed at 1 while the fit still converges."""
        teacher, lifts = gen_tree_teacher(5, 2, seed=6)
        (student, report), _ = self._fit(teacher, lifts, rank=3, neighborhood=256)
        assert report.train_r2 >= 0.999
        # the dummy leaf cores are untouched ones
        L = student.topology.leaf_count
        for slot in range(5, L):
            np.testing.assert_array_equal(student.cores[L - 1 + slot], np.ones((1, 1)))

    def test_minimal_tree_students(self):
        for n in (1, 2):
            teacher, lifts = gen_tree_teacher(n, 2, seed=n)
            (student, report), _ = self._fit(teacher, lifts, rank=2, neighborhood=64)
            assert report.train_r2 >= 0.999

    def test_determinism_excluding_wall_time(self):
        teacher, lifts = gen_tree_teacher(5, 3, seed=4)
        (s1, r1), _ = self._fit(teacher, lifts, rank=3, neighborhood=128)
        (s2, r2), _ = self._fit(teacher, lifts, rank=3, neighborhood=128)
        assert r1.train_r2 == r2.train_r2
        assert r1.sweep_train_mse == r2.sweep_train_mse
        for c1, c2 in zip(s1.cores, s2.cores):
            np.testing.assert_array_equal(c1, c2)


class TestNormalEquations:
    @pytest.mark.parametrize("widths", [(1,), (3,), (2, 2), (1, 2, 8), (4, 3, 5), (8, 8, 8),
                                        (2, 3, 2, 2)])
    def test_packed_gram_and_rhs_match_dense_design(self, rng, widths):
        rows = 600
        factors = [rng.standard_normal((rows, w)) for w in widths]
        y = rng.standard_normal(rows)
        gram, rhs = _normal_equations(factors, y)
        design = _khatri_rao(factors)
        want_gram, want_rhs = design.T @ design, design.T @ y
        np.testing.assert_array_equal(gram, gram.T)
        assert np.abs(gram - want_gram).max() <= 1e-13 * np.abs(want_gram).max()
        assert np.abs(rhs - want_rhs).max() <= 1e-13 * np.abs(want_rhs).max()

    @pytest.mark.parametrize("size", [1, 31, 32, 33, 100, 512])
    def test_chol_inv_is_the_inverse_cholesky_factor(self, rng, size):
        a = rng.standard_normal((4 * size, size))
        gram = a.T @ a
        want = np.linalg.inv(np.linalg.cholesky(gram))
        np.testing.assert_allclose(_chol_inv(gram), want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_chol_inv_refuses_an_indefinite_schur_complement(self, rng):
        """The leading half is positive definite, the Schur complement of
        the trailing half is -I."""
        h = 40
        a = rng.standard_normal((2 * h, h))
        lead = a.T @ a
        cross = rng.standard_normal((h, h))
        gram = np.block([[lead, cross], [cross.T, cross.T @ np.linalg.solve(lead, cross)
                                         - np.eye(h)]])
        gram = (gram + gram.T) / 2
        np.linalg.cholesky(gram[:h, :h])
        with pytest.raises(np.linalg.LinAlgError):
            _chol_inv(gram)

    def test_rank_deficient_product_of_full_rank_factors_falls_back(self, rng):
        """Rows [1, s] in both factors: each factor has rank 2, their
        Khatri-Rao product has the column s twice."""
        rows = 50
        s = rng.standard_normal(rows)
        a = np.stack([np.ones(rows), s], axis=1)
        y = rng.standard_normal(rows)
        report = FitReport()
        coef = _solve_core(report, [a, a], y, (2, 2))
        ref = np.linalg.lstsq(_khatri_rao([a, a]), y, rcond=None)[0]
        np.testing.assert_array_equal(coef, ref.reshape(2, 2))
        assert (report.fast_solves, report.lstsq_fallbacks,
                report.rank_deficient_solves) == (0, 1, 1)

    def test_solve_never_builds_the_design(self, rng):
        """One (8, 8, 8) core on 2560 rows, its Gram index already cached as
        it is after a fit's first sweep, peaks below the 10.5 MB that its
        (rows, 512) design alone would take."""
        import tracemalloc

        rows, widths = 2560, (8, 8, 8)
        factors = [rng.standard_normal((rows, w)) for w in widths]
        y = rng.standard_normal(rows)
        report = FitReport()
        _solve_core(report, factors, y, widths)
        tracemalloc.start()
        try:
            _solve_core(report, factors, y, widths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.fast_solves == 2
        assert peak < rows * 512 * 8


class TestSolveCore:
    @pytest.mark.parametrize("widths", [(4, 3, 5), (8, 8), (2,), (1, 2, 8)])
    def test_fast_solve_matches_lstsq(self, rng, widths):
        """Factors with condition numbers around 1e3 each: the orthonormalized
        Cholesky solve gives lstsq's fitted values to 1e-8 relative."""
        rows = 600
        factors = [_conditioned(rng, rows, w, 1e3) for w in widths]
        y = rng.standard_normal(rows)
        report = FitReport()
        coef = _solve_core(report, factors, y, widths)
        design = _khatri_rao(factors)
        ref = np.linalg.lstsq(design, y, rcond=None)[0]
        fitted = design @ ref
        got = design @ coef.ravel()
        assert np.linalg.norm(got - fitted) <= 1e-8 * np.linalg.norm(fitted)
        assert (report.fast_solves, report.lstsq_fallbacks,
                report.rank_deficient_solves) == (1, 0, 0)
        assert 1.0 <= report.max_gram_cond <= fit_mod.GRAM_COND_LIMIT

    @pytest.mark.parametrize("degenerate", ["duplicate", "zero"])
    def test_singular_factor_falls_back_to_min_norm_lstsq(self, rng, degenerate):
        rows = 200
        factors = [rng.standard_normal((rows, 3)), rng.standard_normal((rows, 4))]
        bad = factors[1]
        if degenerate == "duplicate":
            bad[:, 2] = bad[:, 0]
        else:
            bad[:, 1] = 0.0
        y = rng.standard_normal(rows)
        report = FitReport()
        coef = _solve_core(report, factors, y, (3, 4))
        ref = np.linalg.lstsq(_khatri_rao(factors), y, rcond=None)[0]
        np.testing.assert_array_equal(coef, ref.reshape(3, 4))
        assert (report.fast_solves, report.lstsq_fallbacks,
                report.rank_deficient_solves) == (0, 1, 1)

    def test_underdetermined_core_falls_back(self, rng):
        factors = [rng.standard_normal((10, 4)), rng.standard_normal((10, 4))]
        y = rng.standard_normal(10)
        report = FitReport()
        coef = _solve_core(report, factors, y, (4, 4))
        ref = np.linalg.lstsq(_khatri_rao(factors), y, rcond=None)[0]
        np.testing.assert_array_equal(coef, ref.reshape(4, 4))
        assert (report.fast_solves, report.lstsq_fallbacks) == (0, 1)

    def test_non_finite_lstsq_takes_the_tikhonov_solve(self, rng, monkeypatch):
        """An lstsq solution that is not finite is replaced by the
        Tikhonov-regularized normal-equation solve, and counted."""
        factors = [rng.standard_normal((10, 4)), rng.standard_normal((10, 4))]
        y = rng.standard_normal(10)
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond: (
            np.full(a.shape[1], np.nan), *lstsq(a, b, rcond=rcond)[1:]))
        report = FitReport()
        coef = _solve_core(report, factors, y, (4, 4))
        design = _khatri_rao(factors)
        gram = design.T @ design
        lam = fit_mod.TIKHONOV_SCALE * (np.trace(gram) / 16 + 1.0)
        want = np.linalg.solve(gram + lam * np.eye(16), design.T @ y)
        np.testing.assert_array_equal(coef, want.reshape(4, 4))
        assert (report.fast_solves, report.lstsq_fallbacks, report.rank_deficient_solves,
                report.tikhonov_fallbacks) == (0, 1, 1, 1)

    def test_linear_algebra_error_falls_back_to_lstsq(self, rng, monkeypatch):
        """A ``LinAlgError`` inside the certified solve leaves it uncertified
        (None), so the core is solved by lstsq."""
        factors = [_conditioned(rng, 200, 3, 10.0), _conditioned(rng, 200, 4, 10.0)]
        y = rng.standard_normal(200)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("factorization failed")

        monkeypatch.setattr(np.linalg, "qr", fail)
        assert fit_mod._certified_solve(FitReport(), factors, y) is None
        report = FitReport()
        coef = _solve_core(report, factors, y, (3, 4))
        ref = np.linalg.lstsq(_khatri_rao(factors), y, rcond=None)[0]
        np.testing.assert_array_equal(coef, ref.reshape(3, 4))
        assert (report.fast_solves, report.lstsq_fallbacks) == (0, 1)

    @pytest.mark.parametrize("topology,n", [("tt", 6), ("btree", 8), ("btree", 5)])
    def test_sweep_matches_from_scratch_reference(self, rng, topology, n):
        """Every core is solved against environments that reflect all the
        cores updated before it in the sweep."""
        teacher, lifts = gen_tree_teacher(n, 4, seed=n)
        config = FitConfig(topology=topology, neighborhood=300, sigma_frac=1.0, seed=1)
        training = build_training_set(teacher, lifts, np.zeros(n), config)
        topo = TnTopology(topology, n, lifts.dims, capped_uniform_bonds(topology, lifts.dims, 3))
        cores = [rng.standard_normal(shape) for shape in topo.core_shapes()]
        L = topo.leaf_count
        for slot in range(n, L if topology == "btree" else 0):
            cores[L - 1 + slot] = np.ones((1, 1))
        want = [c.copy() for c in cores]
        report = FitReport()
        # one up-message list goes through both tree sweeps, as in fit_student
        up = tree_up_messages(topo, cores, training.legs) if topology == "btree" else None
        for _ in range(2):
            if topology == "tt":
                fit_mod._tt_sweep(topo, cores, training.legs, training.targets, report)
            else:
                fit_mod._tree_sweep(topo, cores, training.legs, training.targets, report, up)
            _reference_sweep(topo, want, training.legs, training.targets)
        assert report.lstsq_fallbacks == 0
        for got, ref in zip(cores, want):
            np.testing.assert_allclose(got, ref, rtol=1e-7, atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("topology,make", [
        ("tt", lambda: gen_cp_teacher(8, 6, seed=8)),
        ("btree", lambda: gen_tree_teacher(8, 6, seed=5)),
        ("btree", lambda: gen_tree_teacher(5, 4, seed=6)),  # pads to 8 leaves
    ])
    def test_thirty_sweeps_monotone_without_fallbacks(self, topology, make):
        teacher, lifts = make()
        config = FitConfig(topology=topology, bond_dim=3, neighborhood=256, sigma_frac=1.0,
                           max_sweeps=30, tol=-np.inf, seed=2)
        training = build_training_set(teacher, lifts, np.zeros(teacher.n), config)
        _student, report = fit_student(training, config, lifts)
        mse = report.sweep_train_mse
        assert report.sweeps_used == 30
        for earlier, later in zip(mse, mse[1:]):
            assert later <= earlier + 1e-12
        assert report.lstsq_fallbacks == 0
        assert report.fast_solves > 0

    @pytest.mark.parametrize("topology,n,kind", [
        ("tt", 6, BINARY), ("tt", 5, POLY), ("btree", 5, BINARY), ("btree", 1, BINARY),
    ])
    def test_reported_mse_is_the_students_mse(self, topology, n, kind):
        """The MSE taken from the sweep's own state is the fitted student's
        MSE on the training set."""
        lifts = LiftSpec([FeatureMap(kind, 2) for _ in range(n)])
        teacher, lifts = gen_tree_teacher(n, 3, seed=n, lifts=lifts)
        config = FitConfig(topology=topology, bond_dim=2, neighborhood=100, sigma_frac=1.0,
                           max_sweeps=3, tol=-np.inf, seed=4)
        training = build_training_set(teacher, lifts, np.zeros(n), config)
        student, report = fit_student(training, config, lifts)
        pred = student.forward_batch(training.legs)
        mse = float(np.mean((pred - training.targets) ** 2))
        assert report.train_mse == pytest.approx(mse, rel=1e-12)

    def test_tt_student_matches_all_fallback_fit(self, monkeypatch):
        """An underfitting TT student on a CP teacher ends within 1e-7
        relative of the same fit with every core solved by lstsq."""
        teacher, lifts = gen_cp_teacher(6, 5, seed=3)
        config = FitConfig(topology="tt", bond_dim=2, neighborhood=300, sigma_frac=1.0,
                           max_sweeps=10, tol=-np.inf, seed=1)
        training = build_training_set(teacher, lifts, np.zeros(6), config)
        _s, fast = fit_student(training, config, lifts)
        monkeypatch.setattr(fit_mod, "GRAM_COND_LIMIT", 0.0)
        _s, slow = fit_student(training, config, lifts)
        assert fast.lstsq_fallbacks == 0 and slow.fast_solves == 0
        assert slow.lstsq_fallbacks == fast.fast_solves
        assert fast.train_mse > 1e-3
        assert fast.train_mse == pytest.approx(slow.train_mse, rel=1e-7)


class TestEvalQuality:
    def test_student_equals_teacher(self, rng):
        teacher, lifts = gen_tree_teacher(5, 3, seed=1)
        report = eval_quality(teacher, teacher, lifts, rng.uniform(-1, 1, (5, 5)))
        for k in (1, 2, 3):
            assert report.orders[k].r2 == pytest.approx(1.0, abs=1e-12)
            assert report.orders[k].cosine == pytest.approx(1.0, abs=1e-12)
            assert report.orders[k].mse == pytest.approx(0.0, abs=1e-20)

    def test_scaled_student_cosine_one_mse_nonzero(self, rng):
        """Doubling the model doubles every value: cosine 1, nonzero MSE."""
        teacher, lifts = gen_tree_teacher(4, 2, seed=3)
        cores = [np.array(c) for c in teacher.cores]
        cores[0] = cores[0] * 2.0
        from tnshap import TensorNetworkModel

        doubled = TensorNetworkModel(teacher.topology, cores)
        report = eval_quality(doubled, teacher, lifts, rng.uniform(-1, 1, (4, 4)),
                              orders=(1,))
        assert report.orders[1].cosine == pytest.approx(1.0, abs=1e-10)
        assert report.orders[1].mse > 1e-6

    def test_zero_student_cosine_zero(self, rng):
        """A student whose every value is 0 against a teacher whose values
        are not: cosine 0 rather than a division by a zero norm."""
        teacher, lifts = gen_tree_teacher(4, 2, seed=3)
        cores = [np.array(c) for c in teacher.cores]
        cores[0] = cores[0] * 0.0
        from tnshap import TensorNetworkModel

        zero = TensorNetworkModel(teacher.topology, cores)
        report = eval_quality(zero, teacher, lifts, rng.uniform(-1, 1, (4, 4)), orders=(1,))
        assert report.orders[1].cosine == 0.0

    def test_teacher_table_enumerated_once_per_instance(self, rng):
        teacher, lifts = gen_tree_teacher(5, 3, seed=2)
        student, _ = gen_tree_teacher(5, 2, seed=3)
        instances = rng.uniform(-1, 1, (3, 5))
        before = teacher.forward_count
        eval_quality(student, teacher, lifts, instances, orders=(1, 2, 3))
        assert teacher.forward_count - before == 3 * 2**5

    @pytest.mark.parametrize("order", [2.5, True], ids=["2.5", "True"])
    def test_non_integral_order_refused(self, rng, order):
        """An order is not truncated to 2 or read as 1."""
        teacher, lifts = gen_tree_teacher(4, 2, seed=3)
        with pytest.raises(ValueError, match=f"^order k={order!r} is not an integer$"):
            eval_quality(teacher, teacher, lifts, rng.uniform(-1, 1, (2, 4)), orders=(order,))

    def test_zero_variance_truth_flagged(self, rng):
        factors = [np.array([[0.0, 1.0]])] * 3
        teacher = _diagonal_train(factors, np.array([5.0]))
        lifts = LiftSpec.binary(3)
        report = eval_quality(teacher, teacher, lifts,
                              rng.uniform(-1, 1, (3, 3)), orders=(1,))
        assert report.orders[1].r2 is None
        assert not report.orders[1].r2_defined
        assert np.isfinite(report.orders[1].mse)


class TestConfigAndSweep:
    def test_config_json_roundtrip(self):
        config = FitConfig(topology="tt", bond_dim=5, neighborhood=77,
                           sigma_frac=0.25, max_sweeps=11, tol=1e-8, seed=13)
        obj = config.to_json_dict()
        assert list(obj) == ["version", "topology", "bond_dim", "neighborhood",
                             "sigma_frac", "max_sweeps", "tol", "seed"]
        # the report JSON and the manifest's numerical health keep their key
        # orders; the solve-path tallies stay out of the v1 report
        report = FitReport(train_r2=0.5, train_mse=0.25, sweeps_used=1, wall_time_s=0.1,
                           sweep_train_r2=[0.5], sweep_train_mse=[0.25],
                           rank_deficient_solves=2, tikhonov_fallbacks=1,
                           orders={2: OrderQuality(0.9, True, 0.99, 0.01),
                                   1: OrderQuality(None, False, 1.0, 0.0)},
                           fast_solves=7, lstsq_fallbacks=3, max_gram_cond=12.5)
        obj = report.to_json_dict()
        assert list(obj) == ["version", "train_r2", "train_mse", "sweeps_used", "wall_time_s",
                             "sweep_train_r2", "sweep_train_mse", "rank_deficient_solves",
                             "tikhonov_fallbacks", "orders"]
        assert obj["version"] == 1
        assert obj["orders"] == {
            "1": {"r2": None, "r2_defined": False, "cosine": 1.0, "mse": 0.0},
            "2": {"r2": 0.9, "r2_defined": True, "cosine": 0.99, "mse": 0.01},
        }
        assert list(obj["orders"]) == ["1", "2"]
        assert not {"fast_solves", "lstsq_fallbacks", "max_gram_cond"} & set(obj)
        assert list(report.numerical_health().items()) == [
            ("fast_solves", 7), ("lstsq_fallbacks", 3), ("rank_deficient_solves", 2),
            ("tikhonov_fallbacks", 1), ("max_gram_cond", 12.5),
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(bond_dim=0)
        with pytest.raises(ValueError):
            FitConfig(sigma_frac=0.0)
        with pytest.raises(ValueError):
            FitConfig(topology="ring")
        for field, value in [("sigma_frac", np.nan), ("sigma_frac", np.inf),
                             ("sigma_frac", -np.inf), ("tol", np.nan), ("bond_dim", 2.5),
                             ("neighborhood", 1.5), ("max_sweeps", True), ("seed", -1),
                             ("seed", 1.5)]:
            with pytest.raises(ValueError, match=f"^{field} "):
                FitConfig(**{field: value})

    def test_config_numpy_integers_write_as_json_ints(self):
        obj = FitConfig(bond_dim=np.int64(4), seed=np.int64(3)).to_json_dict()
        assert json.loads(json.dumps(obj))["bond_dim"] == 4
        assert type(obj["bond_dim"]) is int and type(obj["seed"]) is int

    def test_sweep_non_integral_rank_fails_only_its_cell(self, rng):
        teacher, lifts = gen_tree_teacher(4, 2, seed=0)
        config = FitConfig(neighborhood=16, sigma_frac=1.0, max_sweeps=2, seed=0)
        cells = rank_sweep(teacher, lifts, np.zeros(4), config, ranks=[2.5, np.int64(2)],
                           seeds=[np.int64(0)], eval_instances=rng.uniform(-1, 1, (2, 4)),
                           orders=(1,))
        assert cells[0]["rank"] == 2.5 and cells[0]["report"] is None
        assert cells[0]["error"] == "ValueError: bond_dim must be an integer, got 2.5"
        assert cells[1]["error"] is None
        assert type(cells[1]["rank"]) is int and type(cells[1]["seed"]) is int

    def test_sweep_isolates_cell_failures(self, rng):
        teacher, lifts = gen_tree_teacher(4, 2, seed=0)
        config = FitConfig(neighborhood=64, sigma_frac=1.0, max_sweeps=5, seed=0)
        cells = rank_sweep(teacher, lifts, np.zeros(4), config, ranks=[0, 2],
                           seeds=[0], eval_instances=rng.uniform(-1, 1, (3, 4)),
                           orders=(1,))
        assert cells[0]["error"] is not None  # rank 0 is invalid
        assert cells[1]["error"] is None
        assert cells[1]["report"].orders[1].r2 is not None

    def test_single_cell_matches_direct_path(self, rng):
        from dataclasses import replace

        teacher, lifts = gen_tree_teacher(4, 2, seed=1)
        config = FitConfig(neighborhood=128, sigma_frac=1.0, max_sweeps=10,
                           tol=1e-12, seed=2)
        eval_x = rng.uniform(-1, 1, (4, 4))
        cells = rank_sweep(teacher, lifts, np.zeros(4), config, ranks=[3], seeds=[2],
                           eval_instances=eval_x, orders=(1, 2))
        cell_config = replace(config, bond_dim=3, seed=2)
        training = build_training_set(teacher, lifts, np.zeros(4), cell_config)
        student, report = fit_student(training, cell_config, lifts)
        report = eval_quality(student, teacher, lifts, eval_x, (1, 2), base_report=report)
        cell = cells[0]["report"]
        assert cell.train_r2 == report.train_r2
        assert cell.orders[1].r2 == report.orders[1].r2
        assert cell.orders[2].r2 == report.orders[2].r2

    def test_sweep_charges_each_training_set_and_table_once(self, rng):
        """A seed's training set is the same at every rank and the teacher's
        exact values are the same in every cell: the teacher is charged
        neighborhood + 2n^2 forwards per seed and 2^n per eval instance, and
        a later cell scores as the direct path does."""
        from dataclasses import replace

        n, neighborhood = 4, 32
        teacher, lifts = gen_tree_teacher(n, 2, seed=3)
        config = FitConfig(neighborhood=neighborhood, sigma_frac=1.0, max_sweeps=4, seed=0)
        eval_x = rng.uniform(-1, 1, (3, n))
        before = teacher.forward_count
        cells = rank_sweep(teacher, lifts, np.zeros(n), config, ranks=[1, 2, 3], seeds=[0, 5],
                           eval_instances=eval_x, orders=(1, 2))
        assert [c["error"] for c in cells] == [None] * 6
        assert teacher.forward_count - before == 2 * (neighborhood + 2 * n * n) + 3 * 2**n
        cell_config = replace(config, bond_dim=3, seed=5)
        training = build_training_set(teacher, lifts, np.zeros(n), cell_config)
        student, report = fit_student(training, cell_config, lifts)
        report = eval_quality(student, teacher, lifts, eval_x, (1, 2), base_report=report)
        assert cells[-1]["report"].to_json_dict() == {**report.to_json_dict(),
                                                      "wall_time_s": cells[-1]["report"].wall_time_s}

    def test_sweep_failure_to_score_lands_in_every_cell(self, rng):
        teacher, lifts = gen_tree_teacher(4, 2, seed=0)
        config = FitConfig(neighborhood=16, sigma_frac=1.0, max_sweeps=2, seed=0)
        cells = rank_sweep(teacher, lifts, np.zeros(4), config, ranks=[1, 2], seeds=[0, 1],
                           eval_instances=rng.uniform(-1, 1, (2, 3)), orders=(1,))
        errors = [c["error"] for c in cells]
        assert len(set(errors)) == 1 and errors[0].startswith("ValueError")
