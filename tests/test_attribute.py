"""Probe-quadrature engine: nodes, weights, probes, explain."""

import inspect
import io
import itertools
import math

import numpy as np
import pytest

from conftest import (
    additive_model,
    brute_shapley,
    brute_sii,
    coalition_value_fn,
    product_model,
    quadrature_weights_reference,
    random_tt_model,
    tree_order1_reference,
)
from tnshap import (
    INCLUSION_EXCLUSION,
    SIGNED_TOGGLE,
    LiftSpec,
    TensorNetworkModel,
    TnTopology,
    chebyshev_nodes,
    enumerate_game,
    exact_sii,
    explain,
    explain_batch,
    gen_cp_teacher,
    gen_tree_teacher,
    probe_value,
    quadrature_weights,
    sii_weights,
    write_attribution_csv,
)
from tnshap import attribute, oracle
from tnshap.lift import off_state, signed_toggle


class TestChebyshevNodes:
    def test_single_node_is_half(self):
        np.testing.assert_allclose(chebyshev_nodes(1), [0.5])

    def test_two_nodes_match_formula(self):
        # independent evaluation of the node formula
        expected = [(1 + math.cos((2 * ell + 1) * math.pi / 4)) / 2 for ell in range(2)]
        np.testing.assert_allclose(chebyshev_nodes(2), expected)
        np.testing.assert_allclose(chebyshev_nodes(2), [0.853553, 0.146447], atol=1e-6)

    def test_symmetry_about_half(self):
        nodes = chebyshev_nodes(4)
        np.testing.assert_allclose(nodes + nodes[::-1], np.ones(4), atol=1e-15)

    def test_strictly_monotone_after_sorting(self):
        nodes = np.sort(chebyshev_nodes(9))
        assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("m", [2.5, 2.0, True], ids=["2.5", "2.0", "True"])
    def test_node_count_that_is_not_an_integer_rejected(self, m):
        with pytest.raises(ValueError, match=f"^node count must be an integer, got {m!r}$"):
            chebyshev_nodes(m)


class TestWeights:
    def test_shapley_n3(self):
        np.testing.assert_allclose(sii_weights(3, 1), [1 / 3, 1 / 6, 1 / 3])

    def test_shapley_n1_n2(self):
        np.testing.assert_allclose(sii_weights(1, 1), [1.0])
        np.testing.assert_allclose(sii_weights(2, 1), [0.5, 0.5])

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20, 50])
    def test_shapley_sum_identity(self, n):
        w = sii_weights(n, 1)
        assert np.all(w > 0)
        total = sum(w[s] * math.comb(n - 1, s) for s in range(n))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_shapley_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sii_weights(0, 1)

    def test_sii_n4_k2(self):
        np.testing.assert_allclose(sii_weights(4, 2), [1 / 3, 1 / 6, 1 / 3])

    def test_sii_k_equals_n(self):
        np.testing.assert_allclose(sii_weights(5, 5), [1.0])

    def test_sii_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            sii_weights(3, 4)

    @pytest.mark.parametrize("n,k", [(True, 1), (3.0, 2), (2.5, 1)])
    def test_feature_count_that_is_not_an_integer_rejected(self, n, k):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            sii_weights(n, k)

    def test_numpy_integer_feature_count_accepted(self):
        np.testing.assert_array_equal(sii_weights(np.int64(3), 1), sii_weights(3, 1))


class TestQuadratureWeights:
    def test_positive_unit_sum_and_exact_on_monomials(self):
        for m in range(1, 121):
            w = quadrature_weights(m)
            t = chebyshev_nodes(m)
            assert w.shape == (m,) and np.all(w > 0)
            assert abs(w.sum() - 1.0) <= 1e-14
            for j in range(m):
                exact = 1.0 / (j + 1)
                assert abs(w @ t**j - exact) <= 1e-14 * exact, (m, j)

    def test_fft_matches_cosine_sum(self):
        """The FFT construction moves the cosine sum's weights in the last
        bits only, at both parities and around powers of two."""
        for m in [*range(1, 257), 511, 512, 1000, 1001, 4095, 4096]:
            gap = np.max(np.abs(quadrature_weights(m) - quadrature_weights_reference(m)))
            assert gap <= 2e-16, (m, gap)

    def test_large_node_count(self):
        m = 2**14
        w, t = quadrature_weights(m), chebyshev_nodes(m)
        assert w.shape == (m,) and np.all(w > 0)
        assert abs(w.sum() - 1.0) <= 1e-13
        for j in range(12):
            exact = 1.0 / (j + 1)
            assert abs(w @ t**j - exact) <= 1e-13 * exact, j

    def test_single_node_weight_is_one(self):
        assert quadrature_weights(1).tolist() == [1.0]

    def test_two_nodes_by_hand(self):
        # Fejer's first rule at m = 2 is the midpoint-symmetric pair 1/2, 1/2
        np.testing.assert_allclose(quadrature_weights(2), [0.5, 0.5], rtol=1e-15)

    def test_read_only(self):
        with pytest.raises(ValueError):
            quadrature_weights(5)[0] = 1.0

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            quadrature_weights(0)

    @pytest.mark.parametrize("m", [2.0, 2.5, True], ids=["2.0", "2.5", "True"])
    def test_node_count_that_is_not_an_integer_rejected(self, m):
        """Weights and nodes share one integer rule, cached counts included:
        2.0 and True are not read as 2 and 1."""
        quadrature_weights(2), quadrature_weights(1)
        for build in (quadrature_weights, chebyshev_nodes):
            with pytest.raises(ValueError, match=f"^node count must be an integer, got {m!r}$"):
                build(m)


class TestProbeValue:
    def test_product_game_single_feature_at_zero(self):
        model, lifts = product_model()
        assert probe_value(model, lifts, [1, 1], (1,), 0.0) == pytest.approx(0.0)

    def test_product_game_pair_is_constant_one(self):
        model, lifts = product_model()
        for t in (0.0, 0.3, 0.9):
            assert probe_value(model, lifts, [1, 1], (1, 2), t) == pytest.approx(1.0)

    def test_constant_model_probes_vanish(self):
        topo = TnTopology("tt", 3, (2,) * 3, (1, 1))
        bias = np.array([[0.0], [1.0]]).reshape(1, 2, 1)
        model = TensorNetworkModel(topo, [bias] * 3)
        lifts = LiftSpec.binary(3)
        for subset in ((1,), (2, 3), (1, 2, 3)):
            assert probe_value(model, lifts, [1, 1, 1], subset, 0.4) == pytest.approx(0.0)

    def test_modes_agree_and_counts(self, rng):
        model, lifts = random_tt_model(rng, 6, bond=3)
        x = rng.uniform(-1, 1, 6)
        for subset in ((2,), (1, 4), (2, 3, 6)):
            before = model.forward_count
            ie = probe_value(model, lifts, x, subset, 0.7, INCLUSION_EXCLUSION)
            assert model.forward_count - before == 2 ** len(subset)
            before = model.forward_count
            st = probe_value(model, lifts, x, subset, 0.7, SIGNED_TOGGLE)
            assert model.forward_count - before == 1
            assert ie == pytest.approx(st, rel=1e-9, abs=1e-12)

    def test_bad_subset_rejected(self, rng):
        model, lifts = random_tt_model(rng, 3)
        with pytest.raises(ValueError):
            probe_value(model, lifts, [0, 0, 0], (0,), 0.5)
        with pytest.raises(ValueError):
            probe_value(model, lifts, [0, 0, 0], (4,), 0.5)

    def test_non_finite_t_rejected(self, rng):
        model, lifts = random_tt_model(rng, 4)
        before = model.forward_count
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                probe_value(model, lifts, [0.1, 0.2, 0.3, 0.4], (1, 3), t)
        assert model.forward_count == before

    @pytest.mark.parametrize("kind,n", [("tt", 6), ("btree", 5)])
    @pytest.mark.parametrize("k,mode", [(1, INCLUSION_EXCLUSION), (2, SIGNED_TOGGLE)])
    def test_value_helper_sums_nodes_with_given_weights(self, rng, kind, n, k, mode):
        """At two nodes with weights (0.25, 0.75) the value helper gives
        0.25 Q(t0) + 0.75 Q(t1) per subset, on a train and on a tree with
        pad leaves (btree n = 5)."""
        model, lifts = _random_model(kind, n, 3, seed=n + k)
        x = rng.uniform(-1, 1, n)
        nodes = np.array([0.3, 0.8])
        got, _ = attribute._probe_values(model, [v[None] for v in lifts.lift_instance(x)],
                                         nodes, np.array([0.25, 0.75]), k, mode, tuple(range(n)))
        subsets = list(itertools.combinations(range(1, n + 1), k))
        want = np.array([0.25 * probe_value(model, lifts, x, s, nodes[0], mode)
                         + 0.75 * probe_value(model, lifts, x, s, nodes[1], mode)
                         for s in subsets])
        assert got.shape == (1, len(subsets))
        np.testing.assert_allclose(got[0], want, rtol=1e-14, atol=0)

    def test_empty_subset_rejected(self):
        model, lifts = gen_tree_teacher(4, 2, seed=1)
        with pytest.raises(ValueError, match="empty subset"):
            probe_value(model, lifts, [0.1, 0.2, 0.3, 0.4], (), 0.5)
        with pytest.raises(ValueError, match="empty subset"):
            explain(model, lifts, [0.1, 0.2, 0.3, 0.4], 1, subsets=[()])


class TestExplainExactness:
    def test_product_game_shapley(self):
        model, lifts = product_model()
        aset = explain(model, lifts, [1, 1], 1)
        np.testing.assert_allclose(aset.values, [0.5, 0.5], atol=1e-12)
        # independent powerset oracle
        value = coalition_value_fn(model, lifts, [1, 1])
        np.testing.assert_allclose(aset.values, brute_shapley(2, value), atol=1e-12)

    def test_additive_game_zero_interaction(self):
        model, lifts = additive_model()
        aset = explain(model, lifts, [1, 1], 2)
        np.testing.assert_allclose(aset.values, [0.0], atol=1e-12)

    def test_product_game_pair_interaction(self):
        model, lifts = product_model()
        aset = explain(model, lifts, [1, 1], 2)
        np.testing.assert_allclose(aset.values, [1.0], atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_powerset_oracle_on_random_models(self, rng, k):
        """Probe interpolation equals the defining sums, via the independent
        itertools enumeration oracle."""
        for trial in range(3):
            model, lifts = random_tt_model(rng, 5, bond=3)
            x = rng.uniform(-1, 1, 5)
            aset = explain(model, lifts, x, k)
            value = coalition_value_fn(model, lifts, x)
            expected = (
                brute_shapley(5, value) if k == 1 else brute_sii(5, k, value)
            )
            np.testing.assert_allclose(aset.values, expected, atol=1e-9)

    def test_tree_models_with_dummy_leaves(self, rng):
        model, lifts = gen_tree_teacher(6, 4, seed=3)
        x = rng.uniform(-1, 1, 6)
        value = coalition_value_fn(model, lifts, x)
        np.testing.assert_allclose(
            explain(model, lifts, x, 1).values, brute_shapley(6, value), atol=1e-9
        )
        np.testing.assert_allclose(
            explain(model, lifts, x, 2).values, brute_sii(6, 2, value), atol=1e-9
        )

    def test_efficiency(self, rng):
        """Shapley values sum to g(all on) - g(all off)."""
        for n in (3, 5, 8):
            model, lifts = random_tt_model(rng, n, bond=3)
            x = rng.uniform(-1, 1, n)
            total = explain(model, lifts, x, 1).values.sum()
            lifted = lifts.lift_instance(x)
            off = [np.array([0.0, 1.0])] * n
            expected = model.forward(lifted) - model.forward(off)
            assert total == pytest.approx(expected, abs=1e-8)

    def test_single_feature_model(self):
        topo = TnTopology("tt", 1, (2,), ())
        model = TensorNetworkModel(topo, [np.array([2.0, 0.5]).reshape(1, 2, 1)])
        lifts = LiftSpec.binary(1)
        aset = explain(model, lifts, [3.0], 1)
        # phi_1 = v({1}) - v(empty) = (2*3 + 0.5) - 0.5
        np.testing.assert_allclose(aset.values, [6.0], atol=1e-12)


class TestModesAndCounts:
    def test_k1_all_features_inclusion_exclusion_cost(self, rng):
        model, lifts = random_tt_model(rng, 7, bond=3)
        before = model.forward_count
        aset = explain(model, lifts, rng.uniform(-1, 1, 7), 1, mode=INCLUSION_EXCLUSION)
        used = model.forward_count - before
        assert used == aset.forwards_used == 2 * 7 * 7

    @pytest.mark.parametrize("k,mode,per_subset", [
        (1, SIGNED_TOGGLE, 7),          # n - k + 1
        (2, INCLUSION_EXCLUSION, 24),   # 2^k (n - k + 1)
        (2, SIGNED_TOGGLE, 6),
        (3, INCLUSION_EXCLUSION, 40),
        (3, SIGNED_TOGGLE, 5),
    ])
    def test_per_subset_costs(self, rng, k, mode, per_subset):
        model, lifts = random_tt_model(rng, 7, bond=2)
        x = rng.uniform(-1, 1, 7)
        aset = explain(model, lifts, x, k, subsets=[tuple(range(1, k + 1))], mode=mode)
        assert aset.forwards_used == per_subset
        full = explain(model, lifts, x, k, mode=mode)
        assert full.forwards_used == per_subset * math.comb(7, k)

    def test_modes_produce_identical_sets(self, rng):
        model, lifts = random_tt_model(rng, 6, bond=3)
        x = rng.uniform(-1, 1, 6)
        for k in (1, 2, 3):
            a = explain(model, lifts, x, k, mode=INCLUSION_EXCLUSION)
            b = explain(model, lifts, x, k, mode=SIGNED_TOGGLE)
            assert a.subsets == b.subsets
            np.testing.assert_allclose(a.values, b.values, rtol=1e-9, atol=1e-12)

    def test_subsets_lexicographic(self, rng):
        model, lifts = random_tt_model(rng, 4)
        aset = explain(model, lifts, [0.1] * 4, 2)
        assert aset.subsets == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_explicit_subsets_normalized(self, rng):
        model, lifts = random_tt_model(rng, 4)
        aset = explain(model, lifts, [0.1] * 4, 2, subsets=[(3, 1), (4, 2)])
        assert aset.subsets == ((1, 3), (2, 4))

    @pytest.mark.parametrize("subset", [(1, 9), (1,)])
    def test_value_of_missing_subset_names_it(self, rng, subset):
        """A subset outside the set, by a feature index or by its size, is a
        ValueError that names the subset and the set's order."""
        model, lifts = random_tt_model(rng, 4)
        aset = explain(model, lifts, rng.uniform(-1, 1, 4), 2)
        with pytest.raises(ValueError, match=rf"subset \({subset[0]},.*order-2"):
            aset.value(subset)

    def test_degenerate_full_order(self, rng):
        """k = n has one node of weight 1; the single probe value is the answer."""
        model, lifts = product_model()
        aset = explain(model, lifts, [1.0, 1.0], 2)
        np.testing.assert_allclose(aset.values, [1.0])


class TestAxioms:
    def test_dummy_feature_gets_zero(self, rng):
        """Zeroing a core's data rows makes that feature a dummy."""
        model, lifts = random_tt_model(rng, 5, bond=3)
        cores = [np.array(c) for c in model.cores]
        cores[2][:, :-1, :] = 0.0
        dummy = TensorNetworkModel(model.topology, cores)
        x = rng.uniform(-1, 1, 5)
        phi = explain(dummy, lifts, x, 1)
        assert abs(phi.value((3,))) < 1e-9
        assert phi.value((np.int64(3),)) == phi.value((3,))
        with pytest.raises(ValueError, match="has a feature index that is not an integer"):
            phi.value((3.5,))  # not read as feature 3
        pairs = explain(dummy, lifts, x, 2)
        for subset, val in pairs.entries():
            if 3 in subset:
                assert abs(val) < 1e-9

    def test_symmetry_between_equal_features(self, rng):
        from tnshap.fit import _diagonal_train

        lifts = LiftSpec.binary(4)
        factors = [rng.standard_normal((3, 2)) for _ in range(4)]
        factors[2] = factors[1].copy()  # features 2 and 3 play the same role
        sym = _diagonal_train(factors, rng.standard_normal(3))
        x = np.array([0.4, 0.8, 0.8, -0.3])
        phi = explain(sym, lifts, x, 1)
        assert phi.value((2,)) == pytest.approx(phi.value((3,)), rel=1e-9, abs=1e-12)
        pairs = explain(sym, lifts, x, 2)
        assert pairs.value((1, 2)) == pytest.approx(pairs.value((1, 3)), rel=1e-9, abs=1e-12)


class TestHeterogeneousLifts:
    def test_mixed_feature_maps_stay_exact(self, rng):
        """Thin selectors on wider legs: binary, poly, and Fourier lifts in
        one model agree with the powerset oracle at every order."""
        from tnshap import FeatureMap, capped_uniform_bonds

        lifts = LiftSpec([
            FeatureMap("binary"),
            FeatureMap("poly", k=2),
            FeatureMap("fourier", k=1, omega=np.pi),
            FeatureMap("binary"),
        ])
        dims = lifts.dims
        assert dims == (2, 3, 3, 2)
        topo = TnTopology("tt", 4, dims, capped_uniform_bonds("tt", dims, 3))
        cores = [rng.standard_normal(s) / np.sqrt(s[-1]) for s in topo.core_shapes()]
        model = TensorNetworkModel(topo, cores)
        x = rng.uniform(-1, 1, 4)
        value = coalition_value_fn(model, lifts, x)
        for k in (1, 2, 3):
            expected = brute_shapley(4, value) if k == 1 else brute_sii(4, k, value)
            for mode in (INCLUSION_EXCLUSION, SIGNED_TOGGLE):
                got = explain(model, lifts, x, k, mode=mode).values
                np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_mixed_lifts_on_tree_topology(self, rng):
        from tnshap import FeatureMap, capped_uniform_bonds

        lifts = LiftSpec([
            FeatureMap("poly", k=2),
            FeatureMap("binary"),
            FeatureMap("fourier", k=1, omega=2.0),
        ])
        topo = TnTopology("btree", 3, lifts.dims, capped_uniform_bonds("btree", lifts.dims, 4))
        from tnshap.fit import _init_cores

        cores = _init_cores(topo, rng, lambda shape: np.sqrt(shape[-1]))
        model = TensorNetworkModel(topo, cores)
        x = rng.uniform(-1, 1, 3)
        value = coalition_value_fn(model, lifts, x)
        np.testing.assert_allclose(
            explain(model, lifts, x, 1).values, brute_shapley(3, value), atol=1e-9
        )
        np.testing.assert_allclose(
            explain(model, lifts, x, 2).values, brute_sii(3, 2, value), atol=1e-9
        )


class TestBatch:
    def test_batch_of_one_matches_explain(self, rng):
        model, lifts = random_tt_model(rng, 4)
        x = rng.uniform(-1, 1, 4)
        single = explain(model, lifts, x, 1)
        batch = explain_batch(model, lifts, [x], 1)
        np.testing.assert_allclose(batch[0].values, single.values)

    def test_identical_instances_identical_sets(self, rng):
        model, lifts = random_tt_model(rng, 4)
        x = rng.uniform(-1, 1, 4)
        results = explain_batch(model, lifts, [x] * 10, 1)
        for r in results[1:]:
            np.testing.assert_array_equal(r.values, results[0].values)

    def test_batch_forward_totals(self, rng):
        model, lifts = random_tt_model(rng, 5)
        xs = rng.uniform(-1, 1, (6, 5))
        before = model.forward_count
        results = explain_batch(model, lifts, xs, 1)
        used = model.forward_count - before
        assert used == sum(r.forwards_used for r in results) == 6 * 2 * 25

    def test_batch_isolates_failures(self, rng):
        model, lifts = random_tt_model(rng, 4)
        good = rng.uniform(-1, 1, 4)
        results = explain_batch(model, lifts, [good, np.zeros(3), good], 1)
        assert isinstance(results[1], Exception)
        np.testing.assert_allclose(results[0].values, results[2].values)

    def test_bad_rows_keep_their_own_errors(self, rng):
        """Rows are checked as one block; a block that fails is checked row
        by row, so each bad row's slot holds ``check_instance``'s own
        ValueError and the good rows match a batch without the bad ones."""
        model, lifts = random_tt_model(rng, 4)
        good = rng.uniform(-1, 1, (3, 4))
        bad = [np.zeros(3), ["a", "b", "c", "d"], [0.0, np.nan, 1.0, np.inf], [[0.0] * 4]]
        for row in bad:
            batch = [good[0], row, good[1], good[2]]
            results = explain_batch(model, lifts, batch, 1)
            with pytest.raises(ValueError) as want:
                lifts.check_instance(row)
            assert type(results[1]) is ValueError and str(results[1]) == str(want.value)
            clean = explain_batch(model, lifts, good, 1)
            for got, ref in zip([results[0], *results[2:]], clean):
                assert np.array_equal(got.values, ref.values)

    def test_empty_subset_list_rejected(self, rng):
        model, lifts = random_tt_model(rng, 4)
        xs = rng.uniform(-1, 1, (3, 4))
        with pytest.raises(ValueError, match="at least one subset"):
            explain(model, lifts, xs[0], 2, subsets=[])
        results = explain_batch(model, lifts, xs, 2, subsets=[])
        assert len(results) == 3
        assert all(isinstance(r, ValueError) and "at least one subset" in str(r)
                   for r in results)


    @pytest.mark.parametrize("subsets", ["all", [(1, 2), (2, 4)]])
    @pytest.mark.parametrize("case", ["bad-k", "boolean-k", "float-k", "wrong-length", "nan",
                                      "empty-subsets", "non-integral-subset",
                                      "non-sequence-subset", "unknown-mode"])
    def test_explain_raises_what_batch_slot_holds(self, rng, case, subsets):
        """``explain`` is a one-row ``explain_batch``: it raises the exception
        left in the row's slot, same type and message."""
        model, lifts = random_tt_model(rng, 4)
        x, k, mode = rng.uniform(-1, 1, 4), 2, None
        if case == "bad-k":
            k = 5
        elif case == "boolean-k":
            k = True
        elif case == "float-k":
            k = 2.0
        elif case == "wrong-length":
            x = x[:3]
        elif case == "nan":
            x[2] = np.nan
        elif case == "empty-subsets":
            subsets = []
        elif case == "non-integral-subset":
            subsets = [(1.5, 2)]
        elif case == "non-sequence-subset":
            subsets = [1, 2]
        else:
            mode = "both"
        slot = explain_batch(model, lifts, [x], k, mode=mode, subsets=subsets)[0]
        assert isinstance(slot, ValueError)
        if case.endswith("-k"):
            assert f"k={k!r}" in str(slot)
        if case == "non-sequence-subset":
            assert str(slot) == "subset 1 is not a sequence of feature indices"
        with pytest.raises(type(slot)) as info:
            explain(model, lifts, x, k, subsets=subsets, mode=mode)
        assert str(info.value) == str(slot)


class TestStackedBatch:
    """Batches on tensor networks stack instances into shared sweeps of at
    most ``STACK_ENTRY_BUDGET`` float64 entries of engine state, at
    ``tensor_net.probe_entries`` per instance."""

    @staticmethod
    def _set_chunk(monkeypatch, model, k, instances, extra=0):
        """Set the budget to ``instances`` all-subsets order-k instances of
        ``model`` per sweep, plus ``extra`` entries."""
        per = attribute.tensor_net.probe_entries(model.topology, chebyshev_nodes(model.n - k + 1),
                                                 k, tuple(range(model.n)))
        monkeypatch.setattr(attribute, "STACK_ENTRY_BUDGET", instances * per + extra)

    @staticmethod
    def _assert_matches_explain(model, lifts, xs, results, mode=None, k=1):
        for x, got in zip(xs, results):
            want = explain(model, lifts, x, k, mode=mode)
            scale = np.max(np.abs(want.values))
            assert np.max(np.abs(got.values - want.values)) <= 1e-12 * scale
            assert got.subsets == want.subsets
            assert got.forwards_used == want.forwards_used

    @pytest.mark.parametrize("mode", [INCLUSION_EXCLUSION, SIGNED_TOGGLE])
    @pytest.mark.parametrize("kind", ["tt", "btree"])
    @pytest.mark.parametrize("n", [2, 5, 7, 30])
    def test_stacked_matches_per_instance_explain(self, rng, monkeypatch, kind, n, mode):
        """btree n in {5, 7, 30} has pad leaves; the 12 rows span three
        chunks of 5."""
        model, lifts = _random_model(kind, n, 4, seed=n)
        self._set_chunk(monkeypatch, model, 1, 5)
        xs = rng.uniform(-1, 1, (12, n))
        results = explain_batch(model, lifts, xs, 1, mode=mode)
        self._assert_matches_explain(model, lifts, xs, results, mode)

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_stacked_probes_match_flat_path(self, rng, kind):
        """At one node (weight 1) the value helper gives raw probes; the
        stacked engine matches the flat reference node by node."""
        n = 6
        model, lifts = _random_model(kind, n, 3, seed=1)
        xs = rng.uniform(-1, 1, (3, n))
        subsets = [(j,) for j in range(1, n + 1)]
        nodes = chebyshev_nodes(n)
        for t in nodes:
            stacked, _ = attribute._probe_values(model, lifts.lift_rows(xs), np.array([t]),
                                                 np.ones(1), 1, INCLUSION_EXCLUSION,
                                                 tuple(range(n)))
            for b, x in enumerate(xs):
                flat = oracle.flat_probes(model, lifts, x, subsets, [t])
                np.testing.assert_allclose(stacked[b], flat[:, 0], rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_bad_rows_fill_only_their_slots(self, rng, monkeypatch, kind):
        n = 5
        model, lifts = _random_model(kind, n, 3, seed=2)
        self._set_chunk(monkeypatch, model, 1, 4)
        xs = list(rng.uniform(-1, 1, (7, n)))
        nan_row = xs[2].copy()
        nan_row[3] = np.nan
        xs[1] = np.zeros(n - 1)
        xs[2] = nan_row
        results = explain_batch(model, lifts, xs, 1)
        assert isinstance(results[1], ValueError) and "length" in str(results[1])
        assert isinstance(results[2], ValueError) and "non-finite" in str(results[2])
        good = [i for i in range(7) if i not in (1, 2)]
        self._assert_matches_explain(model, lifts, [xs[i] for i in good],
                                     [results[i] for i in good])

    def test_non_finite_rows_rejected_on_serial_path(self, rng, monkeypatch):
        """k = 2 batches stack too: with chunks of 3 instances, an inf and a
        NaN row fill only their own slots and every other slot matches
        per-instance ``explain``, on both topologies (the name predates k = 2
        stacking)."""
        n, k = 5, 2
        sweeps = []
        for kind in ("tt", "btree"):
            sweep = "tt_probes" if kind == "tt" else "tree_probes"
            original = getattr(attribute.tensor_net, sweep)
            # both sweeps take the (B, d) toggled rows at argument 1
            monkeypatch.setattr(attribute.tensor_net, sweep,
                                lambda *a, f=original: sweeps.append(a[1][0].shape[0]) or f(*a))
            model, lifts = _random_model(kind, n, 3, seed=5)
            self._set_chunk(monkeypatch, model, k, 3)
            xs = rng.uniform(-1, 1, (7, n))
            xs[1, 0] = np.inf
            xs[4, 2] = np.nan
            sweeps.clear()
            results = explain_batch(model, lifts, xs, k)
            assert sweeps == [3, 2]
            assert isinstance(results[1], ValueError) and "non-finite" in str(results[1])
            assert isinstance(results[4], ValueError) and "non-finite" in str(results[4])
            good = [0, 2, 3, 5, 6]
            self._assert_matches_explain(model, lifts, xs[good], [results[i] for i in good],
                                         k=k)

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_chunk_boundaries(self, rng, monkeypatch, kind):
        n = 6
        model, lifts = _random_model(kind, n, 3, seed=3)
        xs = rng.uniform(-1, 1, (7, n))
        whole = explain_batch(model, lifts, xs, 1)
        # the sweep's instance x node rows: both sweeps take the (B, d)
        # toggled rows and the m nodes at arguments 1 and 2
        env = "tt_probes" if kind == "tt" else "tree_probes"
        rows = []
        original = getattr(attribute.tensor_net, env)

        def spy(*args):
            toggled, nodes = args[1:3]
            rows.append(toggled[0].shape[0] * nodes.shape[0])
            return original(*args)

        monkeypatch.setattr(attribute.tensor_net, env, spy)
        self._set_chunk(monkeypatch, model, 1, 3, extra=-1)  # 2 instances per chunk
        chunked = explain_batch(model, lifts, xs, 1)
        assert rows == [2 * n, 2 * n, 2 * n, n]
        for a, b in zip(chunked, whole):
            np.testing.assert_allclose(a.values, b.values, rtol=1e-12, atol=1e-15)
        monkeypatch.setattr(attribute, "STACK_ENTRY_BUDGET", 1)  # below one instance
        rows.clear()
        explain_batch(model, lifts, xs[:2], 1)
        assert rows == [n, n]

    @pytest.mark.parametrize("rows", [0, 2])
    def test_batch_without_valid_rows_plans_nothing(self, monkeypatch, rows):
        """An empty batch, or one whose every row fails its check, runs no
        sweep, so it neither counts engine state nor builds a tree plan."""
        model, lifts = _random_model("btree", 9, 3, seed=4)

        def no_plan(*args):
            raise AssertionError("_tree_plan called")

        monkeypatch.setattr(attribute.tensor_net, "_tree_plan", no_plan)
        xs = np.full((rows, 9), np.nan)
        results = explain_batch(model, lifts, xs, 2)
        assert len(results) == rows
        assert all(isinstance(r, ValueError) for r in results)

    @pytest.mark.parametrize("kind,n,bond", [("btree", 30, 16), ("tt", 40, 8)])
    def test_order2_batches_stack(self, rng, monkeypatch, kind, n, bond):
        """At the default budget a k = 2 batch stacks more than one instance
        per sweep, with the values of per-instance ``explain``."""
        model, lifts = _random_model(kind, n, bond, seed=6)
        sweep = "tt_probes" if kind == "tt" else "tree_probes"
        original = getattr(attribute.tensor_net, sweep)
        sweeps = []
        monkeypatch.setattr(attribute.tensor_net, sweep,
                            lambda *a: sweeps.append(a[1][0].shape[0]) or original(*a))
        xs = rng.uniform(-1, 1, (12, n))
        results = explain_batch(model, lifts, xs, 2)
        assert sweeps[0] > 1 and sum(sweeps) == 12
        self._assert_matches_explain(model, lifts, xs, results, k=2)

    @pytest.mark.parametrize("kind,n,bond,rows", [("btree", 30, 16, 256), ("tt", 300, 8, 8)])
    def test_stacked_batch_peak_under_twice_the_budget(self, rng, kind, n, bond, rows):
        """A k = 1 batch's ``tracemalloc`` peak stays under twice the budget's
        bytes, whether many instances share a sweep (btree n = 30) or one
        instance is above the budget alone (a train holds its rows at every
        leg: CP-TT n = 300)."""
        import tracemalloc

        model, lifts = _random_model(kind, n, bond, seed=1)
        xs = rng.uniform(-1, 1, (rows, n))
        tracemalloc.start()
        try:
            results = explain_batch(model, lifts, xs, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(not isinstance(r, Exception) for r in results)
        assert peak < 2 * 8 * attribute.STACK_ENTRY_BUDGET

    @pytest.mark.parametrize("kind,n,bond,k", [("btree", 30, 16, 1), ("btree", 30, 16, 2),
                                               ("btree", 24, 16, 3), ("tt", 40, 8, 1),
                                               ("tt", 40, 8, 2), ("tt", 12, 4, 3)])
    def test_entry_count_within_twice_the_measured_peak(self, rng, kind, n, bond, k):
        """``probe_entries`` is within 2x of a full chunk's ``tracemalloc``
        peak per instance, in float64 entries."""
        import tracemalloc

        model, lifts = _random_model(kind, n, bond, seed=2)
        per = attribute.tensor_net.probe_entries(model.topology, chebyshev_nodes(n - k + 1), k,
                                                 tuple(range(n)))
        step = max(1, attribute.STACK_ENTRY_BUDGET // per)
        xs = rng.uniform(-1, 1, (step, n))
        explain_batch(model, lifts, xs[:1], k)  # plans and weights are cached
        tracemalloc.start()
        try:
            explain_batch(model, lifts, xs, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 < peak / (8 * step * per) < 2

    def test_engines_share_one_argument_list(self):
        """``_probe_values`` makes one call whichever engine the topology picks."""
        tree = inspect.signature(attribute.tensor_net.tree_probes).parameters
        train = inspect.signature(attribute.tensor_net.tt_probes).parameters
        assert list(tree.values()) == list(train.values())

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_counts_without_forward_batch(self, rng, kind):
        n, b = 8, 10
        model, lifts = _random_model(kind, n, 3, seed=4)
        calls = []
        original = model.forward_batch
        model.forward_batch = lambda legs: calls.append(legs) or original(legs)
        before = model.forward_count
        results = explain_batch(model, lifts, rng.uniform(-1, 1, (b, n)), 1)
        used = model.forward_count - before
        assert used == sum(r.forwards_used for r in results) == b * 2 * n * n
        assert calls == []

    def test_no_thread_pool(self, rng, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        def refuse(self, *args, **kwargs):
            raise AssertionError("explain_batch constructed a thread pool")

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", refuse)
        model, lifts = random_tt_model(rng, 5)
        xs = rng.uniform(-1, 1, (6, 5))
        for k in (1, 2):
            assert all(not isinstance(r, Exception) for r in explain_batch(model, lifts, xs, k))
        assert not hasattr(attribute, "ThreadPoolExecutor")


class TestCsv:
    def test_golden_rows(self):
        model, lifts = product_model()
        sets = [
            [explain(model, lifts, [1.0, 1.0], 1), explain(model, lifts, [1.0, 1.0], 2)]
        ]
        buf = io.StringIO()
        write_attribution_csv(buf, sets)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "instance_id,order,subset,value,flag"
        assert lines[1] == "0,1,1,0.5,"
        assert lines[2] == "0,1,2,0.5,"
        assert lines[3] == "0,2,1;2,1.0,"

    def test_roundtrip_bytes(self, rng):
        """write -> read -> write reproduces identical bytes."""
        from conftest import write_attribution_rows
        from tnshap import read_attribution_csv

        model, lifts = random_tt_model(rng, 4, bond=3)
        sets = [
            [explain(model, lifts, rng.uniform(-1, 1, 4), k) for k in (1, 2)]
            for _ in range(3)
        ]
        first = io.StringIO()
        write_attribution_csv(first, sets)
        rows = read_attribution_csv(io.StringIO(first.getvalue()))
        second = io.StringIO()
        write_attribution_rows(second, rows)
        assert first.getvalue() == second.getvalue()

    def test_blocks_match_row_writer_on_special_values(self):
        """Blocks that continue a file write no header and count instance ids
        from ``start``; together they give the reference writer's bytes,
        also for -0.0, subnormal, huge and non-finite values."""
        from conftest import write_attribution_rows
        from tnshap.attribute import AttributionSet

        subsets = ((1, 2), (1, 3), (2, 3))
        specials = [-0.0, 5e-324, -1e308, float("nan"), float("inf"), 0.1, -2 / 3]
        sets = [[AttributionSet(2, subsets, np.array(specials[i : i + 3]), 3)]
                for i in range(4)]
        blocks = io.StringIO()
        write_attribution_csv(blocks, sets[:3])
        write_attribution_csv(blocks, sets[3:], 3)
        reference = io.StringIO()
        write_attribution_rows(reference, [(iid, 2, subset, value, "")
                                           for iid, (aset,) in enumerate(sets)
                                           for subset, value in aset.entries()])
        assert blocks.getvalue() == reference.getvalue()
        assert blocks.getvalue().count("instance_id") == 1

    def test_reader_rejects_bad_header(self):
        from tnshap import read_attribution_csv

        with pytest.raises(ValueError, match="header"):
            read_attribution_csv(io.StringIO("nope\n1,2,3,4,5\n"))

    @pytest.mark.parametrize("row", ["x,1,2,0.5,", "0,True,1,0.5,", "0,2,1;y,0.5,", "0,1,2,z,",
                                     "0,1,,0.5,", "0,1,2"])
    def test_reader_names_the_bad_line(self, row):
        """Every malformed row is reported with its line number, whether a
        field count is wrong or a field does not convert."""
        from tnshap import read_attribution_csv

        text = f"{attribute.CSV_HEADER}\n0,1,1,0.25,\n{row}\n"
        with pytest.raises(ValueError, match=r"^line 3: "):
            read_attribution_csv(io.StringIO(text))

    def test_reader_skips_blank_lines(self):
        from tnshap import read_attribution_csv

        text = f"{attribute.CSV_HEADER}\n0,1,1,0.25,\n\n0,1,2,-0.5,\n\n"
        assert read_attribution_csv(io.StringIO(text)) == [(0, 1, (1,), 0.25, ""),
                                                           (0, 1, (2,), -0.5, "")]

    def test_row_order_instance_then_order_then_subset(self, rng):
        model, lifts = random_tt_model(rng, 3)
        x = [0.2, 0.4, 0.6]
        sets = [[explain(model, lifts, x, 2), explain(model, lifts, x, 1)]] * 2
        buf = io.StringIO()
        write_attribution_csv(buf, sets)
        rows = [line.split(",")[:3] for line in buf.getvalue().splitlines()[1:]]
        assert rows == [
            ["0", "1", "1"], ["0", "1", "2"], ["0", "1", "3"],
            ["0", "2", "1;2"], ["0", "2", "1;3"], ["0", "2", "2;3"],
            ["1", "1", "1"], ["1", "1", "2"], ["1", "1", "3"],
            ["1", "2", "1;2"], ["1", "2", "1;3"], ["1", "2", "2;3"],
        ]


def _random_model(kind, n, bond, seed, lifts=None):
    """A random TT (CP teacher) or btree model over n features."""
    return (gen_cp_teacher if kind == "tt" else gen_tree_teacher)(n, bond, seed, lifts)


class TestSharedProbes:
    """All-subsets requests on tensor networks take the shared sweep, in
    either mode and at every order."""

    @pytest.mark.parametrize("kind,n,k", [
        ("tt", 4, 2), ("tt", 7, 3), ("tt", 11, 2), ("tt", 12, 3), ("tt", 60, 2),
        ("btree", 4, 2), ("btree", 5, 2), ("btree", 5, 3), ("btree", 7, 2),
        ("btree", 7, 3), ("btree", 11, 2), ("btree", 11, 3), ("btree", 16, 3),
    ])
    def test_probe_matrix_matches_flat_path(self, rng, kind, n, k):
        """Per-node raw probes (one node, weight 1) of the engine against the
        flat reference, at every one of the m = n - k + 1 nodes."""
        model, lifts = _random_model(kind, n, 4, seed=n + k)
        x = rng.uniform(-1, 1, n)
        lifted = lifts.lift_instance(x)
        subsets = list(itertools.combinations(range(1, n + 1), k))
        for t in chebyshev_nodes(n - k + 1):
            shared, _ = attribute._probe_values(model, [v[None] for v in lifted], np.array([t]),
                                                np.ones(1), k, SIGNED_TOGGLE, tuple(range(n)))
            flat = oracle.flat_probes(model, lifts, x, subsets, [t])[:, 0]
            assert shared.shape == (1, len(subsets)) and flat.shape == (len(subsets),)
            assert np.max(np.abs(shared[0] - flat)) <= 1e-12 * np.max(np.abs(flat))

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("n", [5, 7, 11])
    @pytest.mark.parametrize("kind", ["tt", "btree"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_inclusion_exclusion_matches_flat_configurations(self, rng, k, kind, n, b):
        """The engine in inclusion-exclusion mode (signed-toggle arithmetic)
        against the flat reference, which evaluates all 2^k on/off
        configurations of every subset; btree n in {5, 7, 11} has pad
        leaves. The helper counts the reference's forwards, the request
        charges them to the model, and neither calls ``forward_batch``."""
        model, lifts = _random_model(kind, n, 4, seed=7 * n + k)
        xs = rng.uniform(-1, 1, (b, n))
        nodes = chebyshev_nodes(n - k + 1)
        calls = []
        original = model.forward_batch
        model.forward_batch = lambda legs: calls.append(legs) or original(legs)
        _, forwards = attribute._probe_values(model, lifts.lift_rows(xs), nodes,
                                              quadrature_weights(n - k + 1), k,
                                              INCLUSION_EXCLUSION, tuple(range(n)))
        contract = 2**k * (n - k + 1) * math.comb(n, k) * b
        before = model.forward_count
        results = explain_batch(model, lifts, xs, k, mode=INCLUSION_EXCLUSION)
        charged = sum(r.forwards_used for r in results)
        assert model.forward_count - before == charged == forwards == contract
        assert calls == []
        model.forward_batch = original
        subsets = list(itertools.combinations(range(1, n + 1), k))
        for t in nodes:
            shared, _ = attribute._probe_values(model, lifts.lift_rows(xs), np.array([t]),
                                                np.ones(1), k, INCLUSION_EXCLUSION,
                                                tuple(range(n)))
            for row, x in zip(shared, xs):
                flat = oracle.flat_probes(model, lifts, x, subsets, [t])[:, 0]
                assert row.shape == flat.shape == (len(subsets),)
                assert np.max(np.abs(row - flat)) <= 1e-12 * np.max(np.abs(flat))

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    @pytest.mark.parametrize("n,k", [(2, 2), (5, 4), (5, 5), (6, 3), (9, 2), (12, 2), (12, 3)])
    def test_values_match_enumeration(self, rng, kind, n, k):
        """Covers k = n (one node), k = n - 1 and n = 2."""
        model, lifts = _random_model(kind, n, 4, seed=3 * n + k)
        x = rng.uniform(-1, 1, n)
        expected = exact_sii(enumerate_game(model, lifts, x), k).values
        got = explain(model, lifts, x, k).values
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-7 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_lexicographic_counts_and_no_flat_batch(self, rng, kind):
        n, k = 9, 3
        model, lifts = _random_model(kind, n, 4, seed=2)
        calls = []
        original = model.forward_batch
        model.forward_batch = lambda legs: calls.append(legs) or original(legs)
        before = model.forward_count
        aset = explain(model, lifts, rng.uniform(-1, 1, n), k)
        contract = math.comb(n, k) * (n - k + 1)
        assert aset.subsets == tuple(itertools.combinations(range(1, n + 1), k))
        assert model.forward_count - before == aset.forwards_used == contract
        assert calls == []

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_single_feature_models_take_the_engine(self, rng, kind):
        """n = 1: a one-core train and a one-leaf tree, whose only core is
        (d,), close their one subset in the engine, not the flat path."""
        model, lifts = _random_model(kind, 1, 3, seed=5)
        calls = []
        original = model.forward_batch
        model.forward_batch = lambda legs: calls.append(legs) or original(legs)
        x = rng.uniform(-1, 1, 1)
        before = model.forward_count
        aset = explain(model, lifts, x, 1)
        assert model.forward_count - before == aset.forwards_used == 2
        assert calls == []
        model.forward_batch = original
        expected = exact_sii(enumerate_game(model, lifts, x), 1).values
        np.testing.assert_allclose(aset.values, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_train_sweep_is_lexicographic_without_permutation(self, rng, monkeypatch, k):
        """``tt_probes`` returns (B, C(n, k)) values in lexicographic order
        without the tree's ``_tree_schedule``."""
        n, b = 7, 2
        model, lifts = _random_model("tt", n, 3, seed=k)
        xs = rng.uniform(-1, 1, (b, n))
        monkeypatch.setattr(attribute.tensor_net, "_tree_schedule", None)
        values, _ = attribute._probe_values(model, lifts.lift_rows(xs), chebyshev_nodes(n - k + 1),
                                            quadrature_weights(n - k + 1), k, SIGNED_TOGGLE,
                                            tuple(range(n)))
        assert values.shape == (b, math.comb(n, k))
        for row, x in zip(values, xs):
            expected = exact_sii(enumerate_game(model, lifts, x), k).values
            np.testing.assert_allclose(row, expected, rtol=0,
                                       atol=1e-10 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_repeated_calls_bitwise_identical(self, rng, kind):
        model, lifts = _random_model(kind, 10, 5, seed=4)
        x = rng.uniform(-1, 1, 10)
        first = explain(model, lifts, x, 2)
        for _ in range(3):
            np.testing.assert_array_equal(explain(model, lifts, x, 2).values, first.values)


class TestExplicitLists:
    """Explicit subset lists and single probes go through the probe engine;
    models that are not tensor networks are refused."""

    @pytest.mark.parametrize("mode", [INCLUSION_EXCLUSION, SIGNED_TOGGLE])
    @pytest.mark.parametrize("k", [1, 2, 3, "n"])
    @pytest.mark.parametrize("kind,n", [("tt", 7), ("btree", 5), ("btree", 7), ("btree", 11)])
    def test_matches_flat_reference(self, rng, kind, n, k, mode):
        """Unsorted requests with a duplicate, on trains and on pad-leaf trees,
        B = 3 stacked instances: each kept subset's index equals the flat
        2^k-configuration reference, and the request is charged the
        per-subset contract exactly; ``probe_value`` matches the reference at
        one node. Errors are relative to the larger of the index and the
        model's output at x: at k = n the index can be far smaller than the
        2^k configurations the reference cancels."""
        k = n if k == "n" else k
        model, lifts = _random_model(kind, n, 4, seed=11 * n + k)
        draws = [tuple(int(i) + 1 for i in rng.permutation(n)[:k]) for _ in range(4)]
        requested = draws + [draws[0][::-1]]
        subsets = sorted({tuple(sorted(s)) for s in requested})
        m = n - k + 1
        per_subset = m * (2**k if mode == INCLUSION_EXCLUSION else 1)
        xs = rng.uniform(-1, 1, (3, n))
        before = model.forward_count
        results = explain_batch(model, lifts, xs, k, mode=mode, subsets=requested)
        assert model.forward_count - before == 3 * per_subset * len(subsets)
        nodes = chebyshev_nodes(m)
        for x, got in zip(xs, results):
            assert got.subsets == tuple(subsets)
            assert got.forwards_used == per_subset * len(subsets)
            want = oracle.flat_probes(model, lifts, x, subsets, nodes) @ quadrature_weights(m)
            scale = max(np.max(np.abs(want)), abs(model.forward(lifts.lift_instance(x))))
            assert np.max(np.abs(got.values - want)) <= 1e-12 * scale
        t = 0.37
        probe = probe_value(model, lifts, xs[0], requested[0], t, mode)
        want = oracle.flat_probes(model, lifts, xs[0], [tuple(sorted(requested[0]))], [t])[0, 0]
        scale = max(abs(want), abs(model.forward(lifts.lift_instance(xs[0]))))
        assert abs(probe - want) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_no_request_calls_forward_batch(self, rng, monkeypatch, kind):
        n = 7
        model, lifts = _random_model(kind, n, 3, seed=8)

        def refuse(self, legs):
            raise AssertionError("a request contracted forward_batch rows")

        monkeypatch.setattr(TensorNetworkModel, "forward_batch", refuse)
        xs = rng.uniform(-1, 1, (3, n))
        before = model.forward_count
        explain_batch(model, lifts, xs, 2, subsets=[(6, 1), (2, 7), (1, 6)])
        explain(model, lifts, xs[0], 3)
        explain_batch(model, lifts, xs, 1)
        probe_value(model, lifts, xs[0], (5, 2), 0.3)
        probe_value(model, lifts, xs[0], (4,), 0.6, SIGNED_TOGGLE)
        contract = 3 * 6 * 2 + 5 * 35 + 3 * 2 * n * n + 4 + 1
        assert model.forward_count - before == contract

    def test_counting_non_model_refused_by_every_entry_point(self, rng):
        """An object that is not a ``TensorNetworkModel`` is refused with a
        TypeError by every entry point, though it has a model's ``n``,
        ``phys_dims`` and forward counter, and its count does not move."""
        from types import SimpleNamespace

        from tnshap.tensor_net import ForwardCounter

        n = 4
        lifts = LiftSpec.binary(n)
        other = SimpleNamespace(n=n, phys_dims=lifts.dims, counter=ForwardCounter())
        x = rng.uniform(-1, 1, n)
        match = "^cannot explain a SimpleNamespace: need a TensorNetworkModel$"
        for call in (lambda: explain(other, lifts, x, 1),
                     lambda: probe_value(other, lifts, x, (1,), 0.5),
                     lambda: oracle.diagonal_coefficient_probe(other, lifts, x)):
            with pytest.raises(TypeError, match=match):
                call()
        slots = explain_batch(other, lifts, [x, x, x], 2)
        assert len(slots) == 3
        for slot in slots:
            assert isinstance(slot, TypeError)
            assert str(slot) == "cannot explain a SimpleNamespace: need a TensorNetworkModel"
        assert other.counter.count == 0

    def test_boolean_feature_indices_refused(self, rng):
        """``True`` is not read as feature 1 by a subset list, a single probe
        or an AttributionSet lookup."""
        model, lifts = random_tt_model(rng, 3)
        x = rng.uniform(-1, 1, 3)
        match = "has a feature index that is not an integer"
        with pytest.raises(ValueError, match=match):
            explain(model, lifts, x, 2, subsets=[(True, 2)])
        with pytest.raises(ValueError, match=match):
            probe_value(model, lifts, x, (True,), 0.5)
        pairs = explain(model, lifts, x, 2)
        with pytest.raises(ValueError, match=match):
            pairs.value((True, 2))
        assert pairs.value((1, 2)) == pairs.values[0]

    def test_other_objects_rejected(self, rng):
        _, lifts = gen_cp_teacher(3, 2, seed=2)
        x = rng.uniform(-1, 1, 3)
        with pytest.raises(TypeError, match="cannot explain a object"):
            explain(object(), lifts, x, 1)
        slots = explain_batch(object(), lifts, [x, x], 1)
        assert all(isinstance(r, TypeError) for r in slots)
        with pytest.raises(TypeError, match="cannot explain a object"):
            probe_value(object(), lifts, x, (1,), 0.5)


class TestProbeMemory:
    @staticmethod
    def _explain_peak(model, lifts, x, k, subsets="all") -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            explain(model, lifts, x, k, subsets=subsets)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_tt_order3_tracemalloc_peak(self, rng):
        """The sweep integrates each closed block at once and never holds the
        (m, C(n, k)) probe matrix, 51 MB for one n = 80, k = 3 train request
        (82,160 subsets, m = 78): the request's peak stays under 80 MB."""
        model, lifts = _random_model("tt", 80, 8, seed=1)
        assert self._explain_peak(model, lifts, rng.uniform(-1, 1, 80), 3) < 80 * 2**20

    def test_tree_order3_tracemalloc_peak(self, rng):
        """A tree closes each subset where its toggled legs meet and carries
        no order-k message to the root: one btree n = 64, k = 3 request
        (41,664 subsets, m = 62, chi 8) peaks near 10 MB, where a (C(n, k),
        m) root message alone would take 20 MB."""
        model, lifts = _random_model("btree", 64, 8, seed=1)
        assert self._explain_peak(model, lifts, rng.uniform(-1, 1, 64), 3) < 30 * 2**20

    def test_tree_order_near_n_tracemalloc_peak(self, rng):
        """A tree node keeps only the orders the toggleable legs outside it
        can complete: at btree n = 64, k = 63 (64 subsets) the 32-leaf child
        of the root carries orders 31 and 32, 33 rows, where orders 1..32
        would be about 2^32. The same holds for an explicit list at k = N - 1
        over N = 48 of the legs."""
        model, lifts = _random_model("btree", 64, 8, seed=1)
        x = rng.uniform(-1, 1, 64)
        assert self._explain_peak(model, lifts, x, 63) < 10 * 2**20
        legs = [i for i in range(1, 65) if i % 4]
        subsets = [tuple(i for i in legs if i != drop) for drop in (1, 30, 63)]
        assert self._explain_peak(model, lifts, x, 47, subsets) < 10 * 2**20


class _DriftingCounter:
    """A shared counter that other work advances between any two reads."""

    def __init__(self) -> None:
        self.added = 0
        self.reads = 0

    def add(self, k: int = 1) -> None:
        self.added += int(k)

    @property
    def count(self) -> int:
        self.reads += 1
        return self.added + 1000 * self.reads


class TestForwardAccounting:
    @pytest.mark.parametrize("k,subsets", [(1, "all"), (2, "all"), (2, [(1, 2), (3, 5)])])
    def test_forwards_used_ignores_concurrent_counter_traffic(self, rng, k, subsets):
        n = 6
        model, lifts = random_tt_model(rng, n)
        model.counter = _DriftingCounter()
        aset = explain(model, lifts, rng.uniform(-1, 1, n), k, subsets=subsets)
        per_subset = 2 * n if k == 1 else n - k + 1
        assert aset.forwards_used == model.counter.added == per_subset * len(aset.subsets)
        if k == 1:
            assert aset.forwards_used == 2 * n * n

    def test_quadrature_weights_built_once_per_node_count(self, rng):
        attribute.quadrature_weights.cache_clear()
        model, lifts = random_tt_model(rng, 5)
        xs = rng.uniform(-1, 1, (3, 5))
        for x in xs:
            explain(model, lifts, x, 2)
        explain_batch(model, lifts, xs, 2)
        explain_batch(model, lifts, xs, 1)
        info = attribute.quadrature_weights.cache_info()
        assert (info.misses, info.currsize) == (2, 2)


def _gauss_legendre_reference(model, lifts, x, k, subsets):
    """int_0^1 Q_S(t) dt per subset by Gauss-Legendre quadrature of the
    signed-toggle probe, built from ``forward_batch`` alone (no nodes,
    weights or probe helpers of ``attribute``)."""
    q = (model.n - k) // 2 + 1
    g, w = np.polynomial.legendre.leggauss(q)
    t, w = 0.5 * (g + 1.0), 0.5 * w
    lifted = lifts.lift_instance(x)
    out = []
    for subset in subsets:
        legs = []
        for i, v in enumerate(lifted):
            if i + 1 in subset:
                legs.append(np.tile(signed_toggle(v), (q, 1)))
            else:
                u = np.tile(v, (q, 1))
                u[:, :-1] *= t[:, None]
                legs.append(u)
        out.append(model.forward_batch(legs) @ w)
    return np.array(out)


class TestBeyondEnumeration:
    """Sizes no enumeration reaches, n - k + 1 = 49 nodes included: checked
    against an independent quadrature rule and the efficiency axiom."""

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    @pytest.mark.parametrize("n,k", [(49, 1), (50, 1), (100, 1), (49, 2), (50, 2), (100, 2)])
    def test_matches_gauss_legendre(self, rng, kind, n, k):
        model, lifts = _random_model(kind, n, 3, seed=n + 7 * k)
        x = rng.uniform(-1, 1, n)
        aset = explain(model, lifts, x, k)
        picks = np.sort(rng.choice(len(aset.subsets), size=min(40, len(aset.subsets)), replace=False))
        subsets = [aset.subsets[i] for i in picks]
        expected = _gauss_legendre_reference(model, lifts, x, k, subsets)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(aset.values[picks] - expected)) <= 1e-10 * scale

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    @pytest.mark.parametrize("n", [49, 50, 100])
    def test_efficiency(self, rng, kind, n):
        model, lifts = _random_model(kind, n, 3, seed=n)
        x = rng.uniform(-1, 1, n)
        phi = explain(model, lifts, x, 1).values
        on = model.forward(lifts.lift_instance(x))
        off = model.forward([off_state(d) for d in lifts.dims])
        assert abs(phi.sum() - (on - off)) <= 1e-10 * max(abs(on - off), np.max(np.abs(phi)))


def _flat_indices(model, lifts, x, subsets, nodes, weights):
    """Node-weighted probes of one instance, every probe contracted from
    scratch by ``oracle.flat_probes``."""
    return oracle.flat_probes(model, lifts, x, subsets, nodes) @ weights


def _assert_close(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def _assert_sampled_subsets(rng, model, lifts, xs, values, k, nodes, weights):
    """Check the first and last rows of all-subsets ``values`` on up to 40
    k-subsets, the first and last included, against ``_flat_indices``."""
    subsets = list(itertools.combinations(range(1, model.n + 1), k))
    picks = sorted({0, len(subsets) - 1,
                    *rng.choice(len(subsets), min(len(subsets), 38), replace=False)})
    for x, row in zip(xs[[0, -1]], values[[0, -1]]):
        want = _flat_indices(model, lifts, x, [subsets[i] for i in picks], nodes, weights)
        _assert_close(row[picks], want)


class TestTreePoints:
    """A tree evaluates each node at its own point set (s_v + 1 Chebyshev
    points for s_v real leaves below it, or its parent's) at every order and
    must match the from-scratch reference at every size, pads included. The
    Gauss-Legendre and input-contract cases run on a train too."""

    @pytest.mark.parametrize("mode", [INCLUSION_EXCLUSION, SIGNED_TOGGLE])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 16, 24, 30, 33, 64, 100])
    def test_all_subsets_match_flat_probes(self, rng, n, mode):
        model, lifts = _random_model("btree", n, 3, seed=n)
        xs = rng.uniform(-1, 1, (2, n))
        nodes, weights = chebyshev_nodes(n), quadrature_weights(n)
        subsets = [(j,) for j in range(1, n + 1)]
        for x, got in zip(xs, explain_batch(model, lifts, xs, 1, mode=mode)):
            assert got.forwards_used == (2 if mode == INCLUSION_EXCLUSION else 1) * n * n
            _assert_close(got.values, _flat_indices(model, lifts, x, subsets, nodes, weights))

    @pytest.mark.parametrize("b", [1, 17, 48])
    def test_stacked_rows_match_flat_probes(self, rng, b):
        n = 30
        model, lifts = _random_model("btree", n, 4, seed=b)
        xs = rng.uniform(-1, 1, (b, n))
        nodes, weights = chebyshev_nodes(n), quadrature_weights(n)
        values, forwards = attribute._probe_values(model, lifts.lift_rows(xs), nodes, weights, 1,
                                                   SIGNED_TOGGLE, tuple(range(n)))
        assert values.shape == (b, n) and forwards == b * n * n
        subsets = [(j,) for j in range(1, n + 1)]
        for x, row in zip(xs, values):
            _assert_close(row, _flat_indices(model, lifts, x, subsets, nodes, weights))

    @pytest.mark.parametrize("n", [7, 33, 64])
    def test_explicit_lists_match_flat_probes(self, rng, n):
        model, lifts = _random_model("btree", n, 3, seed=n + 1)
        x = rng.uniform(-1, 1, n)
        subsets = [(n,), (1,), (n // 2,), (n // 2 + 1,)]
        got = explain(model, lifts, x, 1, subsets=subsets)
        assert got.subsets == tuple(sorted(subsets))
        assert got.forwards_used == 2 * n * len(subsets)
        want = _flat_indices(model, lifts, x, list(got.subsets), chebyshev_nodes(n),
                             quadrature_weights(n))
        _assert_close(got.values, want)

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("n", [1, 3, 24, 33])
    def test_probe_value_matches_flat_probes(self, rng, n, t):
        model, lifts = _random_model("btree", n, 3, seed=n + 2)
        x = rng.uniform(-1, 1, n)
        for j in (1, n):
            want = oracle.flat_probes(model, lifts, x, [(j,)], [t])[0, 0]
            got = probe_value(model, lifts, x, (j,), t)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    @pytest.mark.parametrize("n", [5, 30, 64])
    def test_gauss_legendre_nodes_match_flat_probes(self, rng, n, kind):
        """Root nodes that are no Chebyshev set: the highest tree nodes with
        their own points interpolate to Gauss-Legendre targets and back, and
        a train's weighted prefix starts from non-uniform weights."""
        model, lifts = _random_model(kind, n, 3, seed=n + 3)
        xs = rng.uniform(-1, 1, (3, n))
        g, w = np.polynomial.legendre.leggauss(n // 2 + 1)
        nodes, weights = 0.5 * (g + 1.0), 0.5 * w
        values, _ = attribute._probe_values(model, lifts.lift_rows(xs), nodes, weights, 1,
                                            INCLUSION_EXCLUSION, tuple(range(n)))
        subsets = [(j,) for j in range(1, n + 1)]
        for x, row in zip(xs, values):
            _assert_close(row, _flat_indices(model, lifts, x, subsets, nodes, weights))

    @pytest.mark.parametrize("b", [1, 17, 48])
    @pytest.mark.parametrize("k,n", [(k, n) for k in (2, 3, 4)
                                     for n in (2, 3, 5, 7, 16, 24, 30, 33, 64, 100) if n >= k])
    def test_higher_orders_match_flat_probes(self, rng, k, n, b):
        """Order-o stacks ride the order-0 interpolation GEMMs and close at
        their lowest common node, for B stacked instances, at k = 2-4 and
        every size: all subsets where the (B, C(n, k)) result stays below 3
        million entries, else a list of up to 40 random subsets. Up to 40 of
        them, the first and last included, match the from-scratch reference
        to 1e-13 of max |value| (plus 1e-15). The mode only changes the
        forwards charged."""
        model, lifts = _random_model("btree", n, 3, seed=n + k)
        xs = rng.uniform(-1, 1, (b, n))
        m = n - k + 1
        nodes, weights = chebyshev_nodes(m), quadrature_weights(m)
        mode, per = (INCLUSION_EXCLUSION, 1 << k) if b == 17 else (SIGNED_TOGGLE, 1)
        if math.comb(n, k) * b <= 3 * 10**6:
            got = explain_batch(model, lifts, xs, k, mode=mode)
            subsets = list(itertools.combinations(range(1, n + 1), k))
            picks = sorted({0, len(subsets) - 1,
                            *rng.choice(len(subsets), min(len(subsets), 38), replace=False)})
            subsets = [subsets[i] for i in picks]
        else:
            subsets = sorted({tuple(sorted(rng.choice(n, k, replace=False) + 1))
                              for _ in range(40)})
            got = explain_batch(model, lifts, xs, k, mode=mode, subsets=subsets)
            picks = list(range(len(subsets)))
        assert all(g.forwards_used == per * m * len(g.subsets) for g in got)
        for x, g in zip(xs[[0, -1]], [got[0], got[-1]]):
            want = _flat_indices(model, lifts, x, subsets, nodes, weights)
            # the probes are of unit scale, so a lone k = n value may cancel
            # to far below it: 1e-15 absolute stands for their rounding
            assert np.max(np.abs(g.values[picks] - want)) <= 1e-13 * np.max(np.abs(want)) + 1e-15

    @pytest.mark.parametrize("n", [5, 7, 24, 33])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_higher_order_lists_match_flat_probes(self, rng, k, n):
        """An explicit list toggles only the legs it names, so some nodes
        hold fewer toggleable leaves than real ones."""
        model, lifts = _random_model("btree", n, 3, seed=n + k + 1)
        x = rng.uniform(-1, 1, n)
        subsets = {tuple(sorted(rng.choice(n, k, replace=False) + 1)) for _ in range(6)}
        subsets |= {tuple(range(n - k + 1, n + 1)), tuple(range(1, k + 1))}
        got = explain(model, lifts, x, k, subsets=sorted(subsets))
        assert got.subsets == tuple(sorted(subsets))
        m = n - k + 1
        assert got.forwards_used == m * len(subsets)
        want = _flat_indices(model, lifts, x, list(got.subsets), chebyshev_nodes(m),
                             quadrature_weights(m))
        _assert_close(got.values, want)

    @pytest.mark.parametrize("n", [5, 11, 24])
    @pytest.mark.parametrize("k", [2, 3])
    def test_reversed_schedule_pairs_keep_values_on_their_subsets(self, rng, monkeypatch, k, n):
        """The stacked pass and the permutation read one schedule: with every
        group's merge and close pairs listed in reverse (the schedule's one
        ``sorted`` made descending), the closing order changes and every
        value still lands on its subset, for all subsets and for a list,
        whose values also match the flat reference."""
        tensor_net = attribute.tensor_net
        model, lifts = _random_model("btree", n, 3, seed=n + k + 3)
        x = rng.uniform(-1, 1, n)
        subsets = sorted({tuple(sorted(rng.choice(n, k, replace=False) + 1)) for _ in range(5)})
        key = (tuple(range(n)), n, k, tuple(c.shape for c in model.cores),
               tensor_net._plan_key(chebyshev_nodes(n - k + 1)))
        levels, _, perm = tensor_net._tree_schedule(*key)
        want = [explain(model, lifts, x, k), explain(model, lifts, x, k, subsets=subsets)]
        model, lifts = _random_model("btree", n, 3, seed=n + k + 3)  # no plan of the old schedule
        tensor_net._tree_schedule.cache_clear()
        monkeypatch.setattr(tensor_net, "sorted", lambda xs: sorted(xs, reverse=True),
                            raising=False)
        try:
            got_levels, _, got_perm = tensor_net._tree_schedule(*key)
            got = [explain(model, lifts, x, k), explain(model, lifts, x, k, subsets=subsets)]
        finally:
            tensor_net._tree_schedule.cache_clear()

        def listed(levels, step):  # each group's nodes, merge pairs and close pairs
            return [[(grp, tuple((o, merges[::step]) for o, merges in ups), closed[::step])
                     for grp, _, ups, closed, *_ in level] for level in levels]

        assert listed(got_levels, 1) == listed(levels, -1)
        assert not np.array_equal(got_perm, perm)
        for g, w in zip(got, want):
            assert g.subsets == w.subsets == tuple(sorted(w.subsets))
            np.testing.assert_allclose(g.values, w.values, rtol=0,
                                       atol=1e-13 * np.max(np.abs(w.values)))
        m = n - k + 1
        _assert_close(got[1].values, _flat_indices(model, lifts, x, subsets, chebyshev_nodes(m),
                                                   quadrature_weights(m)))

    @staticmethod
    def _uneven_model(name):
        """``mixed-<n>``: btree over n features lifted binary, poly (k = 2)
        and Fourier in turn, so leaf and node shapes change along a level;
        ``uneven-8``: btree n = 8 whose bonds differ within every level."""
        from tnshap import FeatureMap
        from tnshap.fit import _init_cores

        kind, n = name.split("-")
        n = int(n)
        if kind == "mixed":
            maps = [FeatureMap("binary"), FeatureMap("poly", k=2),
                    FeatureMap("fourier", k=1, omega=np.pi)]
            return gen_tree_teacher(n, 4, n, LiftSpec([maps[i % 3] for i in range(n)]))
        lifts = LiftSpec.binary(n)
        topo = TnTopology("btree", n, lifts.dims, (3, 2, 4, 1, 3, 2, 2, 1, 2, 2, 1, 2, 2, 1))
        cores = _init_cores(topo, np.random.default_rng(n), lambda shape: np.sqrt(shape[-1]))
        return TensorNetworkModel(topo, cores), lifts

    @pytest.mark.parametrize("b", [1, 17])
    @pytest.mark.parametrize("name", ["mixed-8", "mixed-24", "mixed-33", "uneven-8"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_level_nodes_of_different_shapes(self, rng, k, name, b):
        """Nodes of one level whose core shapes differ run in different
        groups of every pass; all subsets and an explicit list still match
        the flat reference."""
        tensor_net = attribute.tensor_net
        model, lifts = self._uneven_model(name)
        n, L = model.n, model.topology.leaf_count
        for level in (L // 2, L):  # the level above the leaves, and the leaves
            real = [v for v in range(level, 2 * level) if v - level < math.ceil(n * level / L)]
            assert len({model.cores[v - 1].shape for v in real}) > 1
        xs = rng.uniform(-1, 1, (b, n))
        m = n - k + 1
        nodes, weights = chebyshev_nodes(m), quadrature_weights(m)
        levels = tensor_net._tree_schedule(tuple(range(n)), n, k,
                                           tuple(c.shape for c in model.cores),
                                           tensor_net._plan_key(nodes))[0]
        assert len(levels[0]) > 1 and len(levels[1]) > 1
        values, _ = attribute._probe_values(model, lifts.lift_rows(xs), nodes, weights, k,
                                            SIGNED_TOGGLE, tuple(range(n)))
        _assert_sampled_subsets(rng, model, lifts, xs, values, k, nodes, weights)
        subsets = sorted({tuple(sorted(rng.choice(n, k, replace=False) + 1)) for _ in range(6)})
        got = explain(model, lifts, xs[0], k, subsets=subsets)
        _assert_close(got.values, _flat_indices(model, lifts, xs[0], subsets, nodes, weights))

    @pytest.mark.parametrize("b", [1, 17, 48])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 16, 24, 30, 33, 64, 100])
    def test_order1_matches_per_node_reference(self, rng, n, b):
        """k = 1 through the level loop: in both modes, and for an explicit
        list, the values equal to 1e-13 of max |value| those of a reference
        that runs the up and down passes node by node at each quadrature
        node."""
        model, lifts = _random_model("btree", n, 3, seed=n + b)
        xs = rng.uniform(-1, 1, (b, n))
        want = tree_order1_reference(model, lifts, xs, chebyshev_nodes(n), quadrature_weights(n))
        for mode, per in ((INCLUSION_EXCLUSION, 2), (SIGNED_TOGGLE, 1)):
            got = explain_batch(model, lifts, xs, 1, mode=mode)
            assert all(g.forwards_used == per * n * n for g in got)
            _assert_close(np.array([g.values for g in got]), want, rtol=1e-13)
        subsets = sorted({(1,), ((n + 1) // 2,), (n,)})
        got = explain_batch(model, lifts, xs, 1, subsets=subsets)
        _assert_close(np.array([g.values for g in got]), want[:, [s[0] - 1 for s in subsets]],
                      rtol=1e-13)

    def test_order0_passes_call_once_per_group(self, rng, monkeypatch):
        """On btree n = 24, r16, k = 3 (the triples-k3 shape) the order-0 up
        pass makes one contraction per group, the down pass one per group
        and one map per block. A model's first request stacks each group's
        cores once, not once per merge or close pair, and its second stacks
        none."""
        tensor_net = attribute.tensor_net
        model, lifts = _random_model("btree", 24, 16, seed=1)
        x = rng.uniform(-1, 1, 24)
        want = explain(model, lifts, x, 3).values
        model, lifts = _random_model("btree", 24, 16, seed=1)  # the same cores, no plan yet
        nodes = chebyshev_nodes(22)
        levels, pads, _ = tensor_net._tree_schedule(tuple(range(24)), 24, 3,
                                                    tuple(c.shape for c in model.cores),
                                                    tensor_net._plan_key(nodes))
        calls = {"_merge": 0, "_descend": 0, "adjoint": 0, "_group_cores": 0, "restacked": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        def stacked(arrays):
            calls["restacked"] += any(arrays[0] is c or arrays[0].base is c for c in model.cores)
            return original_stacked(arrays)

        original_stacked = tensor_net._stacked
        for name in ("_merge", "_descend", "_group_cores"):
            monkeypatch.setattr(tensor_net, name, counted(name, getattr(tensor_net, name)))
        monkeypatch.setattr(tensor_net._Interpolation, "adjoint",
                            counted("adjoint", tensor_net._Interpolation.adjoint))
        monkeypatch.setattr(tensor_net, "_stacked", stacked)
        assert np.array_equal(explain(model, lifts, x, 3).values, want)
        groups = [grp for level in levels for grp in level]
        merging = [g for g in groups if g[4] is not None and g[5] is not None]
        descending = [g for g in groups if g[4] is not None and any(g[7])]
        # a block below a descending group gets its adjoint through its map
        mapped = {(d, j) for d, (level, above) in enumerate(zip(levels, levels[1:]))
                  for grp in level for _, _, j, to in grp[6] if to is not None
                  and any(need and j in {i for i, _ in src} for g in above if g[4]
                          for src, need in zip(g[4:6], g[7]))}
        assert calls["_merge"] == len(merging) - 1  # the root sends no message
        assert calls["_descend"] == len(descending) < 10
        assert calls["adjoint"] == len(mapped)
        assert calls["_group_cores"] == len(groups) + len(pads)
        pairs = sum(len(merges) for grp in groups for _, merges in grp[2]) + sum(
            len(grp[3]) for grp in groups)
        assert calls["_group_cores"] < pairs and calls["restacked"] == 0
        calls["_group_cores"] = 0
        assert np.array_equal(explain(model, lifts, x, 3).values, want)
        assert calls["_group_cores"] == calls["restacked"] == 0

    def test_order1_passes_call_once_per_group(self, rng, monkeypatch):
        """On btree n = 30, r16, k = 1 (bulk-k1's shape), one instance, the
        up pass makes one ``_merge`` per merging group below the root and the
        down pass one ``_descend`` per internal group, and internal levels
        group: fewer calls than internal nodes."""
        tensor_net = attribute.tensor_net
        model, lifts = _random_model("btree", 30, 16, seed=1)
        x = rng.uniform(-1, 1, 30)
        levels, _, _ = tensor_net._tree_schedule(tuple(range(30)), 30, 1,
                                                 tuple(c.shape for c in model.cores),
                                                 tensor_net._plan_key(chebyshev_nodes(30)))
        calls = {"_merge": 0, "_descend": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(tensor_net, name, counted(name, getattr(tensor_net, name)))
        explain(model, lifts, x, 1)
        internal = [g for level in levels for g in level if g[4] is not None]
        merging = [g for g in internal if g[5] is not None]
        assert calls["_merge"] == len(merging) - 1  # the root sends no message
        assert calls["_descend"] == len(internal)
        nodes = sum(len(g[0]) for g in merging)
        assert calls["_merge"] < nodes - 1 and calls["_descend"] < nodes

    @pytest.mark.parametrize("b", [1, 17])
    @pytest.mark.parametrize("n", [5, 7, 16, 30, 33, 50, 100])
    def test_order1_groups_keep_per_node_values(self, rng, monkeypatch, n, b):
        """k = 1 values with grouped internal levels are bitwise those of a
        schedule that runs every internal node alone, as one step per node
        did: a group's batched calls do each node's arithmetic unchanged."""
        tensor_net = attribute.tensor_net
        xs = rng.uniform(-1, 1, (b, n))
        model, lifts = _random_model("btree", n, 8, seed=n)
        grouped = np.array([r.values for r in explain_batch(model, lifts, xs, 1)])
        width = tensor_net._step_width

        def alone(shape, points, to_parent, kids, *rest):
            # an internal node as wide as all leaves together cannot share a group
            return width(shape, points, to_parent, kids, *rest) if kids is None else 1 << 40

        tensor_net._tree_schedule.cache_clear()
        monkeypatch.setattr(tensor_net, "_step_width", alone)
        try:
            model, lifts = _random_model("btree", n, 8, seed=n)  # no plan yet
            key = tensor_net._plan_key(chebyshev_nodes(n))
            levels, _, _ = tensor_net._tree_schedule(tuple(range(n)), n, 1,
                                                     tuple(c.shape for c in model.cores), key)
            assert all(len(g[0]) == 1 for level in levels[1:] for g in level)
            single = np.array([r.values for r in explain_batch(model, lifts, xs, 1)])
        finally:  # no later test may read a schedule cut this way
            tensor_net._tree_schedule.cache_clear()
        assert np.array_equal(grouped, single)

    def test_order1_dct_maps_match_row_blocks(self, rng, monkeypatch):
        """btree n = 1000, r8, k = 1: the DCT maps above ``BLOCK_ENTRIES``
        give the values of the row-block maps, which rebuild the barycentric
        matrix at each use, to 1e-12 relative. This teacher's values
        underflow with n (max |phi| about 2e-122 here), so the check is
        relative to that scale."""
        tensor_net = attribute.tensor_net
        n = 1000
        model, lifts = _random_model("btree", n, 8, seed=1)
        x = rng.uniform(-1, 1, n)
        maps = [m for m in tensor_net._tree_plan(n, tensor_net._plan_key(chebyshev_nodes(n)))[1]
                if m is not None and m.mat is None]
        assert maps and all(m.dct is not None for m in maps)
        got = explain(model, lifts, x, 1).values
        for m in maps:
            monkeypatch.setattr(m, "dct", None)
        want = explain(model, lifts, x, 1).values
        assert np.abs(want).max() > 0
        _assert_close(got, want)

    @pytest.mark.parametrize("n,k", [(n, k) for n in (24, 30, 64, 100, 2000) for k in (1, 2, 3)
                                     if (n, k) != (2000, 3)])
    def test_group_cut_keeps_temporaries_within_widest_node(self, rng, n, k):
        """Schedule only: no group's temporaries per instance, summed over
        its nodes by ``_step_width`` (order-0 and stacked steps alike), pass
        the widest of any one node of the request. (n = 2000 stops at k = 2:
        the schedule's permutation there would sort C(2000, 3) subsets.)"""
        tensor_net = attribute.tensor_net
        model, _ = _random_model("btree", n, 8, seed=n)
        key = tensor_net._plan_key(chebyshev_nodes(n - k + 1))
        levels, _, _ = tensor_net._tree_schedule(tuple(range(n)), n, k,
                                                 tuple(c.shape for c in model.cores), key)
        points, maps, _ = tensor_net._tree_plan(n, key)
        L = model.topology.leaf_count
        stacks = {}  # node -> {order: choices}; pads keep order 0 only
        width = {}
        for level in levels:
            for grp, keep, ups, closes, left, right, _, toggles in level:
                for v in grp:
                    own = {0: 1} if keep else {}
                    shape = tensor_net._node_core(model.cores, v).shape
                    if left is None:
                        own.update({1: 1} if toggles and k > 1 else {})
                        kids = None
                    else:
                        wl, wr = (stacks.get(c, {0: 1}) for c in (2 * v, 2 * v + 1))
                        own.update({o: sum(wl[i] * wr[j] for i, j in merges) for o, merges in ups})
                        kids = (tuple(wl.items()), tuple(wr.items()))
                    stacks[v] = own
                    width[v] = tensor_net._step_width(shape, points[v].shape[0], maps[v], kids,
                                                      ups, closes, right is None and v < L,
                                                      toggles)
        widest = max(width.values())
        for level in levels:
            for grp, *_ in level:
                assert sum(width[v] for v in grp) <= widest

    def test_stacked_pass_calls_once_per_group(self, rng, monkeypatch):
        """On btree n = 24, r16, k = 3 (the triples-k3 shape) the stacked pass
        merges and closes once per level group and pair: 26 by the schedule,
        where one call per node made 86 merges and 22 closes."""
        tensor_net = attribute.tensor_net
        model, lifts = _random_model("btree", 24, 16, seed=1)
        x = rng.uniform(-1, 1, 24)
        want = explain(model, lifts, x, 3).values
        calls, depth = [], [0]

        def counted(name):
            original = getattr(tensor_net, name)

            def wrapper(*args):
                if depth[0] == 0:
                    calls.append(name)
                depth[0] += 1
                try:
                    return original(*args)
                finally:
                    depth[0] -= 1
            return wrapper

        for name in ("_toggle_merge", "_toggle_close"):
            monkeypatch.setattr(tensor_net, name, counted(name))
        got = explain(model, lifts, x, 3).values
        assert np.array_equal(got, want)
        assert 0 < len(calls) <= 32

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    @pytest.mark.parametrize("n", [5, 7, 24, 33])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_higher_order_gauss_legendre_nodes_match_flat_probes(self, rng, k, n, kind):
        """Root nodes that are no Chebyshev set, at every order, on both
        topologies."""
        model, lifts = _random_model(kind, n, 3, seed=n + k + 2)
        xs = rng.uniform(-1, 1, (3, n))
        g, w = np.polynomial.legendre.leggauss((n - k) // 2 + 1)
        nodes, weights = 0.5 * (g + 1.0), 0.5 * w
        values, _ = attribute._probe_values(model, lifts.lift_rows(xs), nodes, weights, k,
                                            SIGNED_TOGGLE, tuple(range(n)))
        _assert_sampled_subsets(rng, model, lifts, xs, values, k, nodes, weights)

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_scaled_inputs_and_no_full_up_pass(self, rng, monkeypatch, k, kind):
        """A request at any order on either topology builds no (B * m)-row
        selector-scaled inputs and runs no all-nodes environment pass."""
        n = 7
        model, lifts = _random_model(kind, n, 3, seed=k)
        x = rng.uniform(-1, 1, n)
        subset = tuple(range(1, k + 1))
        want = explain(model, lifts, x, k).values, probe_value(model, lifts, x, subset, 0.37)

        def forbidden(*args):
            raise AssertionError(f"called on a {kind} request")

        monkeypatch.setattr(oracle, "_scaled_inputs", forbidden)
        monkeypatch.setattr(attribute.tensor_net, "tree_up_messages", forbidden)
        monkeypatch.setattr(attribute.tensor_net, "tt_right_states", forbidden)
        assert np.array_equal(explain(model, lifts, x, k).values, want[0])
        assert probe_value(model, lifts, x, subset, 0.37) == want[1]

    def test_n2000_memory_and_efficiency(self, rng):
        """btree n = 2000, k = 1 (2048 leaf slots, m = 2000 nodes): the root's
        children interpolate from 1025 and 977 points and every matrix above
        2^16 entries is built in row blocks, so the request, plan and
        quadrature weights built cold, peaks under 32 MB (the all-nodes
        sweep took 555 MB) and satisfies efficiency."""
        import tracemalloc

        n = 2000
        model, lifts = _random_model("btree", n, 8, seed=3)
        x = rng.uniform(-1, 1, n)
        attribute.quadrature_weights.cache_clear()
        attribute.tensor_net._tree_plan.cache_clear()
        attribute.tensor_net._tree_schedule.cache_clear()
        tracemalloc.start()
        try:
            phi = explain(model, lifts, x, 1).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        on = model.forward(lifts.lift_instance(x))
        off = model.forward([off_state(d) for d in lifts.dims])
        assert abs(phi.sum() - (on - off)) <= 1e-10 * np.abs(phi).sum()


class TestTreeInputs:
    """A tree model keeps what ``tree_probes`` derives from its cores alone
    (each level group's stacked cores, the pad-only subtrees folded into
    their parents' cores, the flipped cores) per request shape: its first
    request builds them, later ones reuse them, and they go with the model.
    A request lifts each distinct map once and toggles its own rows in
    place."""

    @staticmethod
    def _plan_arrays(model):
        return [a for _, stacked, folds, flips in model._plans.values()
                for a in (*(c for level in stacked for c in level), *folds.values(),
                          *flips.values())]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_second_request_stacks_no_cores(self, rng, monkeypatch, k):
        tensor_net = attribute.tensor_net
        model, lifts = _random_model("btree", 24, 4, seed=k)
        xs = rng.uniform(-1, 1, (3, 24))
        subsets = [tuple(range(1, k + 1)), tuple(range(25 - k, 25))]

        def requests():
            return [r.values for r in (*explain_batch(model, lifts, xs, k),
                                       *explain_batch(model, lifts, xs, k, subsets=subsets))]

        first = requests()
        calls = []
        original = tensor_net._group_cores
        monkeypatch.setattr(tensor_net, "_group_cores", lambda *a: calls.append(a) or original(*a))
        again = requests()
        assert calls == []
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))

    def test_models_of_one_topology_keep_their_own_plans(self, rng):
        one, lifts = _random_model("btree", 11, 3, seed=1)
        two, _ = _random_model("btree", 11, 3, seed=2)
        assert one.topology == two.topology
        x = rng.uniform(-1, 1, 11)
        subsets = list(itertools.combinations(range(1, 12), 2))
        nodes, weights = chebyshev_nodes(10), quadrature_weights(10)
        for model in (one, two, one, two):
            _assert_close(explain(model, lifts, x, 2).values,
                          _flat_indices(model, lifts, x, subsets, nodes, weights))
        assert not any(np.shares_memory(a, b) for a in self._plan_arrays(one)
                       for b in self._plan_arrays(two))

    def test_plan_goes_with_its_model(self, rng):
        import gc
        import weakref

        model, lifts = _random_model("btree", 24, 4, seed=3)
        explain(model, lifts, rng.uniform(-1, 1, 24), 2)
        assert model._plans
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_plan_arrays_read_only(self, rng):
        """btree n = 24, k = 3 has folded groups (node 3's right child holds
        pads only) and flipped ones (the root's left stacks outgrow its
        right ones)."""
        model, lifts = _random_model("btree", 24, 4, seed=4)
        explain(model, lifts, rng.uniform(-1, 1, 24), 3)
        ((_, _, folds, flips),) = model._plans.values()
        assert folds and flips
        assert not any(a.flags.writeable for a in self._plan_arrays(model))

    def test_plans_bounded_like_the_schedule_cache(self, rng):
        model, lifts = _random_model("btree", 9, 2, seed=5)
        x = rng.uniform(-1, 1, 9)
        bound = attribute.tensor_net._tree_schedule.cache_parameters()["maxsize"]
        # each list toggles its own three legs: one request shape apiece
        for features in itertools.islice(itertools.combinations(range(1, 10), 3), bound + 6):
            explain(model, lifts, x, 1, subsets=[(i,) for i in features])
        assert len(model._plans) == bound

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_requests_call_no_signed_toggle(self, rng, monkeypatch, kind):
        from tnshap import lift

        def refuse(v):
            raise AssertionError("signed_toggle called")

        model, lifts = _random_model(kind, 6, 3, seed=6)
        xs = rng.uniform(-1, 1, (4, 6))
        for module in (lift, attribute):
            monkeypatch.setattr(module, "signed_toggle", refuse, raising=False)
        for k in (1, 2):
            assert all(not isinstance(r, Exception) for r in explain_batch(model, lifts, xs, k))
        probe_value(model, lifts, xs[0], (1, 2), 0.37)

    @pytest.mark.parametrize("b", [1, 17])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind,n,mixed", [("tt", 7, True), ("tt", 24, False),
                                              ("btree", 5, False), ("btree", 24, True),
                                              ("btree", 33, False)])
    def test_values_equal_the_engine_on_copied_toggles(self, rng, monkeypatch, kind, n, mixed,
                                                       k, b):
        """``explain_batch``, the first request on its model and the second,
        gives bitwise the engine's values on a fresh model whose every leg
        is lifted alone and copied through ``signed_toggle``."""
        from tnshap import FeatureMap

        tensor_net = attribute.tensor_net
        maps = [FeatureMap("binary"), FeatureMap("poly", k=2),
                FeatureMap("fourier", k=2, omega=1.3)]
        spec = LiftSpec([maps[i % 3] for i in range(n)]) if mixed else None
        model, lifts = _random_model(kind, n, 3, seed=n + k, lifts=spec)
        fresh, _ = _random_model(kind, n, 3, seed=n + k, lifts=spec)
        xs = rng.uniform(-1, 1, (b, n))
        m = n - k + 1
        nodes, weights = chebyshev_nodes(m), quadrature_weights(m)
        legs = tuple(range(n))
        monkeypatch.setattr(attribute, "STACK_ENTRY_BUDGET", 1 << 30)  # one sweep, as ``engine``
        toggled = [signed_toggle(fm.apply_batch(xs[:, i])) for i, fm in enumerate(lifts.maps)]
        engine = tensor_net.tt_probes if kind == "tt" else tensor_net.tree_probes
        want = engine(fresh, toggled, nodes, weights, k, legs)
        for _ in range(2):
            got = np.array([r.values for r in explain_batch(model, lifts, xs, k)])
            assert got.tobytes() == want.tobytes()
