"""Enumeration oracle, exact indices, Mobius coefficients, diagonal probe."""

import numpy as np
import pytest

from conftest import (
    additive_model,
    brute_shapley,
    coalition_value_fn,
    product_model,
    random_tt_model,
)
from tnshap import (
    CoalitionTable,
    LiftSpec,
    TensorNetworkModel,
    TnTopology,
    diagonal_coefficient_probe,
    enumerate_game,
    exact_sii,
    gen_cp_teacher,
    gen_tree_teacher,
    mobius_coefficients,
    sii_weights,
    size_grouped_sums,
)
from tnshap.lift import off_state


def naive_mobius(values):
    """4^n double loop: c_T = sum over L within T of (-1)^(|T|-|L|) v(L)."""
    size = len(values)
    n = size.bit_length() - 1
    out = np.zeros(size)
    for t in range(size):
        total = 0.0
        sub = t
        while True:
            sign = (-1) ** (bin(t).count("1") - bin(sub).count("1"))
            total += sign * values[sub]
            if sub == 0:
                break
            sub = (sub - 1) & t
        out[t] = total
    return out


def subset_sums(coeffs):
    """Zeta transform: v(C) = sum of c_T over T within C, one pass per bit."""
    v = np.array(coeffs, dtype=np.float64)
    n = v.shape[0].bit_length() - 1
    for i in range(n):
        v = v.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
        v = v.reshape(-1)
    return v


class TestEnumeration:
    def test_product_game_table(self):
        model, lifts = product_model()
        table = enumerate_game(model, lifts, [1.0, 1.0])
        np.testing.assert_allclose(table.values, [0.0, 0.0, 0.0, 1.0])

    def test_constant_model_table(self):
        topo = TnTopology("tt", 3, (2,) * 3, (1, 1))
        bias = np.array([[0.0], [1.0]]).reshape(1, 2, 1)
        model = TensorNetworkModel(topo, [2.5 * bias, bias, bias])
        table = enumerate_game(model, LiftSpec.binary(3), [1, 2, 3])
        np.testing.assert_allclose(table.values, np.full(8, 2.5))

    def test_full_mask_equals_plain_forward(self, rng):
        model, lifts = random_tt_model(rng, 4)
        x = rng.uniform(-1, 1, 4)
        table = enumerate_game(model, lifts, x)
        assert table.values[-1] == pytest.approx(model.forward(lifts.lift_instance(x)))

    def test_uses_exactly_2n_forwards(self, rng):
        model, lifts = random_tt_model(rng, 6)
        before = model.forward_count
        table = enumerate_game(model, lifts, rng.uniform(-1, 1, 6))
        assert model.forward_count - before == 64 == table.forwards_used

    @pytest.mark.parametrize("budget", [None, 100])
    def test_chunks_forward_batch_to_row_budget(self, monkeypatch, budget):
        """A tree keeps every node's message per row, so the 2^n masks go in
        calls of at most ``FLAT_ROW_BUDGET`` rows; values match one
        unchunked call."""
        from tnshap import oracle

        if budget is not None:
            monkeypatch.setattr(oracle, "FLAT_ROW_BUDGET", budget)
        n = 14
        model, lifts = gen_tree_teacher(n, 3, seed=2)
        x = np.random.default_rng(3).uniform(-1, 1, n)
        lifted = lifts.lift_instance(x)
        masks = np.arange(1 << n)
        legs = [np.where(((masks >> r) & 1)[:, None] == 1, lifted[r], off_state(2))
                for r in range(n)]
        reference = model.forward_batch(legs)
        rows = []
        original = model.forward_batch
        model.forward_batch = lambda legs: rows.append(legs[0].shape[0]) or original(legs)
        table = enumerate_game(model, lifts, x)
        assert max(rows) <= oracle.FLAT_ROW_BUDGET
        assert sum(rows) == 1 << n == table.forwards_used
        np.testing.assert_allclose(table.values, reference, rtol=1e-13, atol=1e-15)

    def test_size_guard_refuses_before_work(self):
        class Big:
            n = 21

        with pytest.raises(ValueError, match="2097152"):
            enumerate_game(Big(), LiftSpec.binary(21), np.zeros(21))


class TestExactIndices:
    def test_product_table_shapley(self):
        table = CoalitionTable(n=2, values=np.array([0.0, 0.0, 0.0, 1.0]))
        np.testing.assert_allclose(exact_sii(table, 1).values, [0.5, 0.5])

    def test_additive_table_recovers_coefficients(self, rng):
        a = rng.standard_normal(4)
        masks = np.arange(16)
        values = np.array([
            sum(a[i] for i in range(4) if (m >> i) & 1) for m in masks
        ])
        table = CoalitionTable(n=4, values=values)
        np.testing.assert_allclose(exact_sii(table, 1).values, a, atol=1e-12)

    def test_efficiency(self, rng):
        table = CoalitionTable(n=5, values=rng.standard_normal(32))
        phi = exact_sii(table, 1).values
        assert phi.sum() == pytest.approx(table.values[-1] - table.values[0], abs=1e-10)

    def test_triple_product_full_order(self):
        # g = x1 x2 x3 at x = 1: only the full coalition has value 1
        values = np.zeros(8)
        values[7] = 1.0
        table = CoalitionTable(n=3, values=values)
        np.testing.assert_allclose(exact_sii(table, 3).values, [1.0])

    def test_additive_game_zero_pairs(self, rng):
        model, lifts = additive_model()
        table = enumerate_game(model, lifts, [1.0, 1.0])
        np.testing.assert_allclose(exact_sii(table, 2).values, [0.0], atol=1e-12)

    @pytest.mark.parametrize("k", [True, 2.0, 1.0, "2"])
    def test_order_that_is_not_an_integer_rejected(self, k):
        """A bool or non-integral order is refused as ``explain_batch`` refuses
        it, not read as order 1 or passed to ``range``."""
        table = CoalitionTable(n=3, values=np.arange(8.0))
        with pytest.raises(ValueError, match=rf"^order k={k!r} is not an integer$"):
            sii_weights(3, k)
        with pytest.raises(ValueError, match=rf"^order k={k!r} is not an integer$"):
            exact_sii(table, k)

    def test_matches_independent_powerset_oracle(self, rng):
        model, lifts = random_tt_model(rng, 5, bond=3)
        x = rng.uniform(-1, 1, 5)
        table = enumerate_game(model, lifts, x)
        value = coalition_value_fn(model, lifts, x)
        np.testing.assert_allclose(exact_sii(table, 1).values, brute_shapley(5, value),
                                   atol=1e-10)


class TestMobius:
    def test_product_table(self):
        table = CoalitionTable(n=2, values=np.array([0.0, 0.0, 0.0, 1.0]))
        np.testing.assert_allclose(mobius_coefficients(table), [0.0, 0.0, 0.0, 1.0])

    def test_constant_table(self):
        table = CoalitionTable(n=3, values=np.full(8, 4.2))
        coeffs = mobius_coefficients(table)
        expected = np.zeros(8)
        expected[0] = 4.2
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_fast_transform_matches_naive_double_loop(self, rng):
        for n in (1, 3, 6, 8):
            values = rng.standard_normal(1 << n)
            table = CoalitionTable(n=n, values=values)
            np.testing.assert_allclose(
                mobius_coefficients(table), naive_mobius(values), atol=1e-10
            )

    def test_zeta_roundtrip(self, rng):
        for n in (2, 5, 10):
            values = rng.standard_normal(1 << n)
            table = CoalitionTable(n=n, values=values)
            back = subset_sums(mobius_coefficients(table))
            assert np.max(np.abs(back - values)) < 1e-10

    def test_size_grouped_sums(self, rng):
        coeffs = rng.standard_normal(16)
        grouped = size_grouped_sums(coeffs)
        expected = np.zeros(5)
        for mask in range(16):
            expected[bin(mask).count("1")] += coeffs[mask]
        np.testing.assert_allclose(grouped, expected)


class TestDiagonalProbe:
    def test_product_game(self):
        model, lifts = product_model()
        sums = diagonal_coefficient_probe(model, lifts, [1.0, 1.0])
        np.testing.assert_allclose(sums, [0.0, 0.0, 1.0], atol=1e-12)

    def test_constant_model(self):
        topo = TnTopology("tt", 2, (2, 2), (1,))
        bias = np.array([[0.0], [1.0]]).reshape(1, 2, 1)
        model = TensorNetworkModel(topo, [3.0 * bias, bias])
        sums = diagonal_coefficient_probe(model, LiftSpec.binary(2), [0.7, 0.1])
        np.testing.assert_allclose(sums, [3.0, 0.0, 0.0], atol=1e-12)

    def test_agrees_with_mobius_groupings(self, rng):
        """Cross-oracle property: interpolated size sums equal the grouped
        subset-transform coefficients."""
        for trial in range(5):
            n = int(rng.integers(2, 8))
            if trial % 2:
                model, lifts = random_tt_model(rng, n, bond=3)
            else:
                model, lifts = gen_tree_teacher(n, 3, seed=trial)
            x = rng.uniform(-1, 1, n)
            probed = diagonal_coefficient_probe(model, lifts, x)
            grouped = size_grouped_sums(mobius_coefficients(enumerate_game(model, lifts, x)))
            np.testing.assert_allclose(probed, grouped, atol=1e-8)


    @pytest.mark.parametrize("kind,n", [("btree", 6), ("tt", 5), ("btree", 1)])
    def test_charges_n_plus_1_forwards(self, rng, kind, n):
        """n + 1 forwards go to the model given (a 6-leaf tree pads to 8
        leaves)."""
        if kind == "tt":
            model, lifts = random_tt_model(rng, n)
        else:
            model, lifts = gen_tree_teacher(n, 3, seed=n)
        before = model.forward_count
        sums = diagonal_coefficient_probe(model, lifts, rng.uniform(-1, 1, n))
        assert model.forward_count - before == n + 1
        assert sums.shape == (n + 1,) and sums.dtype == np.float64


def _grouped_mobius_chunked(model, lifts, x, chunk=1 << 14):
    """Grouped Moebius sums of the 2^n coalition table, built in row chunks
    with the same on/off legs as ``enumerate_game`` so n = 20 stays small."""
    lifted = lifts.lift_instance(x)
    values = np.empty(1 << model.n)
    for start in range(0, values.shape[0], chunk):
        masks = np.arange(start, min(start + chunk, values.shape[0]))
        legs = [np.where(((masks >> r) & 1)[:, None] == 1, v, off_state(v.shape[0]))
                for r, v in enumerate(lifted)]
        values[masks] = model.forward_batch(legs)
    return size_grouped_sums(mobius_coefficients(CoalitionTable(n=model.n, values=values)))


class TestDiagonalProbeConditioning:
    @pytest.mark.parametrize("n", [16, 20])
    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_matches_mobius_at_table_limit(self, kind, n):
        """At the oracle's largest sizes the probe's sums agree with grouped
        Moebius coefficients to 1e-9 of the largest sum."""
        if kind == "tt":
            model, lifts = gen_cp_teacher(n, 3, seed=n)
        else:
            model, lifts = gen_tree_teacher(n, 3, seed=n)
        x = np.random.default_rng(n).uniform(-1, 1, n)
        grouped = _grouped_mobius_chunked(model, lifts, x)
        probed = diagonal_coefficient_probe(model, lifts, x)
        assert np.max(np.abs(probed - grouped)) <= 1e-9 * np.max(np.abs(grouped))

