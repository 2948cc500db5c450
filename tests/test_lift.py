"""Feature lifts and selector algebra."""

import numpy as np
import pytest

from conftest import random_tt_model
from tnshap import FeatureMap, LiftSpec, off_state, signed_toggle
from tnshap.attribute import chebyshev_nodes
from tnshap.oracle import _scaled_inputs


def select(t: float, v) -> np.ndarray:
    """The oracle's selector Diag(t * I_{d-1}, 1) on one lifted vector."""
    return _scaled_inputs([np.asarray(v, dtype=np.float64)], np.array([t]))[0][0]


def lift_one(fmap, x: float) -> np.ndarray:
    """The lifted vector [phi(x), 1] of one scalar input."""
    return fmap.apply_batch(np.array([x]))[0]


class TestLifts:
    def test_binary(self):
        np.testing.assert_allclose(lift_one(FeatureMap("binary"), 3.5), [3.5, 1.0])

    def test_polynomial_degree_two(self):
        np.testing.assert_allclose(lift_one(FeatureMap("poly", k=2), 2.0), [2.0, 4.0, 1.0])

    def test_fourier_first_harmonic(self):
        got = lift_one(FeatureMap("fourier", k=1, omega=np.pi), 0.5)
        np.testing.assert_allclose(got, [1.0, 0.0, 1.0], atol=1e-15)

    def test_dims(self):
        assert FeatureMap("binary").dim == 2
        assert FeatureMap("poly", k=3).dim == 4
        assert FeatureMap("fourier", k=2).dim == 5

    def test_off_state_consistency_binary_poly(self):
        """lift(0) equals the all-off state for binary and poly maps."""
        for fmap in (FeatureMap("binary"), FeatureMap("poly", k=3)):
            np.testing.assert_allclose(lift_one(fmap, 0.0), off_state(fmap.dim))

    def test_fourier_off_state_is_synthetic(self):
        """phi(0) != 0 for cosine channels: the off state is not lift(0)."""
        fmap = FeatureMap("fourier", k=1, omega=np.pi)
        assert not np.allclose(lift_one(fmap, 0.0), off_state(fmap.dim))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap("spline")

    @pytest.mark.parametrize("fields,needle", [
        ({"kind": "poly", "k": 2.9}, "k must be an integer, got 2.9"),
        ({"kind": "fourier", "k": 2.0, "omega": 1.0}, "k must be an integer"),
        ({"kind": "fourier", "k": 1, "omega": float("inf")}, "omega must be finite"),
        ({"kind": "fourier", "k": 1, "omega": float("nan")}, "omega must be finite"),
    ], ids=["poly-k-2.9", "fourier-k-2.0", "omega-inf", "omega-nan"])
    def test_from_json_rejects_non_integral_k_and_non_finite_omega(self, fields, needle):
        with pytest.raises(ValueError, match=needle):
            FeatureMap.from_json_dict(fields)

    @pytest.mark.parametrize("n", [2.0, True], ids=["2.0", "True"])
    def test_binary_refuses_non_integral_n(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            LiftSpec.binary(n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lift_instance_rejects_non_finite(self, bad):
        spec = LiftSpec.binary(3)
        with pytest.raises(ValueError, match="feature 2"):
            spec.lift_instance([0.5, bad, 0.1])

    def test_lift_rows_match_lift_instance(self, rng):
        spec = LiftSpec([FeatureMap("binary"), FeatureMap("poly", k=2), FeatureMap("fourier", k=2)])
        xs = rng.uniform(-1, 1, (4, 3))
        cols = spec.lift_rows(xs)
        assert [c.shape for c in cols] == [(4, 2), (4, 3), (4, 5)]
        for b, x in enumerate(xs):
            for col, v in zip(cols, spec.lift_instance(x)):
                np.testing.assert_array_equal(col[b], v)

    def test_lift_rows_one_call_per_distinct_map(self, rng, monkeypatch):
        """A spec of binary, poly and Fourier maps, each on several features
        and equal maps built apart: one ``apply_batch`` call per distinct
        map, bitwise equal to lifting each feature's column alone, one
        contiguous (B, d_i) array per feature."""
        maps = [FeatureMap("binary"), FeatureMap("poly", k=3),
                FeatureMap("fourier", k=2, omega=1.3)]
        spec = LiftSpec.from_json_list([maps[i % 3].to_json_dict() for i in range(10)])
        xs = rng.uniform(-1, 1, (17, 10))
        want = [m.apply_batch(xs[:, i]) for i, m in enumerate(spec.maps)]
        calls = []
        original = FeatureMap.apply_batch
        monkeypatch.setattr(FeatureMap, "apply_batch",
                            lambda self, x: calls.append(self) or original(self, x))
        got = spec.lift_rows(xs)
        assert sorted(calls, key=maps.index) == maps
        for g, w in zip(got, want):
            assert g.flags.c_contiguous and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_spec_roundtrip(self):
        spec = LiftSpec(
            [FeatureMap("binary"), FeatureMap("poly", k=2), FeatureMap("fourier", k=1, omega=2.0)]
        )
        again = LiftSpec.from_json_list(spec.to_json_list())
        assert again.dims == spec.dims == (2, 3, 3)
        x = [0.4, -0.7, 0.3]
        for v, w in zip(again.lift_instance(x), spec.lift_instance(x)):
            np.testing.assert_allclose(v, w)


class TestSelectors:
    def test_scaling(self):
        np.testing.assert_allclose(select(0.5, np.array([2.0, 1.0])), [1.0, 1.0])

    def test_identity(self, rng):
        v = rng.standard_normal(4)
        v[-1] = 1.0
        np.testing.assert_allclose(select(1.0, v), v)

    def test_off(self):
        np.testing.assert_allclose(select(0.0, np.array([7.0, -2.0, 1.0])), [0.0, 0.0, 1.0])

    def test_semigroup_on_data_channels(self, rng):
        v = rng.standard_normal(5)
        np.testing.assert_allclose(select(0.3, select(0.7, v)), select(0.21, v), rtol=1e-12)

    def test_signed_toggle(self):
        np.testing.assert_allclose(signed_toggle(np.array([3.5, 1.0])), [3.5, 0.0])
        np.testing.assert_allclose(signed_toggle(np.array([1.0, 2.0, 1.0])), [1.0, 2.0, 0.0])

    def test_signed_toggle_identity_on_models(self, rng):
        """g(toggled) == g(on) - g(off) leg by leg, by multilinearity."""
        model, lifts = random_tt_model(rng, 5, bond=3)
        x = rng.uniform(-1, 1, 5)
        lifted = lifts.lift_instance(x)
        for i in range(5):
            on = list(lifted)
            off = list(lifted)
            tog = list(lifted)
            off[i] = off_state(2)
            tog[i] = signed_toggle(lifted[i])
            lhs = model.forward(tog)
            rhs = model.forward(on) - model.forward(off)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestSelectorPolynomial:
    def test_subset_scaling_is_low_degree_polynomial(self, rng):
        """t -> forward with selectors on a subset S is a polynomial of
        degree at most |S|: interpolating at |S|+1 nodes reproduces values
        at fresh points to 1e-9."""
        model, lifts = random_tt_model(rng, 6, bond=3)
        x = rng.uniform(-1, 1, 6)
        lifted = lifts.lift_instance(x)
        subset = (1, 3, 4)
        deg = len(subset)

        def value(t):
            # the selector scales a leg's data channels by t and keeps its bias
            legs = [np.append(t * v[:-1], v[-1]) if (i + 1) in subset else v
                    for i, v in enumerate(lifted)]
            return model.forward(legs)

        nodes = chebyshev_nodes(deg + 1)
        coeffs = np.polynomial.polynomial.polyfit(nodes, [value(t) for t in nodes], deg)
        for t in np.linspace(0.05, 0.95, 7):
            predicted = float(np.polyval(coeffs[::-1], t))
            assert abs(predicted - value(t)) < 1e-9

    def test_all_nodes_in_unit_interval(self):
        for m in (1, 2, 5, 12):
            nodes = chebyshev_nodes(m)
            assert np.all(nodes > 0) and np.all(nodes < 1)
