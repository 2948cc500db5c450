"""Tensor-network storage, contraction, cut rank, and serialization."""

import base64
import json
import sys
from itertools import product

import numpy as np
import pytest

from conftest import (
    additive_model,
    chebyshev_map_reference,
    product_model,
    random_tt_model,
    tree_down_messages,
    tt_left_states,
)
from tnshap import (
    LiftSpec,
    TensorNetworkModel,
    TnTopology,
    capped_uniform_bonds,
    cut_rank,
    gen_tree_teacher,
    load_model,
    materialize_full,
    model_from_json_dict,
    model_to_json_dict,
    save_model,
)
from tnshap.tensor_net import (
    _toggle_merge,
    chebyshev_interpolation,
    chebyshev_nodes,
    tree_up_messages,
    tt_right_states,
)


class TestForward:
    def test_constant_rank1_train(self):
        """A bias-only train returns 1 on any input with bias channel 1."""
        topo = TnTopology("tt", 3, (2, 2, 2), (1, 1))
        bias_core = np.array([[0.0], [1.0]]).reshape(1, 2, 1)
        model = TensorNetworkModel(topo, [bias_core] * 3)
        lifts = LiftSpec.binary(3)
        for x in ([0.0, 0.0, 0.0], [5.0, -2.0, 0.3]):
            assert model.forward(lifts.lift_instance(x)) == pytest.approx(1.0)

    def test_product_monomial(self):
        model, lifts = product_model()
        assert model.forward(lifts.lift_instance([1.0, 1.0])) == pytest.approx(1.0)
        assert model.forward(lifts.lift_instance([0.0, 1.0])) == pytest.approx(0.0)
        assert model.forward(lifts.lift_instance([2.0, 3.0])) == pytest.approx(6.0)

    def test_multilinearity_per_mode(self, rng):
        """forward(..., s*a + t*b, ...) == s*forward(a) + t*forward(b)."""
        model, lifts = random_tt_model(rng, 5, bond=3)
        base = lifts.lift_instance(rng.uniform(-1, 1, 5))
        for mode in range(5):
            a = rng.standard_normal(2)
            b = rng.standard_normal(2)
            s, t = rng.standard_normal(2)
            mixed = list(base)
            mixed[mode] = s * a + t * b
            with_a = list(base)
            with_a[mode] = a
            with_b = list(base)
            with_b[mode] = b
            lhs = model.forward(mixed)
            rhs = s * model.forward(with_a) + t * model.forward(with_b)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_counter_increments(self, rng):
        model, lifts = random_tt_model(rng, 4)
        legs = lifts.lift_instance([0.1, 0.2, 0.3, 0.4])
        assert model.forward_count == 0
        model.forward(legs)
        assert model.forward_count == 1
        model.forward_batch([np.tile(v, (7, 1)) for v in legs])
        assert model.forward_count == 8

    def test_dimension_mismatch_names_mode(self, rng):
        model, lifts = random_tt_model(rng, 3)
        legs = lifts.lift_instance([0.0, 0.0, 0.0])
        legs[1] = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="mode 2"):
            model.forward(legs)

    def test_tree_forward_matches_dense(self, rng):
        """Tree contraction equals the dense mode product, dummies included."""
        for n in (2, 3, 4, 5, 7):
            teacher, lifts = gen_tree_teacher(n, 3, seed=n)
            dense = materialize_full(teacher)
            for _ in range(20):
                legs = [rng.standard_normal(d) for d in teacher.phys_dims]
                ref = dense
                for v in legs:
                    ref = np.tensordot(ref, v, axes=([0], [0]))
                assert teacher.forward(legs) == pytest.approx(float(ref), abs=1e-12)

    def test_single_feature_tree(self):
        """A one-leaf tree degenerates to a single physical core."""
        teacher, lifts = gen_tree_teacher(1, 4, seed=0)
        assert teacher.topology.leaf_count == 1
        assert teacher.cores[0].shape == (2,)
        legs = lifts.lift_instance([0.3])
        expected = float(teacher.cores[0] @ legs[0])
        assert teacher.forward(legs) == pytest.approx(expected)
        np.testing.assert_allclose(materialize_full(teacher), teacher.cores[0])


class TestEnvironmentCuts:
    """Closing an environment pass at any cut gives the forward pass: every
    oriented use of the row-wise contraction helpers is checked against
    ``forward_batch``, which the tests above check against the dense tensor."""

    def test_tt_prefix_times_suffix_at_every_cut(self, rng):
        model, _ = random_tt_model(rng, 7, bond=4)
        legs = [rng.standard_normal((33, d)) for d in model.phys_dims]
        want = model.forward_batch(legs)
        left = tt_left_states(model.cores, legs)
        right = tt_right_states(model.cores, legs)
        for i in range(model.n + 1):
            got = np.sum(left[i] * right[i], axis=1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", [1, 2, 6])  # one leaf; two leaves; 8 slots, 2 pads
    def test_tree_up_times_down_at_every_node(self, rng, n):
        """From the root, whose up message is the output and whose down
        message is all ones, to every leaf."""
        model, _ = gen_tree_teacher(n, 3, seed=4)
        legs = [rng.standard_normal((33, d)) for d in model.phys_dims]
        want = model.forward_batch(legs)
        up = tree_up_messages(model.topology, model.cores, legs)
        down = tree_down_messages(model.topology, model.cores, up)
        assert up[1].shape == (33, 1)
        for v in range(1, 2 * model.topology.leaf_count):
            got = np.sum(up[v] * down[v], axis=1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestCutRank:
    def test_tt_uniform(self):
        topo = TnTopology("tt", 5, (2,) * 5, (4, 4, 4, 4))
        assert cut_rank(topo) == 4

    def test_tt_declared_bonds_verbatim(self):
        topo = TnTopology("tt", 4, (2,) * 4, (2, 8, 2))
        assert cut_rank(topo) == 8

    def test_balanced_tree_uniform_three(self):
        """Enumerated connected-bipartition oracle agrees: chi = 3."""
        topo = TnTopology("btree", 4, (2,) * 4, (3,) * 6)
        assert cut_rank(topo) == 3
        # Oracle: edges (child, parent) in heap order; a cut into two
        # connected halves of a tree removes exactly one edge, so enumerate
        # vertex bipartitions, keep connected ones, and take the crossing
        # product.
        edges = [(v, v // 2) for v in range(2, 8)]
        nodes = list(range(1, 8))
        best = 0
        for assign in product([0, 1], repeat=len(nodes)):
            side = dict(zip(nodes, assign))
            if len(set(assign)) < 2:
                continue
            crossing = [i for i, (a, b) in enumerate(edges) if side[a] != side[b]]
            adj = {v: [] for v in nodes}
            for i, (a, b) in enumerate(edges):
                if i not in crossing:
                    adj[a].append(b)
                    adj[b].append(a)

            def connected(group):
                group = set(group)
                stack = [next(iter(group))]
                seen = set()
                while stack:
                    v = stack.pop()
                    if v in seen:
                        continue
                    seen.add(v)
                    stack.extend(w for w in adj[v] if w in group)
                return seen == group

            halves = [[v for v in nodes if side[v] == s] for s in (0, 1)]
            if not all(connected(h) for h in halves):
                continue
            prod_val = 1
            for i in crossing:
                prod_val *= 3
            best = max(best, prod_val)
        assert best == 3

    def test_monotone_in_bond_increase(self):
        base = TnTopology("tt", 4, (2,) * 4, (2, 3, 2))
        for i in range(3):
            bonds = list(base.bond_dims)
            bonds[i] += 2
            grown = TnTopology("tt", 4, (2,) * 4, tuple(bonds))
            assert cut_rank(grown) >= cut_rank(base)

    def test_single_feature(self):
        assert cut_rank(TnTopology("tt", 1, (2,), ())) == 1


class TestMaterialize:
    def test_product_model_single_coefficient(self):
        model, _ = product_model()
        dense = materialize_full(model)
        expected = np.zeros((2, 2))
        expected[0, 0] = 1.0  # only the data-data monomial
        np.testing.assert_allclose(dense, expected)

    def test_constant_model_bias_entry(self):
        topo = TnTopology("tt", 2, (2, 2), (1,))
        bias = np.array([[0.0], [1.0]]).reshape(1, 2, 1)
        dense = materialize_full(TensorNetworkModel(topo, [bias, bias.copy()]))
        expected = np.zeros((2, 2))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(dense, expected)

    def test_roundtrip_against_dense_mode_product(self, rng):
        model, _ = random_tt_model(rng, 5, bond=4)
        dense = materialize_full(model)
        worst = 0.0
        for _ in range(100):
            legs = [rng.standard_normal(2) for _ in range(5)]
            ref = dense
            for v in legs:
                ref = np.tensordot(ref, v, axes=([0], [0]))
            worst = max(worst, abs(float(ref) - model.forward(legs)))
        assert worst < 1e-12

    def test_basis_inputs_read_out_coefficients(self, rng):
        """Contracting with unit-basis vectors reads dense entries exactly."""
        model, _ = random_tt_model(rng, 3, bond=2)
        dense = materialize_full(model)
        eye = np.eye(2)
        for idx in product(range(2), repeat=3):
            legs = [eye[i] for i in idx]
            assert model.forward(legs) == pytest.approx(dense[idx], abs=1e-14)

    def test_limit_refusal_names_entry_count(self):
        model, _ = product_model()
        with pytest.raises(ValueError, match="4 entries"):
            materialize_full(model, limit=3)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_tree_matches_basis_forwards(self, n):
        """A tree's dense tensor, merged node by node and closed at the
        root, holds the forward pass of every unit-basis configuration."""
        model, _ = gen_tree_teacher(n, 3, n, None)
        dense = materialize_full(model)
        idx = np.array(list(product(*(range(d) for d in model.phys_dims))))
        legs = [np.eye(d)[idx[:, i]] for i, d in enumerate(model.phys_dims)]
        want = model.forward_batch(legs).reshape(model.phys_dims)
        assert np.max(np.abs(dense - want)) <= 1e-13 * np.max(np.abs(want))


class TestToggleMerge:
    """``_toggle_merge``, every tree up step's merge, on the cores as a tree
    model holds them: read-only slices of its layout's level runs."""

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("a,c", [(1, 1), (1, 8), (3, 3), (8, 1), (28, 1)])
    def test_matches_einsum(self, rng, a, c, g, strided):
        """Both branches (a <= c and a > c) against the einsum of the
        contraction, to 1e-13 relative; ``strided`` takes the children's
        stacks as the step-2 slices of one block that ``_take`` hands a
        group whose children share a block."""
        model, _ = gen_tree_teacher(16, 8, 1, None)
        starts, runs, _ = model._layout
        core = runs[starts.index(4)][1 : 1 + g]  # (G, 4, 4, 8), read-only
        assert not core.flags.writeable
        p, q = core.shape[1:3]
        rows = 5
        if strided:
            block = rng.standard_normal((2 * g, rows, max(a, c), max(p, q)))
            left, right = block[0::2, :, :a, :p], block[1::2, :, :c, :q]
        else:
            left = rng.standard_normal((g, rows, a, p))
            right = rng.standard_normal((g, rows, c, q))
        got = _toggle_merge(core, left, right)
        want = np.einsum("gnap,gncq,gpqr->gnacr", left, right, core)
        assert got.shape == (g, rows, a * c, core.shape[3])
        assert np.max(np.abs(got - want.reshape(got.shape))) <= 1e-13 * np.max(np.abs(want))


class TestTopology:
    def test_tt_core_shapes_boundary_bonds(self):
        topo = TnTopology("tt", 3, (2, 3, 2), (4, 5))
        assert topo.core_shapes() == [(1, 2, 4), (4, 3, 5), (5, 2, 1)]

    def test_btree_padding_to_power_of_two(self):
        topo = TnTopology("btree", 3, (2, 2, 2), capped_uniform_bonds("btree", (2, 2, 2), 4))
        assert topo.leaf_count == 4
        # dummy leaf carries physical dim 1 and a bond-1 edge
        assert topo.leaf_phys_dim(3) == 1
        assert topo.core_shapes()[-1] == (1, 1)

    def test_bond_count_validation(self):
        with pytest.raises(ValueError, match="bond dims"):
            TnTopology("tt", 3, (2, 2, 2), (2,))
        with pytest.raises(ValueError, match="kind"):
            TnTopology("ring", 3, (2, 2, 2), (2, 2))

    def test_core_shape_validation(self):
        topo = TnTopology("tt", 2, (2, 2), (2,))
        good = [np.zeros((1, 2, 2)), np.zeros((2, 2, 1))]
        TensorNetworkModel(topo, good)
        with pytest.raises(ValueError, match="core 1"):
            TensorNetworkModel(topo, [good[0], np.zeros((3, 2, 1))])

    def test_capped_bonds_tt(self):
        # chain over binary legs: edge caps are min(2^left, 2^right, chi)
        assert capped_uniform_bonds("tt", (2,) * 5, 4) == (2, 4, 4, 2)

    @pytest.mark.parametrize("build,needle", [
        (lambda: TnTopology("tt", 2.0, (2, 2), (2,)), "n must be an integer, got 2.0"),
        (lambda: TnTopology("tt", True, (2,), ()), "n must be an integer, got True"),
        (lambda: TnTopology("tt", 2, (2, 2), (True,)), "bond_dims entry must be an integer"),
        (lambda: TnTopology("btree", 2, (2, True), (2, 2)),
         "phys_dims entry must be an integer, got True"),
        (lambda: capped_uniform_bonds("tt", (2,) * 5, 2.7),
         "bond dimension must be an integer, got 2.7"),
        (lambda: capped_uniform_bonds("btree", (2,) * 5, True),
         "bond dimension must be an integer, got True"),
    ], ids=["n-2.0", "n-True", "bond-True", "phys-True", "chi-2.7", "chi-True"])
    def test_integer_fields_refuse_bools_and_non_integers(self, build, needle):
        with pytest.raises(ValueError, match=f"^{needle}"):
            build()

    def test_numpy_integers_stored_as_int(self):
        topo = TnTopology("tt", np.int64(2), (np.int64(2), 2), (np.int32(2),))
        assert type(topo.n) is int
        assert all(type(d) is int for d in topo.phys_dims + topo.bond_dims)
        assert capped_uniform_bonds("tt", (2,) * 5, np.int64(4)) == (2, 4, 4, 2)

    def test_models_are_immutable(self, rng):
        model, _ = random_tt_model(rng, 3)
        with pytest.raises(ValueError):
            model.cores[0][0, 0, 0] = 7.0


class TestModelJson:
    def test_roundtrip_bytes_and_values(self, tmp_path, rng):
        model, lifts = random_tt_model(rng, 4, bond=3)
        path = tmp_path / "model.json"
        save_model(path, model, lifts)
        loaded, loaded_lifts = load_model(path)
        again = tmp_path / "again.json"
        save_model(again, loaded, loaded_lifts)
        assert path.read_bytes() == again.read_bytes()
        x = rng.uniform(-1, 1, 4)
        np.testing.assert_allclose(
            loaded.forward(loaded_lifts.lift_instance(x)),
            model.forward(lifts.lift_instance(x)),
            rtol=0,
            atol=0,
        )

    def test_tree_roundtrip(self, tmp_path):
        model, lifts = gen_tree_teacher(5, 3, seed=11)
        path = tmp_path / "tree.json"
        save_model(path, model, lifts)
        loaded, _ = load_model(path)
        legs = lifts.lift_instance([0.1, -0.4, 0.9, 0.0, 0.5])
        assert loaded.forward(legs) == model.forward(legs)

    def test_schema_fields(self, tmp_path):
        model, lifts = additive_model()
        path = tmp_path / "add.json"
        save_model(path, model, lifts)
        obj = json.loads(path.read_text())
        assert obj["version"] == 2
        assert obj["topology"] == "tt"
        assert obj["n"] == 2
        assert obj["phys_dims"] == [2, 2]
        assert obj["bond_dims"] == [2]
        assert obj["feature_maps"] == [{"kind": "binary"}, {"kind": "binary"}]
        assert [c["shape"] for c in obj["cores"]] == [[1, 2, 2], [2, 2, 1]]
        for entry, core in zip(obj["cores"], model.cores):
            assert isinstance(entry["data"], str)
            assert base64.b64decode(entry["data"]) == core.astype("<f8").tobytes()

    def test_rejects_wrong_version(self, tmp_path):
        model, lifts = additive_model()
        path = tmp_path / "add.json"
        save_model(path, model, lifts)
        obj = json.loads(path.read_text())
        for version in (0, 3):
            obj["version"] = version
            path.write_text(json.dumps(obj))
            with pytest.raises(ValueError, match="version"):
                load_model(path)

    def test_version_1_loads_bitwise_and_resaves_as_version_2(self, tmp_path):
        first = [-0.0, 5e-324, 1e308, -1e308]
        second = [0.1, 1 / 3, -2.5e-310, 3.0]
        obj = {
            "version": 1, "topology": "tt", "n": 2, "phys_dims": [2, 2], "bond_dims": [2],
            "cores": [{"shape": [1, 2, 2], "data": first},
                      {"shape": [2, 2, 1], "data": second}],
            "feature_maps": [{"kind": "binary"}, {"kind": "binary"}],
        }
        model, lifts = model_from_json_dict(obj)
        for core, data in zip(model.cores, (first, second)):
            assert core.tobytes() == np.array(data, dtype=np.float64).tobytes()
        path = tmp_path / "v2.json"
        save_model(path, model, lifts)
        assert json.loads(path.read_text())["version"] == 2
        again, _ = load_model(path)
        assert [c.tobytes() for c in again.cores] == [c.tobytes() for c in model.cores]

    @pytest.mark.parametrize("kind", ["tt", "btree"])
    def test_version_2_save_load_save_byte_identical_on_extreme_values(self, tmp_path, kind):
        if kind == "tt":
            model, lifts = random_tt_model(np.random.default_rng(3), 5, bond=3)
        else:
            model, lifts = gen_tree_teacher(5, 3, seed=11)  # pad leaves: 8 slots
        extremes = [-0.0, 5e-324, 2.2e-310, 1e308, -1e308]
        cores = [core.copy() for core in model.cores]
        for i, value in enumerate(extremes):
            cores[i % len(cores)].flat[i // len(cores)] = value
        model = TensorNetworkModel(model.topology, cores)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(first, model, lifts)
        assert json.loads(first.read_text())["version"] == 2
        loaded, loaded_lifts = load_model(first)
        save_model(second, loaded, loaded_lifts)
        assert first.read_bytes() == second.read_bytes()
        assert [c.tobytes() for c in loaded.cores] == [c.tobytes() for c in cores]

    # b64decode(validate=True) is binascii's strict mode, with these messages,
    # from Python 3.11 on; 3.10 checks the alphabet only, with its own message
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="strict base64 messages of 3.11+")
    @pytest.mark.parametrize("data,reason", [
        ("@@@=", "Only base64 data is allowed"),
        ("AAAAAAAA8D8", "Incorrect padding"),
        ("AAAAAAAA8D=8", "Discontinuous padding not allowed"),
        ("AAAAAAAA8=D8", "Discontinuous padding not allowed"),
        ("AAAAAAAA\n8D8=", "Only base64 data is allowed"),
        ("AAAAAAAA 8D8=", "Only base64 data is allowed"),
        ("AAAAAAAA8D8=AA==", "Excess data after padding"),
        ("AAAAAAAA8D8==", "Excess data after padding"),
        ("=AAAAAAAA8D8", "Leading padding not allowed"),
    ])
    def test_core_data_must_be_strict_base64(self, data, reason):
        from tnshap import model_io

        assert model_io._core_from_json(0, {"shape": [1], "data": "AAAAAAAA8D8="}, 2)[0] == 1.0
        with pytest.raises(ValueError) as info:
            model_io._core_from_json(3, {"shape": [1], "data": data}, 2)
        assert str(info.value) == f"core 3: data is not valid base64: {reason}"

    @pytest.mark.parametrize("data", ["AAAAAAAA8D8\u00e9", "\u00e9AAAAAAAA8D8="])
    def test_core_data_with_non_ascii_names_the_core(self, data):
        """b64decode refuses a non-ASCII string with a plain ValueError, on
        every Python version; the message still names the core."""
        from tnshap import model_io

        with pytest.raises(ValueError) as info:
            model_io._core_from_json(3, {"shape": [1], "data": data}, 2)
        assert str(info.value) == ("core 3: data is not valid base64: "
                                   "string argument should contain only ASCII characters")

    @pytest.mark.parametrize("change", [1, -1])
    def test_rejects_core_count_mismatch(self, change):
        model, lifts = gen_tree_teacher(5, 3, seed=11)
        obj = model_to_json_dict(model, lifts)
        cores = obj["cores"]
        obj["cores"] = cores + cores[-1:] if change > 0 else cores[:-1]
        with pytest.raises(ValueError, match=f"expected {len(cores)} cores, "
                                             f"got {len(cores) + change}"):
            model_from_json_dict(obj)


class TestChebyshevInterpolation:
    @pytest.mark.parametrize("size", range(1, 65))
    def test_reproduces_polynomials_below_size(self, size):
        """Degree size - 1 in the Chebyshev basis of 2t - 1, at random
        targets, the endpoints and every source node (exact hits)."""
        rng = np.random.default_rng(size)
        src = chebyshev_nodes(size)
        targets = np.concatenate([rng.uniform(0, 1, 50), [0.0, 1.0], src[::-1]])
        coef = rng.standard_normal(size)
        f = lambda t: np.polynomial.chebyshev.chebval(2 * t - 1, coef)  # noqa: E731
        mat = chebyshev_interpolation(size, targets)
        assert mat.shape == (targets.shape[0], size)
        assert np.max(np.abs(mat @ f(src) - f(targets))) <= 1e-13 * np.abs(coef).sum()
        np.testing.assert_array_equal(mat[-size:], np.eye(size)[::-1])

    def test_row_blocks_match_the_whole_matrix(self, monkeypatch):
        """Above ``BLOCK_ENTRIES`` entries a map onto targets that are not
        Chebyshev nodes of their own count (here Gauss-Legendre nodes) is
        rebuilt in row blocks at each use; both directions agree with the
        whole matrix."""
        from tnshap import tensor_net

        rng = np.random.default_rng(0)
        targets = (np.polynomial.legendre.leggauss(40)[0] + 1) / 2
        whole = chebyshev_interpolation(9, targets)
        x, y = rng.standard_normal((9, 3)), rng.standard_normal((40, 3))
        monkeypatch.setattr(tensor_net, "BLOCK_ENTRIES", 9 * 7)
        blocked = tensor_net._Interpolation(9, targets)
        assert blocked.mat is None and blocked.dct is None and blocked.step == 7
        np.testing.assert_allclose(blocked.forward(x), whole @ x, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(blocked.adjoint(y), whole.T @ y, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("size,count", [(1, 2), (2, 3), (3, 5), (4, 8), (5, 9), (9, 16),
                                            (10, 18), (9, 40), (16, 17)])
    def test_small_dct_pairs_match_the_matrix(self, monkeypatch, size, count):
        """The DCT pair at every small shape, odd and even lengths on both
        sides, including a DCT-III whose padded coefficients reach past
        half its length (9 -> 16, 10 -> 18)."""
        from tnshap import tensor_net

        monkeypatch.setattr(tensor_net, "BLOCK_ENTRIES", 1)
        rng = np.random.default_rng(size * count)
        mat = chebyshev_interpolation(size, chebyshev_nodes(count))
        dct = tensor_net._Interpolation(size, chebyshev_nodes(count))
        assert dct.mat is None and dct.dct is not None
        x, y = rng.standard_normal((2, size, 3)), rng.standard_normal((2, count, 3))
        np.testing.assert_allclose(dct.forward(x), mat @ x, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(dct.adjoint(y), mat.T @ y, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("cols", [1, 128])
    @pytest.mark.parametrize("size,count", [(251, 501), (501, 1001), (1001, 2000)])
    def test_large_maps_run_as_dct_pairs(self, size, count, cols):
        """A map above ``BLOCK_ENTRIES`` entries between Chebyshev point sets
        builds no matrix. Forward and adjoint agree with the exact map, the
        cosine sums C3 diag(w) C2 with integer-reduced angles, to 1e-13
        relative, closer than ``chebyshev_interpolation``'s matrix does: the
        matrix interpolates through the float64-rounded nodes, which moves
        it by about size^2 eps (2.8e-12 relative at size 1001, 128 columns).
        Against that matrix the DCT pair agrees to 1e-12 relative up to
        size 501."""
        from tnshap import tensor_net

        rng = np.random.default_rng(size + cols)
        dct = tensor_net._Interpolation(size, chebyshev_nodes(count))
        assert dct.mat is None and dct.dct is not None
        exact = chebyshev_map_reference(size, count)
        mat = chebyshev_interpolation(size, chebyshev_nodes(count))
        x, y = rng.standard_normal((size, cols)), rng.standard_normal((count, cols))
        for got, want, bary in ((dct.forward(x), exact @ x, mat @ x),
                                (dct.adjoint(y), exact.T @ y, mat.T @ y)):
            assert got.shape == want.shape
            scale = np.linalg.norm(want)
            assert np.linalg.norm(got - want) <= 1e-13 * scale
            assert np.linalg.norm(got - want) < np.linalg.norm(bary - want)
            if size <= 501:
                assert np.linalg.norm(got - bary) <= 1e-12 * scale

    @pytest.mark.parametrize("size,count", [(251, 501), (1001, 2000)])
    def test_dct_adjoint_is_the_transpose(self, size, count):
        """<A x, y> = <x, A^T y> to 1e-13 of |A x| |y|, for several columns."""
        from tnshap import tensor_net

        rng = np.random.default_rng(count)
        dct = tensor_net._Interpolation(size, chebyshev_nodes(count))
        x, y = rng.standard_normal((size, 5)), rng.standard_normal((count, 5))
        ax, aty = dct.forward(x), dct.adjoint(y)
        lhs, rhs = np.sum(ax * y, axis=0), np.sum(x * aty, axis=0)
        bound = 1e-13 * np.linalg.norm(ax, axis=0) * np.linalg.norm(y, axis=0)
        assert np.all(np.abs(lhs - rhs) <= bound)
