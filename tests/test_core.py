"""Layer/network data structures, realization, and the entry builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassennet.core import (ACTIVATIONS, MNN, ActivationMask, EntryBuilder,
                              Layer, MatrixShape, SparseLinearMap,
                              counts_satisfied, identity_mnn, mnn_equal,
                              realize, realize_many, scale_output)


def _ident_map(n):
    b = EntryBuilder()
    b.add_block(0, 0, 0, 0, n, n)
    return b.build((n, n), (n, n))


class TestSparseLinearMap:
    def test_identity_apply(self, rng):
        lm = _ident_map(3)
        X = rng.uniform(-1, 1, (3, 3))
        assert np.array_equal(lm.apply(X), X)

    def test_matches_dense_tensor_contraction(self, rng):
        # random sparse tensor vs. explicit 4-index summation
        idx = np.array([[1, 1, 1, 2], [1, 2, 2, 1], [2, 1, 1, 1], [2, 2, 2, 2]],
                       dtype=np.int64)
        val = np.array([2.0, -1.0, 0.5, 3.0])
        lm = SparseLinearMap((2, 2), (2, 2), idx, val)
        X = rng.uniform(-1, 1, (2, 2))
        want = np.zeros((2, 2))
        for (i, j, k, l), v in zip(idx, val):
            want[i - 1, j - 1] += v * X[k - 1, l - 1]
        assert np.allclose(lm.apply(X), want, atol=1e-15)

    def test_rejects_explicit_zero(self):
        idx = np.array([[1, 1, 1, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="zero"):
            SparseLinearMap((1, 1), (1, 1), idx, np.array([0.0]))

    def test_rejects_duplicate_positions(self):
        idx = np.array([[1, 1, 1, 1], [1, 1, 1, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate"):
            SparseLinearMap((1, 1), (1, 1), idx, np.array([1.0, 2.0]))

    def test_rejects_out_of_range(self):
        idx = np.array([[1, 1, 2, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="range"):
            SparseLinearMap((1, 1), (1, 1), idx, np.array([1.0]))

    def test_empty_map_is_fine(self):
        lm = SparseLinearMap((2, 2), (3, 3),
                             np.zeros((0, 4), dtype=np.int64), np.zeros(0))
        assert lm.nnz == 0
        assert np.array_equal(lm.apply(np.ones((3, 3))), np.zeros((2, 2)))

    def test_entries_report_one_based(self):
        b = EntryBuilder().add(2, 1, 1, 3, -4.0)
        lm = b.build((2, 2), (1, 3))
        assert lm.idx.tolist() == [[2, 1, 1, 3]] and lm.val.tolist() == [-4.0]

    def test_rejects_non_finite_coefficients(self):
        idx = np.array([[1, 1, 1, 1]], dtype=np.int64)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                SparseLinearMap((1, 1), (1, 1), idx, np.array([bad]))

    def test_stores_scrambled_entries_row_major(self, rng):
        quads = [(i, j, k, l) for i in (1, 2) for j in (1, 2, 3)
                 for k in (1, 2) for l in (1, 2)]
        vals = rng.uniform(1, 2, len(quads))
        perm = rng.permutation(len(quads))
        lm = SparseLinearMap((2, 3), (2, 2), np.array(quads)[perm],
                             vals[perm])
        assert lm.idx.tolist() == [list(q) for q in quads]
        assert lm.val.tolist() == vals.tolist()

    def test_entry_order_does_not_change_equality(self, rng):
        quads = np.array([[1, 1, 1, 1], [1, 2, 2, 1], [2, 1, 1, 2],
                          [2, 2, 2, 2], [1, 1, 2, 2]])
        vals = rng.uniform(1, 2, len(quads))

        def net(order, v):
            return MNN([Layer(SparseLinearMap((2, 2), (2, 2), quads[order],
                                              v[order]))])

        ordered = np.arange(len(quads))
        scrambled = rng.permutation(len(quads))[::-1]
        assert mnn_equal(net(ordered, vals), net(scrambled, vals))
        nudged = vals.copy()
        nudged[3] = np.nextafter(nudged[3], np.inf)
        assert not mnn_equal(net(ordered, vals), net(scrambled, nudged))

    def test_arrays_frozen(self):
        lm = _ident_map(2)
        with pytest.raises(ValueError):
            lm.val[0] = 9.0


class TestActivationMask:
    def test_from_positions_and_kind(self):
        m = ActivationMask.from_positions((2, 3), [(1, 2), (2, 3)])
        assert m.rho[0, 1] and m.rho[1, 2]
        assert not m.rho[0, 0]
        assert (np.argwhere(m.rho) + 1).tolist() == [[1, 2], [2, 3]]

    def test_all_variants(self):
        assert not ActivationMask.all_identity((2, 2)).any_rho
        assert ActivationMask.all_rho((2, 2)).any_rho


class TestLayerAndNetwork:
    def test_weight_count_includes_bias(self):
        bias = np.zeros((2, 2))
        bias[0, 1] = 5.0
        layer = Layer(_ident_map(2), bias)
        assert layer.weight_count == 4 + 1

    def test_rejects_non_finite_bias(self):
        for bad in (np.nan, np.inf, -np.inf):
            bias = np.zeros((2, 2))
            bias[1, 0] = bad
            with pytest.raises(ValueError, match="bias entries must be finite"):
                Layer(_ident_map(2), bias)

    def test_shape_chain_validated(self):
        l1 = Layer(_ident_map(2))
        l3 = Layer(EntryBuilder().add(1, 1, 1, 1, 1.0).build((1, 1), (3, 3)))
        with pytest.raises(ValueError, match="layer 2"):
            MNN([l1, l3], "relu")

    def test_final_layer_must_be_identity(self):
        mask = ActivationMask.all_rho((2, 2))
        with pytest.raises(ValueError, match="final layer"):
            MNN([Layer(_ident_map(2), mask=mask)], "relu")

    def test_label_required_only_with_rho_entries(self):
        hidden = Layer(_ident_map(2), mask=ActivationMask.all_rho((2, 2)))
        with pytest.raises(ValueError, match="needs an activation label"):
            MNN([hidden, Layer(_ident_map(2))])
        assert MNN([Layer(_ident_map(2))]).activation_name is None
        assert identity_mnn((2, 2), 2).activation_name is None

    def test_counts_and_module_helpers(self):
        net = identity_mnn((3, 2), 4)
        assert net.num_weights == 4 * 6
        assert net.num_layers == 4
        # an exact reference must match, a bound must not be exceeded
        assert counts_satisfied(net, (24, 4, True))
        assert not counts_satisfied(net, (25, 4, True))
        assert counts_satisfied(net, (24.5, 4.0, False))
        assert not counts_satisfied(net, (24.0, 3.5, False))

    def test_realize_identity_stack(self, rng):
        net = identity_mnn((3, 3), 5)
        X = rng.uniform(-1, 1, (3, 3))
        assert np.array_equal(realize(net, None, X), X)

    def test_relu_mask_applies_only_where_marked(self):
        mask = ActivationMask.from_positions((1, 2), [(1, 1)])
        b = EntryBuilder().add(1, 1, 1, 1, 1.0).add(1, 2, 1, 2, 1.0)
        hidden = Layer(b.build((1, 2), (1, 2)), mask=mask)
        out = Layer(EntryBuilder().add(1, 1, 1, 1, 1.0).add(1, 2, 1, 2, 1.0)
                    .build((1, 2), (1, 2)))
        net = MNN([hidden, out], "relu")
        got = realize(net, None, np.array([[-2.0, -3.0]]))
        assert np.array_equal(got, [[0.0, -3.0]])

    def test_relu2_activation(self):
        mask = ActivationMask.all_rho((1, 1))
        hidden = Layer(EntryBuilder().add(1, 1, 1, 1, 1.0).build((1, 1), (1, 1)),
                       mask=mask)
        out = Layer(EntryBuilder().add(1, 1, 1, 1, 1.0).build((1, 1), (1, 1)))
        net = MNN([hidden, out], "relu2")
        assert realize(net, None, np.array([[3.0]]))[0, 0] == 9.0
        assert realize(net, None, np.array([[-3.0]]))[0, 0] == 0.0

    def test_unknown_activation_rejected_when_needed(self):
        mask = ActivationMask.all_rho((1, 1))
        hidden = Layer(EntryBuilder().add(1, 1, 1, 1, 1.0).build((1, 1), (1, 1)),
                       mask=mask)
        out = Layer(EntryBuilder().add(1, 1, 1, 1, 1.0).build((1, 1), (1, 1)))
        net = MNN([hidden, out], "softplus")
        with pytest.raises(ValueError, match="activation"):
            realize(net, None, np.array([[1.0]]))

    def test_realize_many_matches_loop(self, rng):
        net = identity_mnn((2, 2), 2)
        batch = rng.uniform(-1, 1, (5, 2, 2))
        got = realize_many(net, None, batch)
        for one, X in zip(got, batch):
            assert np.array_equal(one, realize(net, None, X))

    def test_input_shape_validated(self):
        net = identity_mnn((2, 2), 1)
        with pytest.raises(ValueError):
            realize(net, None, np.ones((3, 3)))


class TestScaleOutput:
    def test_scales_last_layer_only(self, rng):
        net = identity_mnn((2, 2), 3)
        scaled = scale_output(net, -2.5)
        X = rng.uniform(-1, 1, (2, 2))
        assert np.allclose(realize(scaled, None, X), -2.5 * X, atol=1e-15)
        assert scaled.num_weights == net.num_weights
        assert scaled.num_layers == net.num_layers

    def test_scale_by_one_is_identity_op(self):
        net = identity_mnn((2, 2), 2)
        assert mnn_equal(scale_output(net, 1.0), net)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="collapses"):
            scale_output(identity_mnn((2, 2), 1), 0.0)

    def test_bias_scaled_too(self):
        bias = np.array([[1.0, 2.0], [3.0, 4.0]])
        net = MNN([Layer(_ident_map(2), bias)], "relu")
        got = realize(scale_output(net, 3.0), None, np.zeros((2, 2)))
        assert np.array_equal(got, 3.0 * bias)


class TestEntryBuilder:
    def test_add_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            EntryBuilder().add(1, 1, 1, 1, 0.0)

    def test_block_offsets(self, rng):
        # place input block (rows 0-1, cols 0-1) into output rows 2-3, cols 0-1
        b = EntryBuilder()
        b.add_block(2, 0, 0, 0, 2, 2, coeff=-1.0)
        lm = b.build((4, 2), (2, 2))
        X = rng.uniform(-1, 1, (2, 2))
        got = lm.apply(X)
        assert np.array_equal(got[:2], np.zeros((2, 2)))
        assert np.array_equal(got[2:], -X)

    def test_transposed_block(self, rng):
        b = EntryBuilder()
        b.add_transposed_block(0, 0, 0, 0, 3, 2)
        lm = b.build((3, 2), (2, 3))
        X = rng.uniform(-1, 1, (2, 3))
        assert np.array_equal(lm.apply(X), X.T)


def test_matrix_shape_size():
    s = MatrixShape(3, 5)
    assert s.size == 15
    assert tuple(s) == (3, 5)


def test_activation_registry():
    assert set(ACTIVATIONS) == {"relu", "relu2"}
    assert ACTIVATIONS["relu"](np.array(-2.0)) == 0.0
    assert ACTIVATIONS["relu2"](np.array(3.0)) == 9.0


def test_mnn_equal_detects_value_change():
    a = identity_mnn((2, 2), 2)
    b = scale_output(identity_mnn((2, 2), 2), 2.0)
    assert not mnn_equal(a, b)
    assert mnn_equal(a, identity_mnn((2, 2), 2))
