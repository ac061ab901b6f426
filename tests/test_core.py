"""Layer/network data structures, realization, and block-table maps."""

import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import copies_by_blocks
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import _sparsetools

from strassennet import core
from strassennet.combinators import concat, parallelize
from strassennet.core import (ACTIVATIONS, MNN, ActivationMask, Layer,
                              MatrixShape, SparseLinearMap,
                              counts_satisfied, identity_mnn, mnn_equal,
                              realize, realize_flat, realize_many,
                              scale_output)
from strassennet.gadgets import relu2_factory, relu_factory
from strassennet.inversion import InversionSpec, build_in, build_inv
from strassennet.io import load_network, save_network
from strassennet.strassen import build_split, build_str_pow2


def _apply(lm, X):
    """The one-layer network of ``lm`` evaluated on X."""
    return realize(MNN([Layer(lm)]), X)


def _ident_map(rows, cols=None):
    shape = (rows, cols or rows)
    return SparseLinearMap.from_blocks(shape, shape,
                                       [(0, 0, 0, 0, *shape, 1.0)])


class TestSparseLinearMap:
    def test_identity_apply(self, rng):
        lm = _ident_map(3)
        X = rng.uniform(-1, 1, (3, 3))
        assert np.array_equal(_apply(lm, X), X)

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
        assert np.allclose(_apply(lm, X), want, atol=1e-15)

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

    @pytest.mark.parametrize("idx", [[[1.7, 1, 1, 2.9]], [[1, 1, 1, np.nan]]])
    def test_rejects_float_index(self, idx):
        # [1.7, 1, 1, 2.9] used to be stored as [1, 1, 1, 2]
        with pytest.raises(ValueError, match=r"entry 0 .* non-integer index"):
            SparseLinearMap((1, 1), (1, 2), idx, [1.0])

    def test_integral_float_indices_are_stored_as_int64(self):
        lm = SparseLinearMap((1, 1), (1, 2), [[1.0, 1.0, 1.0, 2.0]], [3.0])
        assert lm.idx.dtype == np.int64 and lm.idx.tolist() == [[1, 1, 1, 2]]

    def test_refusal_names_the_first_offending_row(self):
        idx = [[1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 1, 1], [1, 3, 1, 1]]
        with pytest.raises(ValueError, match=r"^entry 2 \[1, 1, 1, 1, 5\.0\] "
                                             r"repeats an earlier position"):
            SparseLinearMap((1, 2), (1, 2), idx, [1.0, 2.0, 5.0, 7.0])
        with pytest.raises(ValueError, match=r"^entry 1 .* out of range"):
            SparseLinearMap((1, 2), (1, 2), [idx[0], idx[3], idx[2]],
                            [1.0, 7.0, 5.0])

    def test_empty_map_is_fine(self):
        lm = SparseLinearMap((2, 2), (3, 3),
                             np.zeros((0, 4), dtype=np.int64), np.zeros(0))
        assert lm.nnz == 0
        assert np.array_equal(_apply(lm, np.ones((3, 3))), np.zeros((2, 2)))

    def test_entries_report_one_based(self):
        lm = SparseLinearMap((2, 2), (1, 3), [[2, 1, 1, 3]], [-4.0])
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
        for stored in (lm.val, lm.indices, lm.indptr):
            with pytest.raises(ValueError):
                stored[0] = 9

    def test_stores_a_copy_of_values_given_in_order(self):
        val = np.array([1.0, 2.0])
        lm = SparseLinearMap((1, 1), (1, 2), [[1, 1, 1, 1], [1, 1, 1, 2]], val)
        val[0] = 9.0
        assert lm.val.tolist() == [1.0, 2.0] and val.flags.writeable

    def test_idx_is_a_new_array_each_call(self):
        lm = _ident_map(2)
        idx = lm.idx
        assert idx is not lm.idx and idx.flags.writeable
        idx[0] = [2, 2, 2, 2]
        assert lm.idx.tolist() == [[1, 1, 1, 1], [1, 2, 1, 2], [2, 1, 2, 1],
                                   [2, 2, 2, 2]]

    @given(st.tuples(*[st.integers(1, 3)] * 4), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matrix_matches_a_dense_einsum(self, dims, density, seed):
        # random maps, given in random entry order
        rng = np.random.default_rng(seed)
        T = rng.uniform(-1, 1, dims) * (rng.random(dims) < density)
        quads = np.argwhere(T) + 1
        perm = rng.permutation(len(quads))
        lm = SparseLinearMap(dims[:2], dims[2:], quads[perm],
                             T[T != 0][perm])
        A = lm.matrix()
        assert A.shape == (dims[0] * dims[1], dims[2] * dims[3])
        assert np.array_equal(A.toarray(), T.reshape(A.shape))
        X = rng.uniform(-1, 1, dims[2:])
        assert np.allclose(A @ X.reshape(-1),
                           np.einsum("ijkl,kl->ij", T, X).reshape(-1),
                           rtol=0, atol=1e-14)


@pytest.mark.parametrize("make", [
    lambda: build_str_pow2(3, 0.1, 1.0, relu_factory),
    lambda: build_inv(InversionSpec(4, 1.0, 1e-3, 0.5), relu_factory),
], ids=["relu-k3", "inv-relu-n4"])
def test_maps_store_only_their_csr_arrays(make):
    # at most 16 B per entry (a flat input position and a value) and 8 B
    # per output position: no (nnz, 4) table of quadruples is kept
    for layer in make().layers:
        lm = layer.map
        stored = [getattr(lm, name) for name in type(lm).__slots__]
        assert (sum(a.nbytes for a in stored if isinstance(a, np.ndarray))
                <= 16 * lm.nnz + 8 * (lm.out_shape.size + 1))
        again = SparseLinearMap(lm.out_shape, lm.in_shape, lm.idx, lm.val)
        for name in type(lm).__slots__:
            a, b = getattr(lm, name), getattr(again, name)
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b)


#: scalars that are not real numbers by their dtype, though float() reads
#: the first as 2.0 with a ComplexWarning and the others as 2.0 or 1.0
NOT_REAL = {"complex": 2 + 1j, "string": "2", "bool": True,
            "object": Fraction(2)}


@pytest.mark.parametrize("bad", NOT_REAL.values(), ids=NOT_REAL.keys())
def test_stored_coefficients_must_be_real_numbers(bad):
    reason = (r" must hold integers or real floats, got dtype "
              rf"{np.asarray(bad).dtype}$")
    with pytest.raises(ValueError, match="^values" + reason):
        SparseLinearMap((1, 1), (1, 2), [[1, 1, 1, 1], [1, 1, 1, 2]],
                        np.array([bad, bad]))
    with pytest.raises(ValueError, match="^block coefficients" + reason):
        SparseLinearMap.from_blocks((1, 1), (1, 1),
                                    [(0, 0, 0, 0, 1, 1, bad)])
    with pytest.raises(ValueError, match="^bias" + reason):
        Layer(_ident_map(1), np.array([[bad]]))
    with pytest.raises(ValueError, match="^c" + reason):
        scale_output(identity_mnn((1, 1), 1), bad)


@pytest.mark.parametrize("rho", [[[0.5, 0.0]], [["False", "True"]],
                                 [[1, 0]], np.array([[True, False]],
                                                    dtype=object)],
                         ids=["float", "string", "integer", "object"])
def test_mask_must_hold_booleans(rho):
    # 0.5 and "False" both used to become True
    with pytest.raises(ValueError, match=r"^mask must hold booleans, got "
                       rf"dtype {np.asarray(rho).dtype}$"):
        ActivationMask((1, 2), rho)


class TestActivationMask:
    def test_from_positions_and_kind(self):
        m = ActivationMask.from_positions((2, 3), [(1, 2), (2, 3)])
        assert m.rho[0, 1] and m.rho[1, 2]
        assert not m.rho[0, 0]
        assert (np.argwhere(m.rho) + 1).tolist() == [[1, 2], [2, 3]]

    @pytest.mark.parametrize("positions, reason", [
        ([(1, 1.5)], r"mask entry 0 \[1.0, 1.5\] has a non-integer index"),
        ([(1, 2), (2, 1), (1, 2)], r"mask entry 2 \[1, 2\] repeats an "
                                    r"earlier position \(duplicate\)"),
        ([(3, 1)], r"mask entry 0 \[3, 1\] has an index out of range"),
        ([(True, True)], r"mask entry indices must be integers, "
                          r"not booleans"),
    ], ids=["non-integer", "repeated", "out-of-range", "boolean"])
    def test_from_positions_refusals(self, positions, reason):
        # (1, 1.5) used to raise IndexError, a repeat used to be accepted,
        # and (True, True) used to set rho at (1, 1)
        with pytest.raises(ValueError, match=reason):
            ActivationMask.from_positions((2, 2), positions)

    def test_all_variants(self):
        assert not ActivationMask((2, 2)).any_rho
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
        l3 = Layer(SparseLinearMap((1, 1), (3, 3), [[1, 1, 1, 1]], [1.0]))
        # numbered from 0, as files number them; it read "layer 2 ... layer 1"
        with pytest.raises(ValueError, match=r"layer 1 input shape \(3, 3\) "
                           r"does not match layer 0 output shape \(2, 2\)"):
            MNN([l1, l3], "relu")

    def test_final_layer_must_be_identity(self):
        mask = ActivationMask.all_rho((2, 2))
        with pytest.raises(ValueError, match="final layer"):
            MNN([Layer(_ident_map(2), mask=mask)], "relu")

    def test_label_required_only_with_rho_entries(self):
        hidden = Layer(_ident_map(2), mask=ActivationMask.all_rho((2, 2)))
        with pytest.raises(ValueError, match="layer 0 has rho entries but "
                           "the activation is null"):
            MNN([hidden, Layer(_ident_map(2))])
        assert MNN([Layer(_ident_map(2))]).activation_name is None
        assert identity_mnn((2, 2), 2).activation_name is None

    @pytest.mark.parametrize("mask", [np.ones((2, 2), dtype=bool),
                                      [[True, True], [True, True]]],
                             ids=["ndarray", "list"])
    def test_mask_must_be_an_activation_mask(self, mask):
        # an ndarray of the layer's shape used to be stored as the mask, and
        # realize then failed with AttributeError
        with pytest.raises(ValueError, match="mask must be an ActivationMask, "
                           f"got {type(mask).__name__}"):
            Layer(_ident_map(2), mask=mask)

    @pytest.mark.parametrize("linmap", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]],
                                        None], ids=["ndarray", "list", "None"])
    def test_map_must_be_a_sparse_linear_map(self, linmap):
        # an ndarray used to fail with AttributeError on its out_shape
        with pytest.raises(ValueError, match="linmap must be a "
                           f"SparseLinearMap, got {type(linmap).__name__}"):
            Layer(linmap)

    def test_items_must_be_layers(self):
        with pytest.raises(ValueError, match="layer 1 must be a Layer, got "
                           "SparseLinearMap"):
            MNN([Layer(_ident_map(2)), _ident_map(2)])

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
        assert np.array_equal(realize(net, X), X)

    def test_relu_mask_applies_only_where_marked(self):
        mask = ActivationMask.from_positions((1, 2), [(1, 1)])
        hidden = Layer(_ident_map(1, 2), mask=mask)
        out = Layer(_ident_map(1, 2))
        net = MNN([hidden, out], "relu")
        got = realize(net, np.array([[-2.0, -3.0]]))
        assert np.array_equal(got, [[0.0, -3.0]])

    def test_relu2_activation(self):
        mask = ActivationMask.all_rho((1, 1))
        hidden = Layer(_ident_map(1), mask=mask)
        out = Layer(_ident_map(1))
        net = MNN([hidden, out], "relu2")
        assert realize(net, np.array([[3.0]]))[0, 0] == 9.0
        assert realize(net, np.array([[-3.0]]))[0, 0] == 0.0

    def test_unknown_activation_rejected_when_needed(self):
        mask = ActivationMask.all_rho((1, 1))
        hidden = Layer(_ident_map(1), mask=mask)
        out = Layer(_ident_map(1))
        net = MNN([hidden, out], "softplus")
        with pytest.raises(ValueError, match="activation"):
            realize(net, np.array([[1.0]]))

    def test_realize_many_matches_loop(self, rng):
        net = identity_mnn((2, 2), 2)
        batch = rng.uniform(-1, 1, (5, 2, 2))
        got = realize_many(net, batch)
        for one, X in zip(got, batch):
            assert np.array_equal(one, realize(net, X))
        # an empty batch keeps the (rows, cols) of the output
        empty = realize_many(build_split(1), np.empty((0, 2, 4)))
        assert empty.shape == (0, 7, 2)

    def test_input_shape_validated(self):
        net = identity_mnn((2, 2), 1)
        with pytest.raises(ValueError):
            realize(net, np.ones((3, 3)))

    @pytest.mark.parametrize("columns", [np.ones(8), np.ones((7, 1)),
                                         np.ones((9, 2)), np.ones((8, 1, 1))],
                             ids=["1-D", "7-rows", "9-rows", "3-D"])
    def test_realize_flat_validates_columns(self, columns):
        # a 1-D input used to broadcast against the bias into a (4, 14) array
        net = build_str_pow2(1, 0.1, 1.0, relu2_factory)
        with pytest.raises(ValueError, match=r"columns shape .* does not "
                           r"match network input \(2, 4\) \(layer 0\): "
                           r"expected \(8, batch\)"):
            realize_flat(net, None, columns)


def _layer_by_layer(net, rho, columns):
    """Reference evaluation: ``V = L V + C``, then rho on the masked rows."""
    rho = rho or ACTIVATIONS.get(net.activation_name)
    V = np.asarray(columns, dtype=float)
    for layer in map(core._unrecorded, net.layers):
        V = layer.map.matrix() @ V + layer.bias.reshape(-1)[:, None]
        mask = layer.mask.rho.reshape(-1)
        if mask.any():
            V[mask] = rho(V[mask])
    return V


def _bias_off_the_map():
    """A relu net whose first layer biases a row the map never writes."""
    first = SparseLinearMap((2, 2), (1, 2), [[1, 1, 1, 1], [1, 2, 1, 1],
                                             [1, 2, 1, 2]], [0.5, -1.0, 2.0])
    bias = np.array([[0.25, 0.0], [-0.75, 3.0]])  # row (2, *) has no entries
    hidden = Layer(first, bias, ActivationMask.from_positions(
        (2, 2), [(1, 2), (2, 1)]))
    out = SparseLinearMap((1, 1), (2, 2), [[1, 1, 1, 2], [1, 1, 2, 1],
                                           [1, 1, 2, 2]], [1.0, -0.5, 0.125])
    return MNN([hidden, Layer(out, [[-0.1]])], "relu")


def _random_net(shapes, rho_layers, label="relu", seed=3):
    """A net through the given matrix shapes with random dense maps and
    biases, and rho on every entry of the hidden layers in ``rho_layers``
    but the second entry of the first of them, whose rho rows are then not
    all first."""
    rng = np.random.default_rng(seed)
    layers = []
    for pos, (shape_in, shape_out) in enumerate(zip(shapes, shapes[1:])):
        quads = np.indices(shape_out + shape_in).reshape(4, -1).T + 1
        linmap = SparseLinearMap(shape_out, shape_in, quads,
                                 rng.uniform(0.5, 1.5, len(quads))
                                 * rng.choice([-1, 1], len(quads)))
        mask = None
        if pos in rho_layers:
            mask = ActivationMask.all_rho(shape_out)
            if pos == min(rho_layers) and mask.rho.size > 1:
                rho = mask.rho.copy()
                rho.flat[1] = False
                mask = ActivationMask(shape_out, rho)
        layers.append(Layer(linmap, rng.uniform(-0.5, 0.5, shape_out), mask))
    return MNN(layers, label)


def _repeated(third=None, pre_rho=False, post=True):
    """A relu net whose layers 1 and 2 are three copies of one block, the
    two layers of a random child, after a glue layer and before a dense
    one.  ``third(child)`` makes the third copy; ``pre_rho`` gives the
    glue layer rho rows and ``post=False`` leaves out the dense layer."""
    child = _random_net([(2, 2), (3, 2), (2, 2)], {0})
    run = parallelize([child, child, third(child) if third else child])
    glue = _random_net([(1, 4), (6, 2), (1, 1)], {0} if pre_rho else set(),
                       seed=4)
    dense = _random_net([(6, 2), (2, 1)], set(), seed=5)
    return MNN([glue.layers[0], *run.layers, *(dense.layers if post else ())],
               "relu")


def _one_off(what):
    """A child changed in one coefficient, bias entry or mask entry of its
    first layer."""
    def change(child):
        first = child.layers[0]
        m, bias, rho = first.map, first.bias.copy(), first.mask.rho.copy()
        val = m.val.copy()
        if what == "coefficient":
            val[4] *= 2.0
        elif what == "bias":
            bias[2, 1] += 0.5
        else:
            rho[2, 1] = not rho[2, 1]
        first = Layer(SparseLinearMap(m.out_shape, m.in_shape, m.idx, val),
                      bias, ActivationMask(m.out_shape, rho))
        return MNN([first, child.layers[1]], "relu")
    return change


# networks with copies that are not a run the compiled program may fold,
# and the one that is
_NEAR_REPEATS = {
    "repeats-fold": (lambda: _repeated(), [1, 3, 3, 1]),
    "one-coefficient-differs": (
        lambda: _repeated(_one_off("coefficient")), [1] * 4),
    "one-bias-differs": (lambda: _repeated(_one_off("bias")), [1] * 4),
    "one-mask-entry-differs": (lambda: _repeated(_one_off("mask")), [1] * 4),
    "unequal-widths": (lambda: _repeated(lambda child: _random_net(
        [(2, 2), (3, 1), (2, 2)], {0})), [1] * 4),
    "predecessor-has-rho": (lambda: _repeated(pre_rho=True), [1] * 4),
    "run-reaches-last-layer": (lambda: _repeated(post=False), [1] * 3),
}


def _pairs(rows, second=None, label="relu"):
    """A net of two hidden (1, n) layers and a dense last layer.  A row is
    ``(a, b, bias, rho)``: it takes ``a`` times the first entry of its
    input and ``b`` times the second (zeros are not stored).  ``second``
    gives the second hidden layer's biases, by default the first's."""
    def hidden(width, biases):
        coeffs = np.zeros((len(rows), width))
        coeffs[:, :2] = [(a, b) for a, b, _, _ in rows]
        j, l = np.nonzero(coeffs)
        linmap = SparseLinearMap((1, len(rows)), (1, width), np.stack(
            [np.ones_like(j), j + 1, np.ones_like(j), l + 1], axis=1),
            coeffs[j, l])
        mask = ActivationMask((1, len(rows)), [[r for *_, r in rows]])
        return Layer(linmap, [biases], mask)

    biases = [bias for _, _, bias, _ in rows]
    n = len(rows)
    last = SparseLinearMap((1, 1), (1, n), [[1, 1, 1, l] for l in
                                            range(1, n + 1)],
                           np.linspace(1.0, -2.0, n))
    return MNN([hidden(2, biases), hidden(n, second or biases),
                Layer(last)], label)


# the relu gadget's pair: an identity row T with zero bias, then a rho row
# with T's entries, computed as T plus its bias; two pairs with unequal
# biases, and a rho row after a rho row
_GADGET_PAIRS = [(1.0, 2.0, 0.0, False), (1.0, 2.0, -0.5, True),
                 (-1.0, 0.0, 0.0, False), (-1.0, 0.0, 0.25, True),
                 (0.0, 3.0, -0.5, True), (0.0, 3.0, -0.5, True)]

# networks whose hidden layers hold, or nearly hold, such pairs, the rho
# they run with, and the rows of each hidden layer computed by an add
_NEAR_ADDS = {
    "pairs-add": (lambda: _pairs(_GADGET_PAIRS), None, [1, 3]),
    "pairs-add-biases-swapped": (lambda: _pairs(
        _GADGET_PAIRS, [0.0, 0.25, 0.0, -0.5, -0.5, -0.5]), None, [1, 3]),
    "user-rho-pairs-add": (lambda: _pairs(_GADGET_PAIRS, label="user"),
                           np.sin, [1, 3]),
    "source-has-bias": (lambda: _pairs(
        [(1.0, 2.0, 0.25, False), (1.0, 2.0, -0.5, True)]), None, []),
    "source-is-rho": (lambda: _pairs(
        [(1.0, 2.0, 0.0, True), (1.0, 2.0, -0.5, True)]), None, []),
    "repeat-is-identity": (lambda: _pairs(
        [(1.0, 2.0, 0.0, False), (1.0, 2.0, -0.5, False)]), None, []),
    "pair-coefficient-differs": (lambda: _pairs(
        [(1.0, 2.0, 0.0, False), (1.0, 3.0, -0.5, True)]), None, []),
    "pair-column-differs": (lambda: _pairs(
        [(1.0, 0.0, 0.0, False), (0.0, 1.0, -0.5, True)]), None, []),
    "pair-entry-fewer": (lambda: _pairs(
        [(1.0, 2.0, 0.0, False), (0.0, 2.0, -0.5, True)]), None, []),
    "a-row-between": (lambda: _pairs(
        [(1.0, 2.0, 0.0, False), (3.0, 0.0, 0.0, False),
         (1.0, 2.0, -0.5, True)]), None, []),
    "rows-empty": (lambda: _pairs(
        [(0.0, 0.0, 0.0, False), (0.0, 0.0, -0.5, True),
         (1.0, 1.0, 0.0, False)]), None, []),
}


def _check_tiles(net, rho):
    """Bit-identity with the layer-by-layer reference for batches that
    end before, at and after the column tile boundaries.  The tile is as
    wide as the cache allows: both state buffers of one tile fit in
    ``2 * _TILE_BYTES`` and those of one more column would not, unless the
    tile is one column."""
    _, tile, height = core._compile(net)
    buffers = 2 * 8 * height  # bytes of both float64 states, per column
    assert tile == 1 or buffers * tile <= 2 * core._TILE_BYTES
    assert buffers * (tile + 1) > 2 * core._TILE_BYTES
    cols = np.random.default_rng(7).uniform(-1, 1, (net.input_shape.size,
                                                    2 * tile + 3))
    kept = cols.copy()
    # the reference's network, each record's arrays gathered once
    plain = MNN._from_valid(tuple(map(core._unrecorded, net.layers)),
                            net.activation_name)
    for width in (0, 1, 5, tile - 1, tile, tile + 1, 2 * tile + 3):
        for batch in (cols[:, :width], cols[:, 2:2 + width]):
            got, want = realize_flat(net, rho, batch), _layer_by_layer(
                plain, rho, batch)
            assert got.shape == want.shape == (net.output_shape.size,
                                               batch.shape[1])
            assert got.flags.c_contiguous and got.flags.owndata
            assert got.tobytes() == want.tobytes()  # signs of zero too
    assert cols.tobytes() == kept.tobytes()
    single = cols[:, 3:4]  # a strided column
    assert (realize_flat(net, rho, single).tobytes()
            == _layer_by_layer(plain, rho, single).tobytes())


@pytest.mark.parametrize("make, rho", [
    (lambda: build_str_pow2(0, 0.1, 1.0, relu_factory), None),
    (lambda: build_str_pow2(1, 0.1, 1.0, relu_factory), None),
    (lambda: build_str_pow2(2, 0.1, 1.0, relu_factory), None),
    (lambda: build_str_pow2(0, 0.1, 1.0, relu2_factory), None),
    (lambda: build_str_pow2(1, 0.1, 1.0, relu2_factory), None),
    (lambda: build_str_pow2(2, 0.1, 1.0, relu2_factory), None),
    (lambda: build_inv(InversionSpec(2, 1.0, 1e-3, 0.5), relu_factory), None),
    (_bias_off_the_map, None),
    (lambda: build_in(2, 0.5), None),
    (lambda: build_split(1), None),
    (lambda: build_str_pow2(1, 0.1, 1.0, relu_factory), np.sin),
    (lambda: build_str_pow2(3, 0.1, 1.0, relu_factory), None),
    (lambda: build_inv(InversionSpec(3, 1.0, 1e-3, 0.5), relu2_factory),
     None),
    (lambda: _random_net([(2, 2), (3, 2), (2, 3), (1, 3), (2, 1)],
                         {0, 1, 2}), None),
    (lambda: _random_net([(2, 2), (3, 2), (2, 3), (1, 3), (2, 1)], {1}),
     None),
    (lambda: _random_net([(2, 3), (1, 4), (3, 1)], {0}, "user"), np.sin),
    # the benchmark's networks: their programs add the gadgets' repeats,
    # and the multiplier's folded rows span 2401 copies of a 10-column tile
    (lambda: build_str_pow2(4, 1e-3, 1.0, relu_factory), None),
    (lambda: build_inv(InversionSpec(8, 1.0, 1e-3, 0.5), relu_factory),
     None),
    # a state of 84035 rows: the tile is one column
    (lambda: build_str_pow2(5, 1e-2, 1.0, relu_factory), None),
    *[(make, None) for make, _ in _NEAR_REPEATS.values()],
    *[(make, rho) for make, rho, _ in _NEAR_ADDS.values()],
], ids=["relu-k0", "relu-k1", "relu-k2", "relu2-k0", "relu2-k1", "relu2-k2",
        "inv-relu-n2", "bias-off-the-map", "glue-in", "glue-split",
        "user-rho", "relu-k3", "inv-relu2-n3", "rho-hidden-layers",
        "rho-one-layer", "user-rho-random", "relu-k4", "inv-relu-n8",
        "relu-k5", *_NEAR_REPEATS, *_NEAR_ADDS])
def test_realize_flat_is_bit_identical_to_layer_by_layer(make, rho):
    _check_tiles(make(), rho)


@pytest.mark.parametrize("name", list(_NEAR_REPEATS))
def test_only_runs_of_exact_copies_fold(name):
    make, plan = _NEAR_REPEATS[name]
    net = make()
    assert core._fold_plan(net) == plan
    steps = core._compile(net)[0]
    assert [vecs for _, _, vecs, *_ in steps] == plan


@pytest.mark.parametrize("make", [
    *[make for make, _ in _NEAR_REPEATS.values()],
    lambda: build_str_pow2(2, 0.1, 1.0, relu_factory),
    lambda: build_inv(InversionSpec(3, 1.0, 1e-3, 0.5), relu_factory)],
    ids=[*_NEAR_REPEATS, "relu-k2", "inv-relu-n3"])
def test_copies_match_a_block_by_block_reference(make):
    for layer in make().layers:
        assert core._copies(layer) == copies_by_blocks(layer)


def _added(steps):
    """The rows each step fills by an add."""
    return [sum(count for _, _, count, _ in step[7]) for step in steps]


@pytest.mark.parametrize("name", list(_NEAR_ADDS))
def test_only_rho_rows_repeating_an_identity_neighbour_are_added(name):
    make, _, added = _NEAR_ADDS[name]
    net = make()
    for layer in net.layers[:2]:
        m = layer.map
        role = core._roles(m, np.diff(m.indptr), layer.bias.reshape(-1),
                           layer.mask.rho.reshape(-1))
        assert (role == 3).nonzero()[0].tolist() == added
    assert _added(core._compile(net)[0]) == [len(added)] * 2 + [0]


def test_repeats_follow_their_sources_after_the_kernel_rows():
    # state order: the sources T1, T2, the other rho rows, then the repeats
    # Q1, Q2; the kernel writes the first four rows, each run of repeats
    # with one bias is one add, and rho acts on the last four
    for second, adds in (
            (None, ((0, 4, 1, -0.5), (1, 5, 1, 0.25))),
            ([0.0, 0.25, 0.0, -0.5, -0.5, -0.5],
             ((0, 4, 1, 0.25), (1, 5, 1, -0.5))),
            ([0.0, -0.5, 0.0, -0.5, -0.5, -0.5], ((0, 4, 2, -0.5),))):
        steps = core._compile(_pairs(_GADGET_PAIRS, second))[0]
        assert steps[0][7] == ((0, 4, 1, -0.5), (1, 5, 1, 0.25))
        assert steps[1][7] == adds
        for step in steps[:2]:
            assert (step[0], step[8], step[9]) == (4, 2, 6)
        _check_tiles(_pairs(_GADGET_PAIRS, second), None)


_MULTIPLIER = {f"{label}-k{k}": (lambda k=k, f=f: build_str_pow2(
    k, 1e-3, 1.0, f)) for label, f in [("relu", relu_factory),
                                       ("relu2", relu2_factory)]
    for k in range(5)}
_INVERTER = {f"inv-relu-n{n}": (lambda n=n: build_inv(InversionSpec(
    n, 1.0, 1e-3 if n == 8 else 1e-2, 0.5), relu_factory))
    for n in (2, 3, 5, 8)}
_INVERTER["inv-relu2-n3"] = lambda: build_inv(InversionSpec(3, 1.0, 1e-3, 0.5),
                                              relu2_factory)


def _assert_same_program(got, want):
    """Equal compiled programs: in every step, the arrays with their dtypes
    and the other fields; then the tile and the height."""
    assert len(got[0]) == len(want[0]) and got[1:] == want[1:]
    for step, expected in zip(got[0], want[0]):
        for a, b in zip(step, expected):
            assert type(a) is type(b)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            else:
                assert a == b


@pytest.mark.parametrize("name", [*_MULTIPLIER, *_INVERTER])
def test_one_column_equals_its_column_of_a_batch(name, tmp_path):
    # one column and a batch of tiles run one program; folding reads only
    # the arrays, so a loaded network folds as the built one
    built = {**_MULTIPLIER, **_INVERTER}[name]()
    save_network(built, tmp_path / "net.json")
    loaded = load_network(tmp_path / "net.json")
    rng = np.random.default_rng(11)
    cols = rng.uniform(-1, 1, (built.input_shape.size, 8))
    if name.startswith("inv"):  # A = I - B near the identity
        n = built.input_shape.rows
        cols = np.eye(n).reshape(-1, 1) - 0.4 / n * cols
    for net in (built, loaded):
        batch = realize_flat(net, None, cols)
        for i in range(cols.shape[1]):
            assert (realize_flat(net, None, cols[:, i:i + 1]).tobytes()
                    == batch[:, i:i + 1].tobytes())
    # the loaded network shares no layer objects with the built one; each
    # scans its repeated layers once, the loaded one sharing them where its
    # lines are equal: both compile to the same program
    _assert_same_program(core._compile(loaded), core._compile(built))
    plan = core._fold_plan(built)
    assert core._fold_plan(loaded) == plan
    if name == "relu-k4":  # the benchmark's multiplier: the leaves fold
        assert plan == [1] * 4 + [2401] * 15 + [1] * 4
    if name == "inv-relu-n8":  # the benchmark's inverter: three products
        assert plan == ([1] * 38 + [686] * 23 + [1] * 9 + [686] * 23
                        + [1] * 9 + [343] * 23 + [1] * 4)


@pytest.mark.parametrize("name, rows, entries, added, tile", [
    ("relu-k4", 118_514, 335_469, 62_426, 10),
    ("inv-relu-n8", 182_680, 437_778, 86_436, 38)],
    ids=["relu-k4", "inv-relu-n8"])
def test_benchmark_networks_add_their_gadgets_repeats(name, rows, entries,
                                                      added, tile):
    # per input, the kernel rows and entries, and the rows filled by an add
    # instead: a folded step's own, on each of its vectors
    steps, width, _ = core._compile({**_MULTIPLIER, **_INVERTER}[name]())
    assert sum(step[0] * step[2] for step in steps) == rows
    assert sum(len(step[5]) * step[2] for step in steps) == entries
    assert sum(n * step[2] for n, step in zip(_added(steps), steps)) == added
    assert width == tile


#: the coefficients and bias values of generated networks
_COEFFS = (1.0, -1.0, 0.5, 2.0, -0.25)


def _generated_layer(rng, out_shape, in_shape, rho, pairs):
    """A random layer of shape ``out_shape <- in_shape``: coefficients from
    ``_COEFFS`` at a density of 0, 0.15, 0.5 or 1, a fifth of the rows
    then emptied, bias entries on about a third of the positions and,
    where ``rho``, rho on about two fifths.  With ``rho`` and ``pairs``,
    about half of the position pairs (p, p + 1) become the relu gadget's
    pair ``(T, rho(T + b))``: p's entries copied to p + 1, p without bias
    or rho and p + 1 with rho."""
    out_size, in_size = math.prod(out_shape), math.prod(in_shape)
    density = rng.choice([0.0, 0.15, 0.5, 1.0])
    coeffs = np.where(rng.random((out_size, in_size)) < density,
                      rng.choice(_COEFFS, (out_size, in_size)), 0.0)
    coeffs[rng.random(out_size) < 0.2] = 0.0
    bias = np.where(rng.random(out_size) < 0.3,
                    rng.choice(_COEFFS, out_size), 0.0)
    on = rng.random(out_size) < 0.4 if rho else np.zeros(out_size, bool)
    if rho and pairs:
        for p in range(0, out_size - 1, 2):
            if rng.random() < 0.5:
                coeffs[p + 1] = coeffs[p]
                bias[p], on[p], on[p + 1] = 0.0, False, True
    j, l = np.nonzero(coeffs)
    idx = np.concatenate([np.stack(np.unravel_index(j, out_shape), 1),
                          np.stack(np.unravel_index(l, in_shape), 1)], 1)
    return Layer(SparseLinearMap(out_shape, in_shape, idx + 1, coeffs[j, l]),
                 bias.reshape(out_shape),
                 ActivationMask(out_shape, on.reshape(out_shape)))


def _generated_chain(rng, rows, cols, pairs):
    """A relu chain of ``_generated_layer``s through the matrix shapes
    ``(rows[t], cols[t])``, rho allowed on every layer but the last."""
    last = len(rows) - 2
    return MNN([_generated_layer(rng, (rows[t + 1], cols[t + 1]),
                                 (rows[t], cols[t]), t < last, pairs)
                for t in range(last + 1)], "relu")


@st.composite
def _generated_networks(draw):
    """A relu network laid out as the builders lay theirs out: a glue
    layer (with rho in half of the draws), then ``parallelize([child] *
    r)`` with r in {1, 2, 3, 7}, then, in three quarters of the draws, a
    dense tail without rho; without it, the body's run of copies reaches
    the last layer, which has no rho, as every chain's last layer.  The
    child is a chain of 1-3 layers through matrices of 1-3 rows and
    columns, with the gadget's pairs in 70 % of draws; in a fifth of the
    draws each it is itself ``parallelize`` of 2 or 3 copies of that
    chain, of that chain beside another one of other inner widths, of 2
    or 3 copies of such a pair beside the chain alone, so that a stack
    holds stacks, or of the chain beside its twin, equal arrays in new
    layer objects."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 3))
    sizes = st.integers(1, 3)
    rows = [draw(sizes) for _ in range(depth + 1)]
    cols = [draw(sizes) for _ in range(depth + 1)]
    pairs = draw(st.integers(0, 9)) < 7
    child = _generated_chain(rng, rows, cols, pairs)
    nest = draw(st.sampled_from(["none", "copies", "beside", "stacks",
                                 "twins"]))
    if nest == "copies":
        child = parallelize([child] * draw(st.sampled_from([2, 3])))
    elif nest in ("beside", "stacks"):
        inner = [cols[0], *(draw(sizes) for _ in range(depth - 1)), cols[-1]]
        pair = parallelize([child, _generated_chain(
            rng, [draw(sizes) for _ in range(depth + 1)], inner, pairs)])
        child = (pair if nest == "beside" else
                 parallelize([pair] * draw(st.sampled_from([2, 3]))
                             + [child]))
    elif nest == "twins":
        child = parallelize([child, MNN([Layer(layer.map, layer.bias,
                                               layer.mask)
                                         for layer in child.layers],
                                        "relu")])
    body = parallelize([child] * draw(st.sampled_from([1, 2, 3, 7])))
    glue = _generated_layer(rng, tuple(body.input_shape),
                            (draw(st.integers(1, 2)), draw(sizes)),
                            draw(st.booleans()), False)
    if draw(st.integers(0, 3)) == 0:
        return MNN([glue, *body.layers], "relu")
    tail = _generated_layer(rng, (draw(st.integers(1, 2)), draw(sizes)),
                            tuple(body.output_shape), False, False)
    return MNN([glue, *body.layers, tail], "relu")


@given(net=_generated_networks())
@settings(max_examples=150, deadline=None)
def test_generated_networks_compile_as_built(tmp_path_factory, net):
    # bit-identity with the reference at several widths, a tenth of the
    # inputs exact zeros; the copy counts of a block-by-block scan; the
    # last layer runs whole, also where a run of copies reaches it; and
    # the reloaded network's program is the built one's
    assert core._fold_plan(net)[-1] == 1
    rng = np.random.default_rng(13)
    for width in (1, 2, 5, 40):
        cols = rng.uniform(-1, 1, (net.input_shape.size, width))
        cols[rng.random(cols.shape) < 0.1] = 0.0
        assert (realize_flat(net, None, cols).tobytes()
                == _layer_by_layer(net, None, cols).tobytes())
    for layer in net.layers:
        assert core._copies(layer) == copies_by_blocks(layer)
    path = tmp_path_factory.mktemp("generated") / "net.json"
    save_network(net, path)
    _assert_same_program(core._compile(load_network(path)),
                         core._compile(net))


@pytest.mark.parametrize("make", [
    _MULTIPLIER["relu-k4"], _INVERTER["inv-relu-n8"],
    lambda: build_in(3, 0.5), _repeated], ids=["relu-k4", "inv-relu-n8",
                                                "glue-in", "repeats-fold"])
def test_operators_hold_only_their_maps_entries(make):
    # a kernel row holds its map row's entries and no bias or carry entry,
    # and a repeat's entries are its source's; a folded step holds its
    # block's.  Each step reads the whole state the one before it wrote:
    # ``cols`` rows on each of its ``vecs`` vectors
    net = make()
    steps = core._compile(net)[0]
    stored = [len(step[5]) + sum(int(step[3][src + count] - step[3][src])
                                 for src, _, count, _ in step[7])
              for step in steps]
    assert stored == [layer.map.nnz // step[2]
                      for layer, step in zip(net.layers, steps)]
    written = [(net.input_shape.size, 1)] + [(step[9], step[2])
                                             for step in steps[:-1]]
    assert [step[1] * step[2] for step in steps] == [
        height * vecs for height, vecs in written]


def test_realize_flat_compiles_each_network_once(monkeypatch):
    child = build_str_pow2(1, 0.1, 1.0, relu_factory)
    cols = np.random.default_rng(5).uniform(-1, 1, (child.input_shape.size,
                                                    9))
    # every step's assembly takes one cumsum of its row lengths
    built, cumsum = [], core.np.cumsum
    monkeypatch.setattr(core.np, "cumsum",
                        lambda *args, **kw: built.append(1) or cumsum(*args,
                                                                      **kw))
    # a batch compiles the one program, which then serves one column too
    wide = realize_flat(child, None, cols)
    assert len(built) >= child.num_layers
    program, built[:] = child._program, []
    assert any(vecs > 1 for _, _, vecs, *_ in program[0])
    single = realize_flat(child, None, cols[:, 4:5])
    for _ in range(2):
        assert realize_flat(child, None, cols).tobytes() == wide.tobytes()
        assert (realize_flat(child, None, cols[:, 4:5]).tobytes()
                == single.tobytes())
    assert child._program is program
    assert built == []
    monkeypatch.undo()
    # networks sharing the child's layers compile their own programs
    top = parallelize([child, child])
    tail = concat(_random_net([(2, 2), (1, 3)], set()), child)
    for net in (child, top, tail):
        _check_tiles(net, None)
    assert child._program is program


@pytest.mark.parametrize("index", [np.int32, np.int64])
@pytest.mark.parametrize("width", [1, 2, 37])
def test_csr_kernels_are_the_ones_the_product_runs(index, width):
    # realize_flat calls these kernels directly, and the reference
    # _layer_by_layer runs ``matrix() @``: both must sum each row in stored
    # order, with unsorted column indices, into a zeroed state
    rng = np.random.default_rng(width)
    rows, cols, per_row = 40, 30, 12
    indptr = np.arange(0, rows * per_row + 1, per_row, dtype=index)
    indices = np.concatenate([rng.permutation(cols)[:per_row]
                              for _ in range(rows)]).astype(index)
    data = rng.uniform(-1, 1, indptr[-1]) * 10.0 ** rng.integers(
        -8, 9, indptr[-1])  # magnitudes far apart, so order shows
    V = rng.uniform(-1, 1, (cols, width))
    op = sparse.csr_matrix((data, indices, indptr), shape=(rows, cols))
    want = op @ V
    Y = np.zeros(rows * width)
    if width == 1:
        _sparsetools.csr_matvec(rows, cols, indptr, indices, data,
                                V.reshape(-1), Y)
    else:
        _sparsetools.csr_matvecs(rows, cols, width, indptr, indices, data,
                                 V.reshape(-1), Y)
    assert Y.tobytes() == want.tobytes()
    # the data would show a change of order
    assert (op.sorted_indices() @ V).tobytes() != want.tobytes()


@pytest.mark.parametrize("rho", [core.relu, core.relu_squared],
                         ids=["relu", "relu2"])
def test_registered_activations_write_into_out(rho):
    values = np.array([[-2.0, -0.0, 0.0, 0.5], [3.0, -1e-300, 1e150, -7.0]])
    # a 0-d, a 1-d and a 2-D row view of the state
    for view in (lambda a: a[1, 0, ...], lambda a: a[1], lambda a: a[:1]):
        want = np.asarray(rho(view(values.copy())))
        state = values.copy()
        out = view(state)
        assert rho(out, out=out) is out
        assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("rho", [lambda x, out=None: np.maximum(x, 0.0),
                                 lambda x, out=None: None,
                                 lambda x: np.maximum(x, 0.0)],
                         ids=["fresh-array", "none", "no-out"])
def test_rho_that_does_not_return_its_out_block_is_refused(rho):
    net = build_str_pow2(1, 0.1, 1.0, relu_factory)
    for width in (1, 3):  # one vector and a tile of three
        with pytest.raises(ValueError, match=r"^rho must act in place: "
                           r"called as rho\(block, out=block\), it must "
                           r"write into block and return it$"):
            realize_flat(net, rho, np.ones((net.input_shape.size, width)))


def test_realize_flat_is_reentrant():
    # two threads on one uncompiled network: each call owns its buffers,
    # and the one program is compiled by whichever call needs it first
    net, shared = (build_inv(InversionSpec(2, 1.0, 1e-3, 0.5), relu_factory)
                   for _ in range(2))
    tile = core._compile(net)[1]
    assert max(core._fold_plan(net)) > 1
    cols = np.random.default_rng(9).uniform(-0.3, 0.3,
                                            (net.input_shape.size, tile + 1))
    widths = (1, 5, tile + 1)
    want = [realize_flat(net, None, cols[:, :w]).tobytes() for w in widths]
    start, got = threading.Barrier(2), [[], []]

    def run(mine):
        start.wait()
        for _ in range(20):
            mine.append([realize_flat(shared, None, cols[:, :w]).tobytes()
                         for w in widths])

    threads = [threading.Thread(target=run, args=(mine,)) for mine in got]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert all(calls == [want] * 20 for calls in got)


@pytest.mark.parametrize("bad", [np.ones((8, 2)) + 1j, np.full((8, 2), "1"),
                                 np.full((8, 2), 1.0, dtype=object),
                                 np.ones((8, 2), dtype=bool)],
                         ids=["complex", "string", "object", "bool"])
def test_realize_refuses_non_real_dtypes(bad):
    # complex inputs lost their imaginary part with a ComplexWarning, and
    # "1" strings were read as numbers
    net = build_str_pow2(1, 0.1, 1.0, relu2_factory)
    name = rf"got dtype {bad.dtype}$"
    with pytest.raises(ValueError, match=r"^columns must hold integers or "
                       r"real floats, " + name):
        realize_flat(net, None, bad)
    with pytest.raises(ValueError, match=r"^input must .*" + name):
        realize(net, bad.reshape(2, 4, 2)[:, :, 0])
    with pytest.raises(ValueError, match=r"^inputs must .*" + name):
        realize_many(net, bad.T.reshape(2, 2, 4))


def test_realize_reads_integer_inputs_as_floats():
    net = build_str_pow2(1, 0.1, 1.0, relu2_factory)
    ints = np.arange(16).reshape(8, 2) % 3 - 1
    assert (realize_flat(net, None, ints).tobytes()
            == realize_flat(net, None, ints.astype(float)).tobytes())


class TestScaleOutput:
    def test_scales_last_layer_only(self, rng):
        net = identity_mnn((2, 2), 3)
        scaled = scale_output(net, -2.5)
        X = rng.uniform(-1, 1, (2, 2))
        assert np.allclose(realize(scaled, X), -2.5 * X, atol=1e-15)
        assert scaled.num_weights == net.num_weights
        assert scaled.num_layers == net.num_layers

    def test_scale_by_one_is_identity_op(self):
        net = identity_mnn((2, 2), 2)
        assert mnn_equal(scale_output(net, 1.0), net)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="collapses"):
            scale_output(identity_mnn((2, 2), 1), 0.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, c):
        with pytest.raises(ValueError, match=r"^c must be finite"):
            scale_output(identity_mnn((2, 2), 1), c)

    def test_bias_scaled_too(self):
        bias = np.array([[1.0, 2.0], [3.0, 4.0]])
        net = MNN([Layer(_ident_map(2), bias)], "relu")
        got = realize(scale_output(net, 3.0), np.zeros((2, 2)))
        assert np.array_equal(got, 3.0 * bias)

    def test_underflow_to_zero_is_refused_by_c(self):
        # the bias 1e-200 * 1e-200 underflows to 0: one weight would vanish
        net = MNN([Layer(_ident_map(1), [[1e-200]])])
        assert net.num_weights == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^c = 1e-200 scales a "
                               r"last-layer coefficient or bias entry to "
                               r"zero or infinity$"):
                scale_output(net, 1e-200)

    def test_overflow_to_infinity_is_refused_by_c(self):
        net = scale_output(identity_mnn((1, 1), 1), 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning
            with pytest.raises(ValueError, match=r"^c = 1e\+308 scales"):
                scale_output(net, 1e308)
            with pytest.raises(ValueError, match=r"^c = -1e\+308 scales"):
                scale_output(MNN([Layer(_ident_map(1), [[-4.0]])]), -1e308)

    def test_zero_bias_entries_stay_zero(self):
        # only nonzero bias entries are weights; 0 * c stays a free 0
        net = MNN([Layer(_ident_map(2), [[0.0, 1e-300], [0.0, 0.0]])])
        scaled = scale_output(net, 1e-10)
        assert scaled.num_weights == net.num_weights == 5
        assert scaled.layers[0].bias[0, 1] == 1e-310


class TestFromBlocks:
    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError, match=r"entry 0 .* stores a zero"):
            SparseLinearMap.from_blocks((1, 1), (1, 1),
                                        [(0, 0, 0, 0, 1, 1, 0.0)])

    def test_overlapping_blocks_are_refused(self):
        blocks = [(0, 0, 0, 0, 2, 2, 1.0), (1, 1, 1, 1, 1, 1, 1.0)]
        with pytest.raises(ValueError, match=r"entry 4 .*\(duplicate\)"):
            SparseLinearMap.from_blocks((2, 2), (2, 2), blocks)

    def test_block_offsets(self, rng):
        # place input block (rows 0-1, cols 0-1) into output rows 2-3, cols 0-1
        lm = SparseLinearMap.from_blocks((4, 2), (2, 2),
                                         [(2, 0, 0, 0, 2, 2, -1.0)])
        X = rng.uniform(-1, 1, (2, 2))
        got = _apply(lm, X)
        assert np.array_equal(got[:2], np.zeros((2, 2)))
        assert np.array_equal(got[2:], -X)

    def test_entries_are_the_blocks_entrywise(self):
        lm = SparseLinearMap.from_blocks((2, 3), (1, 2), [
            (1, 1, 0, 0, 1, 2, 2.5), (0, 0, 0, 1, 1, 1, -1.0)])
        assert lm.idx.tolist() == [[1, 1, 1, 2], [2, 2, 1, 1], [2, 3, 1, 2]]
        assert lm.val.tolist() == [-1.0, 2.5, 2.5]
        empty = SparseLinearMap.from_blocks((2, 2), (1, 1), [])
        assert empty.nnz == 0 and empty.idx.shape == (0, 4)

    @pytest.mark.parametrize("field, size, reason", [
        (4, 1.5, "block 1 rows must be an integer, got 1.5"),
        (5, 1.5, "block 1 cols must be an integer, got 1.5"),
        (4, -1, "block 1 rows must be >= 0, got -1"),
        (5, -1, "block 1 cols must be >= 0, got -1"),
        (4, True, "block 1 rows must be an integer, got True"),
        (5, np.float64(2.0), "block 1 cols must be an integer, got "
                             r"np.float64\(2.0\)"),
    ], ids=["rows-1.5", "cols-1.5", "rows-negative", "cols-negative",
            "rows-boolean", "cols-numpy-float"])
    def test_block_sizes_follow_the_size_rule(self, field, size, reason):
        # 1.5 used to raise numpy's TypeError "'float' object cannot be
        # interpreted as an integer" and -1 "negative dimensions are not
        # allowed", neither naming the block
        block = [0, 0, 0, 0, 1, 1, 1.0]
        block[field] = size
        with pytest.raises(ValueError, match=f"^{reason}$"):
            SparseLinearMap.from_blocks(
                (4, 4), (4, 4), [(0, 0, 0, 0, 1, 1, 1.0), tuple(block)])

    @staticmethod
    def _by_block(out_shape, in_shape, blocks):
        """``from_blocks`` as it read its table block by block, each block's
        quadruples made by numpy calls of its own: the reference that the
        one-pass reading must match, map for map and refusal for refusal."""
        idx, val = [np.empty((0, 4), dtype=np.int64)], [np.empty(0)]
        for out_row, out_col, in_row, in_col, rows, cols, coeff in blocks:
            r, c = np.indices((rows, cols)).reshape(2, -1) + 1
            idx.append(np.stack([out_row + r, out_col + c,
                                 in_row + r, in_col + c], axis=1))
            val.append(np.full(r.size, core._real("block coefficients", coeff),
                                dtype=float))
        return SparseLinearMap(out_shape, in_shape, np.concatenate(idx),
                               np.concatenate(val))

    def _same_as_by_block(self, out_shape, in_shape, blocks):
        """``from_blocks`` gives the reference's arrays, dtypes and frozen
        flags, or refuses with its ``ValueError`` text; list and generator
        tables alike.  Returns the map, or None when refused."""
        try:
            want = self._by_block(out_shape, in_shape, blocks)
        except ValueError as err:
            for table in (blocks, iter(blocks)):
                with pytest.raises(ValueError) as got:
                    SparseLinearMap.from_blocks(out_shape, in_shape, table)
                assert str(got.value) == str(err)
            return None
        for table in (blocks, iter(blocks)):
            got = SparseLinearMap.from_blocks(out_shape, in_shape, table)
            assert (got.out_shape, got.in_shape) == (want.out_shape,
                                                     want.in_shape)
            for name in ("indptr", "indices", "val"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)
                assert not a.flags.writeable
        return got

    def test_matches_the_block_by_block_reference(self):
        # seeded tables of blocks that fit their shapes: random offsets,
        # sizes including 0, and int, float and numpy coefficients.  Blocks
        # that overlap are refused by both with the same text
        taken = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            out_shape = tuple(int(d) for d in rng.integers(1, 9, 2))
            in_shape = tuple(int(d) for d in rng.integers(1, 9, 2))
            coeffs = [lambda: int(rng.choice([-3, 1, 2])),
                      lambda: float(rng.normal()),
                      lambda: np.float32(rng.normal()),
                      lambda: np.int64(rng.choice([-4, 5])),
                      lambda: np.float64(rng.uniform(0.5, 1.0))]
            blocks = []
            for _ in range(rng.integers(0, 6)):
                size = [int(rng.integers(0, d + 1))
                        for d in out_shape + in_shape]
                rows, cols = min(size[0], size[2]), min(size[1], size[3])
                ends = out_shape + in_shape
                offsets = [int(rng.integers(0, end - n + 1))
                           for end, n in zip(ends, (rows, cols) * 2)]
                blocks.append((*offsets, rows, cols,
                               coeffs[rng.integers(len(coeffs))]()))
            taken += self._same_as_by_block(out_shape, in_shape,
                                            blocks) is not None
        assert taken >= 40

    @pytest.mark.parametrize("blocks", [
        [(0, 0, 0, 0, 2, 2, 1.0), (1, 1, 1, 1, 1, 1, 1.0)],
        [(0, 0, 0, 0, 1, 1, 2.0), (1, 0, 1, 0, 1, 2, 0.0)],
        [(0, 0, 0, 0, 1, 1, 2.0), (1, 1, 1, 1, 2, 2, 1.0)],
        [(0.5, 0, 0, 0, 1, 1, 1.0)],
        [(0, 0, 0, 0, 1, 1, 1.0), (0, 1, 1, 1, 0, 0, 1.0), (0, 1, 1, 1, 1, 1,
                                                            np.nan)],
        [(0, 0, 0, 0, 1, 1, np.float32(3.0)), (2, 0, 0, 0, 1, 1, 1.0)],
    ], ids=["overlap", "zero", "out-of-range", "offset-0.5", "non-finite",
            "out-of-range-row"])
    def test_refusals_are_the_reference_texts(self, blocks):
        assert self._same_as_by_block((2, 2), (2, 2), blocks) is None

    @pytest.mark.parametrize("bad", NOT_REAL.values(), ids=NOT_REAL.keys())
    def test_coefficient_refusals_are_the_reference_texts(self, bad):
        blocks = [(0, 0, 0, 0, 1, 1, 1.0), (1, 1, 1, 1, 1, 1, bad)]
        assert self._same_as_by_block((2, 2), (2, 2), blocks) is None

    def test_a_block_past_int64_entries_is_not_taken(self):
        # 2^32 x 2^32 entries would wrap to 0 in int64, an empty block
        with pytest.raises(OverflowError):
            SparseLinearMap.from_blocks((2, 2), (2, 2),
                                        [(0, 0, 0, 0, 2 ** 32, 2 ** 32, 1.0)])

    def test_empty_table(self):
        assert self._same_as_by_block((2, 2), (1, 1), []).nnz == 0


def test_matrix_shape_size():
    s = MatrixShape(3, 5)
    assert s.size == 15
    assert tuple(s) == (3, 5)


@pytest.mark.parametrize("shape", [(2.9, 1), (2, 1.0), (True, 1), ("2", 1),
                                   (2, 3, 4), (2,)])
def test_shapes_must_be_integers(shape):
    # (2.9, 1) used to become (2, 1), True to read as 1 and (2, 3, 4) to
    # lose its last item
    with pytest.raises(ValueError, match="shape must be two integers"):
        SparseLinearMap(shape, (1, 1), np.empty((0, 4), dtype=np.int64), [])
    with pytest.raises(ValueError, match="shape must be two integers"):
        ActivationMask(shape)


def test_numpy_integer_shapes_are_accepted():
    lm = SparseLinearMap((np.int64(2), np.int32(1)), np.array([1, 1]),
                         [[2, 1, 1, 1]], [1.0])
    assert lm.out_shape == (2, 1) and type(lm.out_shape.rows) is int
    with pytest.raises(ValueError, match="shape must be positive"):
        ActivationMask((np.int64(0), 1))


def test_activation_registry():
    assert set(ACTIVATIONS) == {"relu", "relu2"}
    assert ACTIVATIONS["relu"](np.array(-2.0)) == 0.0
    assert ACTIVATIONS["relu2"](np.array(3.0)) == 9.0


class TestReadOnly:
    """What a network stores, counts and computes cannot drift apart: its
    parts refuse assignment after construction."""

    @staticmethod
    def _refused(obj, name, value):
        kind = type(obj).__name__
        with pytest.raises(AttributeError, match=rf"^{kind}\.{name} is "
                           "read-only$"):
            setattr(obj, name, value)
        with pytest.raises(AttributeError, match=rf"^{kind}\.{name} is "
                           "read-only$"):
            delattr(obj, name)

    def test_mnn(self):
        net = identity_mnn((1, 1), 1)
        before = realize(net, np.ones((1, 1)))
        five = Layer(SparseLinearMap((1, 1), (1, 1), [[1, 1, 1, 1]], [5.0]))
        for name, value in [("layers", (five,)), ("activation_name", "relu"),
                            ("_program", None),
                            ("extra", 1)]:
            self._refused(net, name, value)
        # the compiled program and the counts still describe the same layers
        assert net.num_weights == 1
        assert np.array_equal(realize(net, np.ones((1, 1))), before)

    def test_layer(self):
        layer = Layer(_ident_map(1), [[2.0]])
        for name, value in [("map", _ident_map(1)), ("bias", np.zeros((1, 1))),
                            ("mask", ActivationMask((1, 1))),
                            ("weight_count", 0)]:
            self._refused(layer, name, value)
        assert layer.weight_count == 2

    def test_sparse_linear_map(self):
        lm = _ident_map(2)
        for name in type(lm).__slots__:
            self._refused(lm, name, getattr(lm, name))
        self._refused(lm, "extra", 1)

    def test_activation_mask(self):
        mask = ActivationMask.all_rho((1, 2))
        self._refused(mask, "rho", np.zeros((1, 2), dtype=bool))
        self._refused(mask, "shape", MatrixShape(1, 1))
        assert mask.any_rho


@pytest.mark.parametrize("call, reason", [
    (lambda: MNN([]), "a network needs at least one layer"),
    (lambda: Layer(_ident_map(2), np.zeros((2, 3))),
     r"bias shape \(2, 3\) != \(2, 2\)"),
    (lambda: Layer(_ident_map(2), mask=ActivationMask((2, 3))),
     "mask shape does not match the layer output"),
    (lambda: ActivationMask((2, 2), np.zeros((2, 3), dtype=bool)),
     "mask array does not match shape"),
    (lambda: realize_many(identity_mnn((2, 2), 1), np.ones((5, 3, 3))),
     r"batch shape \(5, 3, 3\) does not match network input \(2, 2\)"),
    (lambda: realize_many(identity_mnn((2, 2), 1), np.ones((2, 2))),
     r"batch shape \(2, 2\) does not match network input \(2, 2\)"),
], ids=["no-layers", "bias-shape", "mask-shape", "rho-shape",
        "batch-of-wrong-inputs", "batch-without-batch-axis"])
def test_shapes_that_do_not_fit_are_refused(call, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        call()


def test_mnn_equal_compares_depth():
    assert not mnn_equal(identity_mnn((2, 2), 2), identity_mnn((2, 2), 3))


def test_mnn_equal_detects_value_change():
    a = identity_mnn((2, 2), 2)
    b = scale_output(identity_mnn((2, 2), 2), 2.0)
    assert not mnn_equal(a, b)
    assert mnn_equal(a, identity_mnn((2, 2), 2))
