"""Composition and parallelization preserve counts and realizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassennet import combinators, core
from strassennet.combinators import concat, parallelize
from strassennet.core import (MNN, ActivationMask, Layer, SparseLinearMap,
                              identity_mnn, mnn_equal, realize, realize_flat,
                              scale_output)
from strassennet.gadgets import GadgetSpec, relu2_factory, relu_factory
from strassennet.inversion import (InversionSpec, _build_flip,
                                   _build_mix_aux, build_fill, build_inv)
from strassennet.io import network_from_dict, network_to_dict
from strassennet.strassen import (RectShape, build_str_pow2, build_str_rect,
                                  build_str_square)


def _affine_net(n, coeff, bias_value, depth=1):
    layers = []
    for d in range(depth):
        lm = SparseLinearMap.from_blocks(
            (n, n), (n, n), [(0, 0, 0, 0, n, n, coeff if d == 0 else 1.0)])
        bias = np.full((n, n), bias_value) if d == depth - 1 else None
        layers.append(Layer(lm, bias))
    return MNN(layers, "relu")


def _labelled(net, label):
    return MNN(net.layers, label)


class TestConcat:
    def test_counts_add_exactly(self):
        a = identity_mnn((2, 2), 3)
        b = identity_mnn((2, 2), 2)
        c = concat(a, b)
        assert c.num_layers == a.num_layers + b.num_layers
        assert c.num_weights == a.num_weights + b.num_weights

    def test_realization_is_composition(self, rng):
        f = _affine_net(2, 2.0, 1.0)   # X -> 2X + 1
        g = _affine_net(2, -1.0, 0.5)  # X -> -X + 0.5
        X = rng.uniform(-1, 1, (2, 2))
        got = realize(concat(f, g), X)
        want = realize(f, realize(g, X))
        assert np.array_equal(got, want)  # stacking is bit-exact

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cannot compose"):
            concat(identity_mnn((2, 2), 1), identity_mnn((3, 3), 1))

    def test_activation_mismatch_rejected(self):
        with pytest.raises(ValueError, match="activation mismatch"):
            concat(_labelled(identity_mnn((2, 2), 1), "relu"),
                   _labelled(identity_mnn((2, 2), 1), "relu2"))

    def test_label_comes_from_the_labelled_operand(self):
        glue = identity_mnn((2, 2), 1)
        relu = _labelled(identity_mnn((2, 2), 1), "relu")
        assert concat(glue, relu).activation_name == "relu"
        assert concat(relu, glue).activation_name == "relu"
        assert concat(glue, glue).activation_name is None

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_additivity_property(self, d1, d2, d3):
        nets = [identity_mnn((2, 3), d) for d in (d1, d2, d3)]
        combined = concat(nets[2], concat(nets[1], nets[0]))
        assert combined.num_layers == d1 + d2 + d3
        assert combined.num_weights == 6 * (d1 + d2 + d3)


class TestParallelize:
    def test_blocks_run_independently(self, rng):
        top = _affine_net(2, 3.0, 0.0)
        bottom = _affine_net(2, -1.0, 2.0)
        par = parallelize([top, bottom])
        X = rng.uniform(-1, 1, (4, 2))
        got = realize(par, X)
        assert np.array_equal(got[:2], realize(top, X[:2]))
        assert np.array_equal(got[2:], realize(bottom, X[2:]))

    def test_counts_add(self):
        nets = [identity_mnn((2, 2), 2) for _ in range(7)]
        par = parallelize(nets)
        assert par.num_weights == 7 * 8
        assert par.num_layers == 2
        assert tuple(par.input_shape) == (14, 2)

    def test_ragged_intermediate_widths_are_padded(self, rng):
        # one branch widens internally, the other stays narrow; the stacked
        # network must still compute both, column-padding the narrow one
        wide_hidden = Layer(SparseLinearMap.from_blocks((2, 4), (2, 2), [
            (0, 0, 0, 0, 2, 2, 1.0), (0, 2, 0, 0, 2, 2, 1.0)]))
        wide_out = Layer(SparseLinearMap.from_blocks((2, 2), (2, 4), [
            (0, 0, 0, 0, 2, 2, 1.0), (0, 0, 0, 2, 2, 2, 1.0)]))
        wide = MNN([wide_hidden, wide_out], "relu")   # X -> 2X via a detour
        narrow = identity_mnn((2, 2), 2)
        par = parallelize([wide, narrow])
        X = rng.uniform(-1, 1, (4, 2))
        got = realize(par, X)
        assert np.allclose(got[:2], 2.0 * X[:2], atol=1e-15)
        assert np.array_equal(got[2:], X[2:])
        assert par.num_weights == wide.num_weights + narrow.num_weights

    def test_depth_mismatch_message_suggests_padding(self):
        with pytest.raises(ValueError, match="pad the shallower"):
            parallelize([identity_mnn((2, 2), 1), identity_mnn((2, 2), 3)])

    def test_activation_mismatch(self):
        with pytest.raises(ValueError, match="activation labels differ"):
            parallelize([_labelled(identity_mnn((2, 2), 1), "relu"),
                         _labelled(identity_mnn((2, 2), 1), "relu2")])

    def test_label_comes_from_the_labelled_operands(self):
        glue = identity_mnn((2, 2), 1)
        relu2 = _labelled(identity_mnn((2, 2), 1), "relu2")
        assert parallelize([glue, relu2, glue, relu2]).activation_name == "relu2"
        assert parallelize([glue, glue]).activation_name is None

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError, match="column counts differ"):
            parallelize([identity_mnn((2, 2), 1), identity_mnn((2, 3), 1)])

    def test_output_column_count_mismatch(self):
        widen = MNN([Layer(SparseLinearMap((2, 3), (2, 2), [[1, 1, 1, 1]],
                                           [1.0]))])
        with pytest.raises(ValueError, match="^output column counts differ"):
            parallelize([identity_mnn((2, 2), 1), widen])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            parallelize([])

    @staticmethod
    def _chain_calls(monkeypatch):
        """The list every ``core._chain`` call appends its arguments to."""
        calls, chain = [], core._chain

        def counted(*args):
            calls.append(args)
            chain(*args)

        monkeypatch.setattr(core, "_chain", counted)
        return calls

    @pytest.mark.parametrize("make", [
        lambda: [build_str_pow2(1, 1e-3, 1.0, relu_factory)] * 7,
        lambda: [_affine_net(2, 3.0, 0.0, depth=2),
                 _affine_net(2, -1.0, 2.0, depth=2)],
        lambda: [build_str_square(3, 1e-3, 1.0, relu_factory),
                 build_fill(3, build_str_square(3, 1e-3, 1.0,
                                                relu_factory).num_layers)],
    ], ids=["seven-copies", "two-distinct", "padded-pair"])
    def test_walks_no_chain(self, make, monkeypatch):
        # stacked layers of equal-depth valid networks chain by construction
        nets = make()
        calls = self._chain_calls(monkeypatch)
        par = parallelize(nets)
        assert calls == []
        assert mnn_equal(par, MNN(list(par.layers), par.activation_name))
        assert len(calls) == par.num_layers

    @pytest.mark.parametrize("make, calls", [
        (lambda: build_inv(InversionSpec(8, 1.0, 1e-3, 0.5), relu_factory),
         67),
        (lambda: build_str_pow2(4, 1e-3, 1.0, relu_factory), 23),
    ], ids=["inv-relu-n8", "relu-k4"])
    def test_builds_walk_only_their_own_chains(self, make, calls,
                                               monkeypatch):
        # 204 and 95 when parallelize walked each stacked chain again
        counted = self._chain_calls(monkeypatch)
        make()
        assert len(counted) == calls

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_block_independence_property(self, count, seed):
        rng = np.random.default_rng(seed)
        scales = rng.uniform(0.5, 2.0, count)
        nets = [scale_output(identity_mnn((1, 3), 2), s) for s in scales]
        par = parallelize(nets)
        X = rng.uniform(-1, 1, (count, 3))
        got = realize(par, X)
        assert np.allclose(got, scales[:, None] * X, atol=1e-15)


def test_concat_of_parallel_keeps_realization(rng):
    # (P(f, g)) . split == stack of f, g applied to halves, end to end
    top = _affine_net(2, 1.0, 1.0, depth=2)
    bottom = _affine_net(2, 2.0, 0.0, depth=2)
    par = parallelize([top, bottom])
    X = rng.uniform(-1, 1, (4, 2))
    up = realize(par, X)
    assert np.array_equal(up[:2], realize(top, X[:2]))
    assert np.array_equal(up[2:], realize(bottom, X[2:]))


def _stack_by_quadruples(children):
    """The stacking as the quadruple table of the children's entries,
    shifted to their output and input rows and passed through the public
    constructor: the reference that ``_stack_layers`` must match."""
    out_rows = sum(layer.out_shape.rows for layer in children)
    in_rows = sum(layer.in_shape.rows for layer in children)
    out_cols = max(layer.out_shape.cols for layer in children)
    in_cols = max(layer.in_shape.cols for layer in children)
    idx_parts = []
    val_parts = []
    bias = np.zeros((out_rows, out_cols))
    rho = np.zeros((out_rows, out_cols), dtype=bool)
    out_off = 0
    in_off = 0
    for layer in map(core._unrecorded, children):
        if layer.map.nnz:
            shifted = layer.map.idx
            shifted[:, 0] += out_off
            shifted[:, 2] += in_off
            idx_parts.append(shifted)
            val_parts.append(layer.map.val)
        r, c = layer.out_shape
        bias[out_off:out_off + r, :c] = layer.bias
        rho[out_off:out_off + r, :c] = layer.mask.rho
        out_off += r
        in_off += layer.in_shape.rows
    if idx_parts:
        idx = np.concatenate(idx_parts, axis=0)
        val = np.concatenate(val_parts)
    else:
        idx = np.empty((0, 4), dtype=np.int64)
        val = np.empty(0)
    linmap = SparseLinearMap((out_rows, out_cols), (in_rows, in_cols), idx, val)
    return Layer(linmap, bias, ActivationMask((out_rows, out_cols), rho))


def _assert_same_layers(got, want):
    """Equal layers, with the same CSR dtypes, and stacked arrays frozen."""
    for a, b in zip(got, want):
        pa, pb = core._unrecorded(a), core._unrecorded(b)
        for name in ("indptr", "indices", "val"):
            x, y = getattr(pa.map, name), getattr(pb.map, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
            assert not x.flags.writeable
        assert a.out_shape == b.out_shape and a.in_shape == b.in_shape
        assert np.array_equal(pa.bias, pb.bias)
        assert np.array_equal(pa.mask.rho, pb.mask.rho)
        assert a.weight_count == b.weight_count


_BUILDS = {
    **{f"pow2-{fac.activation_name}-k{k}":
       lambda k=k, fac=fac: build_str_pow2(k, 1e-3, 1.0, fac)
       for fac in (relu_factory, relu2_factory) for k in range(5)},
    "rect-5x6x4": lambda: build_str_rect(RectShape(5, 6, 4), 1e-3, 1.0,
                                         relu_factory),
    **{f"square-n{n}": lambda n=n: build_str_square(n, 1e-3, 1.0,
                                                    relu_factory)
       for n in (3, 5)},
    **{f"inv-{fac.activation_name}-n{n}-delta{delta}":
       lambda n=n, delta=delta, fac=fac: build_inv(
           InversionSpec(n, 1.0, 1e-2, delta), fac)
       for fac in (relu_factory, relu2_factory)
       for n in (1, 2, 3, 4, 8) for delta in (0.5, 0.9)},
}


@pytest.mark.parametrize("make", _BUILDS.values(), ids=_BUILDS.keys())
def test_stacking_matches_the_quadruple_reference(make, monkeypatch):
    net = make()
    monkeypatch.setattr(combinators, "_stack_layers", _stack_by_quadruples)
    want = make()
    assert mnn_equal(net, want)
    _assert_same_layers(net.layers, want.layers)


def _reloaded(net):
    """An equal network that shares no layer object with ``net``."""
    return network_from_dict(network_to_dict(net))


# children with rho rows and bias: gadgets, a multiplier, and glue of the
# Neumann network (the carry layers of build_fill are one shared layer)
_CHILDREN = {
    "relu-gadget": lambda: relu_factory.build(GadgetSpec(1e-3, 2.0)),
    "relu2-gadget": lambda: relu2_factory.build(GadgetSpec(1e-3, 2.0)),
    "relu-k2": lambda: build_str_pow2(2, 1e-3, 1.0, relu_factory),
    "relu2-k2": lambda: build_str_pow2(2, 1e-3, 1.0, relu2_factory),
    "neu-fill": lambda: build_fill(2, 4),
    "neu-mix-aux": lambda: _build_mix_aux(2, 1),
    "neu-flip": lambda: _build_flip(3, 2),
}


@pytest.mark.parametrize("r", [1, 2, 7])
@pytest.mark.parametrize("make", _CHILDREN.values(), ids=_CHILDREN.keys())
def test_copies_of_one_child_stack_as_distinct_children(make, r):
    # r copies of one network are tiled from it; r equal networks with
    # distinct layers are gathered child by child, and one child is itself
    net = make()
    copies = [_reloaded(net) for _ in range(r)]
    assert not any(a is b for a, b in zip(copies[0].layers, net.layers))
    got = parallelize([net] * r)
    want = parallelize(copies) if r > 1 else net
    assert mnn_equal(got, want)
    _assert_same_layers(got.layers, want.layers)
    cols = np.random.default_rng(r).uniform(-1, 1, (got.input_shape.size, 5))
    for batch in (cols, cols[:, 2:3]):
        assert (realize_flat(got, None, batch).tobytes()
                == realize_flat(want, None, batch).tobytes())


def _random_layer(rng, out_shape, in_shape):
    """A layer with random entries (possibly none), bias and mask."""
    dims = out_shape + in_shape
    present = rng.random(dims) < rng.choice([0.0, 0.3, 1.0])
    idx = np.argwhere(present) + 1
    val = rng.choice([-2.5, -1.0, 0.5, 3.0], len(idx))
    bias = np.where(rng.random(out_shape) < 0.5, rng.normal(size=out_shape),
                    0.0)
    rho = rng.random(out_shape) < 0.5
    return Layer(SparseLinearMap(out_shape, in_shape, idx, val), bias,
                 ActivationMask(out_shape, rho))


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4),
                          st.integers(1, 3), st.integers(1, 4)),
                min_size=1, max_size=4),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_stacking_random_children_matches_the_reference(shapes, seed):
    # ragged output and input column widths, empty maps, a single child
    rng = np.random.default_rng(seed)
    children = [_random_layer(rng, (r, c), (ri, ci))
                for r, c, ri, ci in shapes]
    got = combinators._stack_layers(children)
    _assert_same_layers([got], [_stack_by_quadruples(children)])
    lm = got.map
    again = SparseLinearMap(lm.out_shape, lm.in_shape, lm.idx, lm.val)
    _assert_same_layers([Layer(again, got.bias, got.mask)], [got])
