"""Composition and parallelization preserve counts and realizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassennet.combinators import concat, parallelize
from strassennet.core import (MNN, Layer, SparseLinearMap, identity_mnn,
                              realize, scale_output)


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
        got = realize(concat(f, g), None, X)
        want = realize(f, None, realize(g, None, X))
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
        got = realize(par, None, X)
        assert np.array_equal(got[:2], realize(top, None, X[:2]))
        assert np.array_equal(got[2:], realize(bottom, None, X[2:]))

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
        got = realize(par, None, X)
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

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            parallelize([])

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_block_independence_property(self, count, seed):
        rng = np.random.default_rng(seed)
        scales = rng.uniform(0.5, 2.0, count)
        nets = [scale_output(identity_mnn((1, 3), 2), s) for s in scales]
        par = parallelize(nets)
        X = rng.uniform(-1, 1, (count, 3))
        got = realize(par, None, X)
        assert np.allclose(got, scales[:, None] * X, atol=1e-15)


def test_concat_of_parallel_keeps_realization(rng):
    # (P(f, g)) . split == stack of f, g applied to halves, end to end
    top = _affine_net(2, 1.0, 1.0, depth=2)
    bottom = _affine_net(2, 2.0, 0.0, depth=2)
    par = parallelize([top, bottom])
    X = rng.uniform(-1, 1, (4, 2))
    up = realize(par, None, X)
    assert np.array_equal(up[:2], realize(top, None, X[:2]))
    assert np.array_equal(up[2:], realize(bottom, None, X[2:]))
