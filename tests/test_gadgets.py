"""Product gadgets: exactness, error budgets, and size formulas."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassennet.core import MNN, Layer, SparseLinearMap, realize
from strassennet.gadgets import (FACTORIES, GadgetSpec, build_product_relu,
                                 build_product_relu2, relu2_factory,
                                 relu_factory, relu_gadget_bounds,
                                 verify_gadget)


def _pairs(rng, K, count=500):
    return rng.uniform(-K, K, size=(count, 2))


class TestRelu2Gadget:
    def test_counts(self):
        net = build_product_relu2()
        assert (net.num_weights, net.num_layers) == (12, 2)

    def test_exact_on_grid(self):
        spec = GadgetSpec(1e-6, 1.0)
        err = verify_gadget(relu2_factory.build(spec), None, spec, 1.0 / 64)
        assert err <= 1e-12

    def test_exact_at_random_points(self, rng):
        net = build_product_relu2()
        for x, y in _pairs(rng, 3.0, 100):
            got = realize(net, None, np.array([[x, y]]))[0, 0]
            assert got == pytest.approx(x * y, abs=1e-12)

    def test_spec_independent(self):
        a = relu2_factory.build(GadgetSpec(0.5, 1.0))
        b = relu2_factory.build(GadgetSpec(1e-9, 100.0))
        assert a.num_weights == b.num_weights == 12


class TestReluGadgetBranches:
    def test_zero_network_when_budget_dominates(self):
        # eps >= K^2: outputting 0 is already within budget
        net = relu_factory.build(GadgetSpec(1.5, 1.0))
        assert (net.num_weights, net.num_layers) == (0, 1)
        assert realize(net, None, np.array([[0.9, -0.8]]))[0, 0] == 0.0

    def test_flat_branch(self):
        # K^2/2 <= eps < K^2: no sawtooth stages needed
        net = relu_factory.build(GadgetSpec(0.6, 1.0))
        assert (net.num_weights, net.num_layers) == (12, 2)
        spec = GadgetSpec(0.6, 1.0)
        assert verify_gadget(net, None, spec, 1.0 / 64) <= 0.6

    def test_size_formula_tracks_depth(self):
        # M = 15m + 12 and L = m + 2 for the staged branch
        for eps, K in ((0.1, 1.0), (0.01, 1.0), (1e-4, 2.0), (1e-6, 0.5)):
            net = relu_factory.build(GadgetSpec(eps, K))
            m = (net.num_layers - 2)
            assert m >= 1
            assert net.num_weights == 15 * m + 12

    def test_overflowing_budget_is_refused(self):
        # K^2/eps overflows float64 (first two), or the stage scale 4^m does
        for eps, K in ((1e-320, 1.0), (1e-300, 1e10), (1e-308, 1.0)):
            msg = re.escape(f"eps = {eps:g}, K = {K:g} ") + ".*overflows"
            with pytest.raises(ValueError, match=msg):
                relu_factory.build(GadgetSpec(eps, K))

    def test_deepest_representable_budgets_build(self):
        assert relu_factory.build(GadgetSpec(1e-300, 1.0)).num_layers == 500
        # m = 511 stages, the largest with a finite 4^m
        assert relu_factory.build(GadgetSpec(2.3e-308, 1.0)).num_layers == 513

    def test_error_within_budget(self):
        for eps in (0.3, 0.05, 0.004):
            for K in (0.5, 1.0, 2.0):
                spec = GadgetSpec(eps, K)
                net = relu_factory.build(spec)
                assert verify_gadget(net, None, spec, K / 128) <= eps

    def test_closed_form_bounds_hold(self):
        for e in range(1, 15):
            for K in (0.5, 1.0, 2.0, 8.0):
                eps = 2.0 ** -e
                net = relu_factory.build(GadgetSpec(eps, K))
                bM, bL = relu_gadget_bounds(eps, K)
                assert net.num_weights <= bM
                assert net.num_layers <= bL

    def test_more_budget_never_costs_more(self):
        K = 1.0
        sizes = [relu_factory.build(GadgetSpec(2.0 ** -e, K)).num_weights
                 for e in range(1, 16)]
        assert sizes == sorted(sizes)

    @given(st.integers(min_value=1, max_value=14),
           st.sampled_from([0.5, 1.0, 2.0]),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_error_budget_property(self, e, K, seed):
        eps = 2.0 ** -e * K * K
        net = relu_factory.build(GadgetSpec(eps, K))
        rng = np.random.default_rng(seed)
        pts = _pairs(rng, K, 64)
        worst = 0.0
        for x, y in pts:
            got = realize(net, None, np.array([[x, y]]))[0, 0]
            worst = max(worst, abs(got - x * y))
        assert worst <= eps


class TestGadgetSpecAndFactory:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GadgetSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            GadgetSpec(0.1, -1.0)

    def test_factory_labels(self):
        assert set(FACTORIES) == {"relu", "relu2"}
        assert FACTORIES["relu"].activation_name == "relu"
        assert relu2_factory.activation_name == "relu2"

    def test_gadget_shape_contract(self):
        for factory in FACTORIES.values():
            net = factory.build(GadgetSpec(0.25, 1.0))
            assert tuple(net.input_shape) == (1, 2)
            assert tuple(net.output_shape) == (1, 1)

    def test_grid_step_guard(self):
        spec = GadgetSpec(0.1, 1.0)
        net = relu_factory.build(spec)
        for step in (spec.K / 10, 0.0, np.nan, -0.01):
            with pytest.raises(ValueError, match="grid_step"):
                verify_gadget(net, None, spec, step)


def test_verify_gadget_takes_an_unlabelled_linear_network():
    # (x, y) -> x has no rho entries and no label; it used to raise KeyError
    net = MNN([Layer(SparseLinearMap((1, 1), (1, 2), [[1, 1, 1, 1]], [1.0]))])
    assert net.activation_name is None
    spec = GadgetSpec(0.1, 1.0)
    assert verify_gadget(net, None, spec, spec.K / 50) == 2.0


def test_bounds_function_branches():
    assert relu_gadget_bounds(2.0, 1.0) == (0.0, 1.0)
    assert relu_gadget_bounds(0.7, 1.0) == (12.0, 2.0)
    bM, bL = relu_gadget_bounds(0.01, 2.0)
    assert bM == pytest.approx(30.0 * 1 + 15.0 * math.log2(100) + 25.0)
    assert bL == pytest.approx(1 + 0.5 * math.log2(100) + 2.5)


@pytest.mark.parametrize("eps, K, match", [
    (0.0, 1.0, "epsilon must be positive"),
    (-0.1, 1.0, "epsilon must be positive"),
    (math.nan, 1.0, "epsilon must be positive"),
    (0.1, 0.0, "K must be positive"),
    (0.1, -1.0, "K must be positive"),
    (0.1, math.nan, "K must be positive"),
])
def test_bounds_refuse_what_gadget_spec_refuses(eps, K, match):
    # (0.0, 1.0) raised ZeroDivisionError, negative inputs a math domain
    # error, and (nan, 1.0) returned (nan, nan)
    for call in (GadgetSpec, relu_gadget_bounds):
        with pytest.raises(ValueError, match=f"^{match}$"):
            call(eps, K)


def test_relu_gadget_output_is_piecewise_scaling(rng):
    # doubling K and rescaling inputs reproduces the same relative surface:
    # gadget(K)(x, y) == K^2 * gadget(1)(x/K, y/K) for the same stage count
    eps1, K = 2.0 ** -8, 2.0
    net_big = build_product_relu(GadgetSpec(eps1 * K * K, K))
    net_unit = build_product_relu(GadgetSpec(eps1, 1.0))
    assert net_big.num_layers == net_unit.num_layers
    for x, y in _pairs(rng, K, 50):
        big = realize(net_big, None, np.array([[x, y]]))[0, 0]
        unit = realize(net_unit, None, np.array([[x / K, y / K]]))[0, 0]
        assert big == pytest.approx(K * K * unit, rel=1e-12, abs=1e-12)
