"""Inversion stack: depth formulas, auxiliary layers, and the full networks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassennet import oracles
from strassennet.core import realize
from strassennet.gadgets import relu2_factory, relu_factory
from strassennet.inversion import (InversionSpec, NeumannDepth, build_aux,
                                   build_dup_half, build_dup_simple,
                                   build_fill, build_flip, build_in, build_inv,
                                   build_mix_aux, build_neu, build_sqr,
                                   compute_N,
                                   inv_count_reference, neu_bound_counts,
                                   neumann_depth, series_length_estimate)
from strassennet.strassen import build_str_square

from conftest import gauss_with_norm


class TestDepthFormulas:
    def test_single_stage_examples(self):
        # generous budgets need exactly one doubling stage
        assert compute_N(0.6, 0.5) == 1
        assert compute_N(10.0, 0.5) == 1     # eps (1 - delta) >= 1 clamp
        assert compute_N(0.5, 0.05) == 1

    def test_known_values(self):
        # delta = 1/2 makes the inner ratio easy to read off by hand
        assert compute_N(0.05, 0.5) == 3     # ratio ~ 5.32 -> ceil(log2) = 3
        assert compute_N(0.005, 0.5) == 4    # ratio ~ 8.64 -> 4
        assert compute_N(0.025, 0.5) == 3

    def test_tail_actually_controlled(self):
        # delta^(2^N) / (1 - delta) <= eps for the returned N
        for eps in (0.5, 0.1, 0.01, 0.001):
            for delta in (0.1, 0.5, 0.9):
                N = compute_N(eps, delta)
                assert delta ** (2 ** N) / (1.0 - delta) <= eps + 1e-15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            compute_N(0.1, 1.0)
        with pytest.raises(ValueError):
            compute_N(-0.1, 0.5)
        with pytest.raises(ValueError):
            neumann_depth(InversionSpec(0, 1.0, 0.1, 0.5))

    @given(st.floats(min_value=1e-6, max_value=10.0),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_eps(self, eps, delta):
        # shrinking the budget can only add stages
        assert compute_N(eps, delta) >= compute_N(2.0 * eps, delta)

    def test_sigma_shrinks_with_n(self):
        s = [neumann_depth(InversionSpec(n, 1.0, 0.1, 0.5)).Sigma
             for n in (2, 4, 8)]
        assert s[0] > s[1] > s[2] > 0.0

    def test_depth_record(self):
        d = neumann_depth(InversionSpec(4, 1.0, 0.1, 0.5))
        assert d.N == compute_N(0.05, 0.5)
        assert d.Sigma == 2.0 ** -(2 ** d.N) * 0.05 / (8.0 * 4 ** 3)
        with pytest.raises(ValueError):
            NeumannDepth(0, 0.1)

    def test_series_length_estimate(self):
        # at eps=0.1, delta=0.5 about 5.3 plain terms would be needed
        assert series_length_estimate(0.1, 0.5) == pytest.approx(5.3219, abs=1e-3)


class TestAuxiliaryLayers:
    def test_dup_simple(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        out = realize(build_dup_simple(3), None, A)
        assert np.array_equal(out, np.hstack([A, A]))
        assert build_dup_simple(3).num_weights == 18

    def test_dup_half(self, rng):
        A = rng.uniform(-1, 1, (2, 2))
        out = realize(build_dup_half(2), None, A)
        assert np.array_equal(out[:2, :2], A / 2)
        assert np.array_equal(out[:2, 2:], A / 2)
        assert np.array_equal(out[2:, :2], A / 2)
        assert np.array_equal(out[2:, 2:], np.zeros((2, 2)))
        assert build_dup_half(2).num_weights == 12

    def test_fill_selects_and_offsets(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 3))
        for L in (1, 2, 5):
            net = build_fill(3, L)
            assert net.num_layers == L
            assert net.num_weights == 9 * L + 3
            out = realize(net, None, np.hstack([A, B]))
            assert np.allclose(out, A + np.eye(3) / 2, atol=1e-15)

    def test_flip(self, rng):
        A = rng.uniform(-1, 1, (2, 2))
        B = rng.uniform(-1, 1, (2, 2))
        net = build_flip(2, 2)
        out = realize(net, None, np.vstack([A, B]))
        assert np.allclose(out[:, :2], A + 2.0 ** -4 * np.eye(2), atol=1e-15)
        assert np.array_equal(out[:, 2:], B)
        assert net.num_weights == 2 * 4 + 2

    def test_mix_aux(self, rng):
        A = rng.uniform(-1, 1, (2, 2))
        B = rng.uniform(-1, 1, (2, 2))
        net = build_mix_aux(2, 1)
        out = realize(net, None, np.vstack([A, B]))
        assert np.array_equal(out[:2, :2], A)
        assert np.array_equal(out[:2, 2:], A)
        assert np.allclose(out[2:, :2], A + 0.25 * np.eye(2), atol=1e-15)
        assert np.array_equal(out[2:, 2:], B)
        assert net.num_weights == 4 * 4 + 2

    def test_in_layer(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        net = build_in(3, 2.0)
        assert np.allclose(realize(net, None, A), np.eye(3) - 2.0 * A,
                           atol=1e-15)
        assert net.num_weights == 9 + 3
        with pytest.raises(ValueError):
            build_in(3, 0.0)


class TestRepeatedSquaring:
    def test_error_within_budget(self, rng):
        for N in (1, 2):
            for n in (2, 3):
                eps = 0.1
                net = build_sqr(N, n, eps, relu_factory)
                for _ in range(10):
                    A = gauss_with_norm(rng, n, 0.45)
                    P = A.copy()
                    for _ in range(N):
                        P = oracles.matmul_naive(P, P)
                    got = realize(net, None, A)
                    assert oracles.spectral_norm(P - got) <= eps

    def test_exact_with_squared_activation(self, rng):
        net = build_sqr(2, 2, 0.2, relu2_factory)
        A = gauss_with_norm(rng, 2, 0.5)
        want = oracles.matmul_naive(oracles.matmul_naive(A, A),
                                    oracles.matmul_naive(A, A))
        assert np.max(np.abs(realize(net, None, A) - want)) <= 1e-13

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="eps"):
            build_sqr(1, 2, 0.3, relu_factory)
        with pytest.raises(ValueError, match="N"):
            build_sqr(0, 2, 0.1, relu_factory)

    def test_stage_counts_add(self):
        one = build_sqr(1, 2, 0.1, relu_factory)
        three = build_sqr(3, 2, 0.1, relu_factory)
        assert three.num_layers == 3 * one.num_layers
        assert three.num_weights == 3 * one.num_weights


class TestAuxChain:
    def test_top_block_is_the_squaring_net_bit_for_bit(self, rng):
        # the power track of the chain must agree exactly with the plain
        # repeated-squaring network applied to A/2
        eps = 0.1
        for i in (1, 2, 3):
            aux = build_aux(i, 2, eps, relu_factory)
            sqr = build_sqr(i, 2, eps, relu_factory)
            A = gauss_with_norm(rng, 2, 0.8)
            top = realize(aux, None, A)[:2]
            assert np.array_equal(top, realize(sqr, None, A / 2.0))

    def test_bottom_block_tracks_the_factor_product(self, rng):
        eps = 0.01
        for i in (1, 2):
            aux = build_aux(i, 2, eps, relu2_factory)
            A = gauss_with_norm(rng, 2, 0.9)
            bottom = realize(aux, None, A)[2:]
            want = np.eye(2)
            H = A / 2.0
            for k in range(i):
                want = oracles.matmul_naive(want, H + 2.0 ** -(2 ** k) * np.eye(2))
                H = oracles.matmul_naive(H, H)
            assert np.max(np.abs(bottom - want)) <= 1e-12

    def test_output_is_stacked(self):
        aux = build_aux(2, 3, 0.05, relu_factory)
        assert tuple(aux.input_shape) == (3, 3)
        assert tuple(aux.output_shape) == (6, 3)


class TestNeumannNetworks:
    def test_single_stage_is_exact_and_small(self, rng):
        for n in (2, 3, 5):
            net = build_neu(1, n, 0.05, relu_factory)
            assert (net.num_weights, net.num_layers) == (n * n + n, 1)
            A = rng.uniform(-0.4, 0.4, (n, n))
            assert np.allclose(realize(net, None, A), A + np.eye(n), atol=1e-15)

    def test_error_within_budget(self, rng):
        for N in (2, 3):
            for n in (2, 3):
                eps = 0.1
                net = build_neu(N, n, eps, relu_factory)
                for _ in range(10):
                    A = gauss_with_norm(rng, n, 0.5)
                    want = oracles.neumann_partial(A, 2 ** N)
                    got = realize(net, None, A)
                    assert oracles.spectral_norm(want - got) <= eps

    def test_structural_count_identities(self):
        # every multiplication sub-network inside is the same square net, so
        # the totals decompose exactly
        for factory in (relu_factory, relu2_factory):
            for N in (2, 3, 4):
                for n in (2, 3):
                    eps = 0.05
                    net = build_neu(N, n, eps, factory)
                    inner = 2.0 ** (1 - 2 ** N) * eps
                    stri = build_str_square(n, inner / (4.0 * n), 1.0, factory)
                    Ms, Ls = stri.num_weights, stri.num_layers
                    want_M = (2 * (N - 1) * Ms + n * n * Ls
                              + (N - 2) * (4 * n * n + n) + 5 * n * n + 2 * n)
                    want_L = N * (Ls + 1)
                    assert net.num_weights == want_M
                    assert net.num_layers == want_L

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="1/8"):
            build_neu(2, 2, 0.2, relu_factory)
        with pytest.raises(ValueError, match="N"):
            build_neu(0, 2, 0.05, relu_factory)

    def test_bound_counts_dominate(self):
        for N in (2, 3):
            for n in (2, 4):
                eps = 0.05
                net = build_neu(N, n, eps, relu_factory)
                bM, bL = neu_bound_counts(N, n, eps, relu_factory)
                assert net.num_weights <= bM
                assert net.num_layers <= bL
        with pytest.raises(ValueError):
            neu_bound_counts(1, 2, 0.05, relu_factory)


class TestInversionNetworks:
    def test_underflowing_depth_is_refused(self):
        # N = 11 stages: 2^(1 - 2^N) underflows and 2^(2^N - 1) overflows
        spec = InversionSpec(2, 1.0, 1e-6, 0.99)
        assert compute_N(spec.epsilon / 2.0, spec.delta) == 11
        for call in (build_inv, inv_count_reference):
            with pytest.raises(ValueError, match=r"N = 11 doubling stages"):
                call(spec, relu_factory)

    def test_deepest_representable_depth_builds(self):
        # N = 10 leaves subnormal but nonzero budgets: still built and bounded
        spec = InversionSpec(1, 1.0, 1e-3, 0.98)
        assert neumann_depth(spec).N == 10
        net = build_inv(spec, relu2_factory)
        assert (net.num_weights, net.num_layers) == (323, 51)
        assert inv_count_reference(spec, relu2_factory) == (2917, 70, False)

    def test_single_stage_branch(self, rng):
        spec = InversionSpec(2, 1.0, 1.2, 0.5)
        net = build_inv(spec, relu2_factory)
        assert (net.num_weights, net.num_layers) == (12, 2)
        M, L, exact = inv_count_reference(spec, relu2_factory)
        assert exact and (M, L) == (12, 2)
        # on I the single-stage branch is exactly the inverse
        assert np.allclose(realize(net, None, np.eye(2)), np.eye(2), atol=1e-15)

    def test_error_against_gaussian_elimination(self):
        for n in (2, 4):
            for alpha in (1.0, 2.0):
                spec = InversionSpec(n, alpha, 0.1, 0.5)
                net = build_inv(spec, relu_factory)
                for s in range(10):
                    A = oracles.gen_contraction(n, 0.5, alpha, 100 + s)
                    err = oracles.spectral_norm(
                        oracles.exact_inverse(A) - realize(net, None, A))
                    assert err <= 0.1

    def test_boundary_budget_is_accepted(self):
        # eps / (2 alpha) landing exactly on 1/8 must still build
        spec = InversionSpec(2, 1.0, 0.25, 0.5)
        net = build_inv(spec, relu_factory)
        A = oracles.gen_contraction(2, 0.5, 1.0, 5)
        err = oracles.spectral_norm(
            oracles.exact_inverse(A) - realize(net, None, A))
        assert err <= 0.25

    def test_counts_within_reference_bounds(self):
        for n in (2, 4):
            spec = InversionSpec(n, 1.0, 0.05, 0.5)
            net = build_inv(spec, relu_factory)
            bM, bL, exact = inv_count_reference(spec, relu_factory)
            assert not exact
            assert net.num_weights <= bM
            assert net.num_layers <= bL

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InversionSpec(0, 1.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            InversionSpec(2, -1.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            InversionSpec(2, 1.0, 0.1, 1.5)

    def test_infinite_alpha_is_refused(self):
        # build_inv used to fail later with a misleading "eps must be positive"
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            InversionSpec(2, np.inf, 0.1, 0.5)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            build_in(2, np.inf)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_inverse_property_small(self, seed):
        A = oracles.gen_contraction(2, 0.5, 1.0, seed)
        spec = InversionSpec(2, 1.0, 0.1, 0.5)
        net = build_inv(spec, relu2_factory)
        err = oracles.spectral_norm(
            oracles.exact_inverse(A) - realize(net, None, A))
        assert err <= 0.1


def test_only_gadget_built_networks_carry_a_label():
    for glue in (build_dup_simple(2), build_dup_half(2), build_fill(2, 3),
                 build_flip(2, 1), build_mix_aux(2, 1), build_in(2, 1.0)):
        assert glue.activation_name is None
    for factory in (relu_factory, relu2_factory):
        name = factory.activation_name
        # N = 1: input layer and the exact A + I layer, no gadget
        one = build_inv(InversionSpec(2, 1.0, 1.2, 0.5), factory)
        assert one.num_layers == 2 and one.activation_name == name
        assert build_inv(InversionSpec(2, 1.0, 0.1, 0.5),
                         factory).activation_name == name
        assert build_sqr(1, 2, 0.1, factory).activation_name == name
        assert build_aux(2, 2, 0.1, factory).activation_name == name
