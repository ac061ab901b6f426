"""Inversion stack: depth formulas, auxiliary layers, and the full networks."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassennet import inversion, oracles
from strassennet.combinators import parallelize
from strassennet.core import counts_satisfied, mnn_equal, realize
from strassennet.gadgets import relu2_factory, relu_factory
from strassennet.inversion import (InversionSpec, NeumannDepth, _aux_chain,
                                   _build_dup_half, _build_dup_simple,
                                   _build_flip, _build_mix_aux,
                                   build_fill, build_in, build_inv, build_neu,
                                   build_sqr, compute_N, inv_count_reference,
                                   neu_bound_counts, neumann_depth,
                                   series_length_estimate)
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
            NeumannDepth(0, 0.1, 0.1)

    def test_series_length_estimate(self):
        # at eps=0.1, delta=0.5 about 5.3 plain terms would be needed
        assert series_length_estimate(0.1, 0.5) == pytest.approx(5.3219, abs=1e-3)

    @pytest.mark.parametrize("call, cause", [
        (compute_N, "eps * (1 - delta) = 5e-324 * (1 - 0.5) underflows"),
        (series_length_estimate,
         "eps * (1 - delta) / 2 = 5e-324 * (1 - 0.5) / 2 underflows")])
    def test_underflowing_target_is_refused(self, call, cause):
        # a positive eps whose tail target eps (1 - delta) rounds to 0
        with pytest.raises(ValueError, match=re.escape(cause)):
            call(5e-324, 0.5)

    @pytest.mark.parametrize("alpha, eps", [(1.0, 5e-324), (1e308, 1.0)])
    def test_underflowing_neumann_budget_names_the_spec(self, alpha, eps):
        # epsilon / (2 alpha) rounds to 0 though epsilon is positive
        spec = InversionSpec(1, alpha, eps, 0.5)
        cause = re.escape(f"epsilon / (2 alpha) * (1 - delta) = {eps!r} / "
                          f"(2 * {alpha!r}) * (1 - 0.5) underflows to 0")
        for call in (build_inv, inv_count_reference):
            with pytest.raises(ValueError, match=cause):
                call(spec, relu_factory)
        with pytest.raises(ValueError, match=cause):
            neumann_depth(spec)


class TestAuxiliaryLayers:
    def test_dup_simple(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        out = realize(_build_dup_simple(3), A)
        assert np.array_equal(out, np.hstack([A, A]))
        assert _build_dup_simple(3).num_weights == 18

    def test_dup_half(self, rng):
        A = rng.uniform(-1, 1, (2, 2))
        out = realize(_build_dup_half(2), A)
        assert np.array_equal(out[:2, :2], A / 2)
        assert np.array_equal(out[:2, 2:], A / 2)
        assert np.array_equal(out[2:, :2], A / 2)
        assert np.array_equal(out[2:, 2:], np.zeros((2, 2)))
        assert _build_dup_half(2).num_weights == 12

    def test_fill_selects_and_offsets(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 3))
        for L in (1, 2, 3, 5):
            net = build_fill(3, L)
            assert net.num_layers == L
            assert net.num_weights == 9 * L + 3
            # the layers between the first and the last are one carry layer
            assert len({id(layer) for layer in net.layers[1:-1]}) == (L > 2)
            out = realize(net, np.hstack([A, B]))
            assert np.allclose(out, A + np.eye(3) / 2, atol=1e-15)

    def test_flip(self, rng):
        A = rng.uniform(-1, 1, (2, 2))
        B = rng.uniform(-1, 1, (2, 2))
        net = _build_flip(2, 2)
        out = realize(net, np.vstack([A, B]))
        assert np.allclose(out[:, :2], A + 2.0 ** -4 * np.eye(2), atol=1e-15)
        assert np.array_equal(out[:, 2:], B)
        assert net.num_weights == 2 * 4 + 2

    def test_mix_aux(self, rng):
        A = rng.uniform(-1, 1, (2, 2))
        B = rng.uniform(-1, 1, (2, 2))
        net = _build_mix_aux(2, 1)
        out = realize(net, np.vstack([A, B]))
        assert np.array_equal(out[:2, :2], A)
        assert np.array_equal(out[:2, 2:], A)
        assert np.allclose(out[2:, :2], A + 0.25 * np.eye(2), atol=1e-15)
        assert np.array_equal(out[2:, 2:], B)
        assert net.num_weights == 4 * 4 + 2

    def test_in_layer(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        net = build_in(3, 2.0)
        assert np.allclose(realize(net, A), np.eye(3) - 2.0 * A,
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
                    got = realize(net, A)
                    assert oracles.spectral_norm(P - got) <= eps

    def test_exact_with_squared_activation(self, rng):
        net = build_sqr(2, 2, 0.2, relu2_factory)
        A = gauss_with_norm(rng, 2, 0.5)
        want = oracles.matmul_naive(oracles.matmul_naive(A, A),
                                    oracles.matmul_naive(A, A))
        assert np.max(np.abs(realize(net, A) - want)) <= 1e-13

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

    @pytest.mark.parametrize("call, N, eps, spelled, sizes", [
        (build_sqr, 1, 5e-324, "5e-324", "n"),
        (build_neu, 2, 1e-322, "2^(1 - 2^2) * 1e-322", "N or n")])
    def test_underflowing_multiplier_budget_names_the_callers_eps(
            self, call, N, eps, spelled, sizes):
        # eps / (4 n) rounds to 0 though eps passes the real rule; this used
        # to be refused as "eps must be positive and finite, got 0.0"
        with pytest.raises(ValueError) as info:
            call(N, 2, eps, relu_factory)
        assert str(info.value) == (
            f"the squaring multiplier budget {spelled} / (4 * 2) underflows "
            f"to 0 in float64; use a larger eps or a smaller {sizes}")


def _aux(i, n, eps, factory):
    """The power-and-product chain of stage i over the squaring network."""
    square = build_str_square(n, eps / (4.0 * n), 1.0, factory)
    return _aux_chain(i, n, square)


class TestAuxChain:
    def test_top_block_is_the_squaring_net_bit_for_bit(self, rng):
        # the power track of the chain must agree exactly with the plain
        # repeated-squaring network applied to A/2
        eps = 0.1
        for i in (1, 2, 3):
            aux = _aux(i, 2, eps, relu_factory)
            sqr = build_sqr(i, 2, eps, relu_factory)
            A = gauss_with_norm(rng, 2, 0.8)
            top = realize(aux, A)[:2]
            assert np.array_equal(top, realize(sqr, A / 2.0))

    def test_bottom_block_tracks_the_factor_product(self, rng):
        eps = 0.01
        for i in (1, 2):
            aux = _aux(i, 2, eps, relu2_factory)
            A = gauss_with_norm(rng, 2, 0.9)
            bottom = realize(aux, A)[2:]
            want = np.eye(2)
            H = A / 2.0
            for k in range(i):
                want = oracles.matmul_naive(want, H + 2.0 ** -(2 ** k) * np.eye(2))
                H = oracles.matmul_naive(H, H)
            assert np.max(np.abs(bottom - want)) <= 1e-12

    def test_output_is_stacked(self):
        aux = _aux(2, 3, 0.05, relu_factory)
        assert tuple(aux.input_shape) == (3, 3)
        assert tuple(aux.output_shape) == (6, 3)


class TestNeumannNetworks:
    def test_single_stage_is_exact_and_small(self, rng):
        for n in (2, 3, 5):
            net = build_neu(1, n, 0.05, relu_factory)
            assert (net.num_weights, net.num_layers) == (n * n + n, 1)
            A = rng.uniform(-0.4, 0.4, (n, n))
            assert np.allclose(realize(net, A), A + np.eye(n), atol=1e-15)

    def test_error_within_budget(self, rng):
        for N in (2, 3):
            for n in (2, 3):
                eps = 0.1
                net = build_neu(N, n, eps, relu_factory)
                for _ in range(10):
                    A = gauss_with_norm(rng, n, 0.5)
                    want = oracles.neumann_partial(A, 2 ** N)
                    got = realize(net, A)
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

    @pytest.mark.parametrize("N", [3, 4])
    def test_stages_share_one_pair_of_squares(self, N, monkeypatch):
        # the pair (square | square) is stacked once, and each stage from
        # the second on holds its layers, the same objects
        calls = []

        def recorded(nets):
            nets = list(nets)
            calls.append((nets, parallelize(nets)))
            return calls[-1][1]

        monkeypatch.setattr(inversion, "parallelize", recorded)
        net = build_neu(N, 2, 0.05, relu_factory)
        square = calls[0][0][0]  # the first stage stacks it with a fill
        pairs = [out for nets, out in calls if nets == [square, square]]
        assert len(calls) == 2 and len(pairs) == 1
        run = pairs[0].layers
        starts = [i for i, layer in enumerate(net.layers) if layer is run[0]]
        assert len(starts) == N - 2
        for i in starts:
            assert all(a is b for a, b in zip(net.layers[i:], run))

    def test_budget_validation(self):
        with pytest.raises(ValueError,
                           match=r"^eps must lie in \(0, 0.125\), got 0.2$"):
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

    def test_builder_refuses_the_leaf_budget_its_reference_refuses(self):
        # N = 10 at n = 1: the bound's Sigma rounds to 0, the builder's own
        # multiplier budget does not; build_inv built 323 weights in 51
        # layers for a spec its count reference refused
        spec = InversionSpec(1, 1.0, 3e-15, 0.931)
        cause = ("N = 10 doubling stages: the leaf gadget budget 2^-(2^N) * "
                 "1.5e-15 / (8 * 1^3) underflows to 0 in float64; use a "
                 "larger epsilon or a smaller delta or n")
        for call in (build_inv, inv_count_reference):
            with pytest.raises(ValueError) as info:
                call(spec, relu2_factory)
            assert str(info.value) == cause

    @pytest.mark.parametrize("call, cause", [
        (build_neu, "the squaring multiplier budget 2^(1 - 2^1100) * 0.1 / "
                    "(4 * 2) underflows to 0 in float64; use a larger eps "
                    "or a smaller N or n"),
        (neu_bound_counts, "N = 1100 doubling stages: the leaf gadget budget "
                           "2^-(2^N) * 0.1 / (8 * 2^3) underflows to 0 in "
                           "float64; use a larger eps or a smaller N or n"),
    ])
    def test_huge_stage_count_is_refused_not_overflowed(self, call, cause):
        # 2.0 ** -(2 ** N) raised "OverflowError: int too large to convert
        # to float"
        with pytest.raises(ValueError) as info:
            call(1100, 2, 0.1, relu_factory)
        assert str(info.value) == cause

    @pytest.mark.parametrize("call, advice", [
        (lambda n: neu_bound_counts(2, n, 0.1, relu_factory),
         "use a larger eps or a smaller N or n"),
        (lambda n: inv_count_reference(InversionSpec(n, 1.0, 0.1, 0.5),
                                       relu_factory),
         "use a larger epsilon or a smaller delta or n")])
    def test_huge_size_is_named_in_the_advice(self, call, advice):
        # both used to end "use a larger epsilon or a smaller delta", though
        # n = 10^103 rounds the budget to 0 and neu_bound_counts takes no
        # epsilon or delta
        with pytest.raises(ValueError) as info:
            call(10 ** 103)
        assert str(info.value).endswith(f"underflows to 0 in float64; "
                                        f"{advice}")

    @pytest.mark.parametrize("call", [build_neu, neu_bound_counts])
    def test_huge_stage_count_is_refused_in_constant_memory(self, call):
        # 2 ** N was formed exactly before the refusal: 29.9 MB at N = 2^26
        N = 2 ** 26
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=str(N)):
                call(N, 2, 0.1, relu_factory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_alpha_that_overflows_an_output_weight_is_named(self):
        # N = 9: alpha times the output scale 2^511 overflows; this was
        # refused as "c = 6.430127230157615e+292 scales ...", naming the
        # parameter of scale_output, not of the spec
        spec = InversionSpec(1, 6.430127230157615e292,
                             1.7456465161279738e174, 0.5)
        assert neumann_depth(spec).N == 9
        with pytest.raises(ValueError) as info:
            build_inv(spec, relu2_factory)
        assert str(info.value) == (
            "alpha = 6.430127230157615e+292 scales a last-layer weight to 0 "
            "or inf; use an alpha nearer 1")

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
        assert np.allclose(realize(net, np.eye(2)), np.eye(2), atol=1e-15)

    def test_error_against_gaussian_elimination(self):
        # (factory, alpha, eps, delta) for n = 2, 4: the high-delta cases run
        # N = 7 relu and N = 10 relu2 stages
        cases = [(relu_factory, 1.0, 0.1, 0.5), (relu_factory, 2.0, 0.1, 0.5),
                 (relu_factory, 1.0, 1e-2, 0.9), (relu_factory, 1.0, 1e-3, 0.9),
                 (relu2_factory, 1.0, 0.1, 0.99)]
        for factory, alpha, eps, delta in cases:
            for n in (2, 4):
                spec = InversionSpec(n, alpha, eps, delta)
                net = build_inv(spec, factory)
                assert counts_satisfied(net, inv_count_reference(spec, factory))
                for s in range(10):
                    A = oracles.gen_contraction(n, delta, alpha, 100 + s)
                    err = oracles.spectral_norm(
                        oracles.exact_inverse(A) - realize(net, A))
                    assert err <= eps

    def test_boundary_budget_is_accepted(self):
        # eps / (2 alpha) landing exactly on 1/8 must still build
        spec = InversionSpec(2, 1.0, 0.25, 0.5)
        net = build_inv(spec, relu_factory)
        A = oracles.gen_contraction(2, 0.5, 1.0, 5)
        err = oracles.spectral_norm(
            oracles.exact_inverse(A) - realize(net, A))
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
        for n in (2.0, 2.5, True, "2"):
            with pytest.raises(ValueError, match="n must be an integer"):
                InversionSpec(n, 1.0, 0.1, 0.5)
        assert mnn_equal(build_inv(InversionSpec(np.int64(2), 1.0, 0.1, 0.5),
                                   relu2_factory),
                         build_inv(InversionSpec(2, 1.0, 0.1, 0.5),
                                   relu2_factory))

    def test_infinite_alpha_is_refused(self):
        # build_inv used to fail later with a misleading "eps must be positive"
        message = "^alpha must be positive and finite, got inf$"
        with pytest.raises(ValueError, match=message):
            InversionSpec(2, np.inf, 0.1, 0.5)
        with pytest.raises(ValueError, match=message):
            build_in(2, np.inf)

    def test_infinite_epsilon_is_refused(self):
        # the budget used to pass, and series_length_estimate(inf) is -inf
        for eps in (np.inf, float("1e309")):
            with pytest.raises(ValueError,
                               match="epsilon must be positive and finite"):
                InversionSpec(2, 1.0, eps, 0.5)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_inverse_property_small(self, seed):
        A = oracles.gen_contraction(2, 0.5, 1.0, seed)
        spec = InversionSpec(2, 1.0, 0.1, 0.5)
        net = build_inv(spec, relu2_factory)
        err = oracles.spectral_norm(
            oracles.exact_inverse(A) - realize(net, A))
        assert err <= 0.1


def test_only_gadget_built_networks_carry_a_label():
    for glue in (_build_dup_simple(2), _build_dup_half(2), build_fill(2, 3),
                 _build_flip(2, 1), _build_mix_aux(2, 1), build_in(2, 1.0)):
        assert glue.activation_name is None
    for factory in (relu_factory, relu2_factory):
        name = factory.activation_name
        # N = 1: input layer and the exact A + I layer, no gadget
        one = build_inv(InversionSpec(2, 1.0, 1.2, 0.5), factory)
        assert one.num_layers == 2 and one.activation_name == name
        assert build_inv(InversionSpec(2, 1.0, 0.1, 0.5),
                         factory).activation_name == name
        assert build_sqr(1, 2, 0.1, factory).activation_name == name
        assert _aux(2, 2, 0.1, factory).activation_name == name
