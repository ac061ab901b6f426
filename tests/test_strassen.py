"""Multiplication networks: the scheme's tables, recursion counts, layouts,
padding, and errors."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassennet import oracles
from strassennet.core import (identity_mnn, realize, realize_flat,
                              realize_many)
from strassennet.gadgets import (GadgetFactory, GadgetSpec, relu2_factory,
                                 relu_factory)
from strassennet.io import load_network, save_network
from strassennet.strassen import (_U, _V, _W, RectShape, _build_ext,
                                  _build_shr, bound_counts_rect,
                                  bound_gadget_spec_rect,
                                  build_mix, build_split, build_str_pow2,
                                  build_str_rect, build_str_square,
                                  formula_counts_pow2, pow2_count_reference,
                                  rect_count_reference)


class TestRectShape:
    def test_gamma_and_k(self):
        assert RectShape(2, 3, 2).gamma == 3
        assert RectShape(2, 3, 2).k == 2
        assert RectShape(4, 4, 4).k == 2
        assert RectShape(1, 1, 1).k == 0
        assert RectShape(5, 6, 4).k == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RectShape(0, 1, 1)
        for bad in ((2.5, 2, 2), (True, 2, 2), (2, 2.0, 2), (2, 2, "2")):
            with pytest.raises(ValueError, match="must be an integer"):
                RectShape(*bad)
        with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
            build_str_square(2.5, 0.1, 1.0, relu2_factory)
        assert RectShape(np.int64(5), np.int32(6), 4).k == 3


class TestScheme:
    def test_brent_equations(self):
        # A's quadrant (i, j) times B's quadrant (j, l) adds to C's (i, l)
        T = np.zeros((4, 4, 4), dtype=int)
        for i, j, l in itertools.product(range(2), repeat=3):
            T[2 * i + j, 2 * j + l, 2 * i + l] = 1
        assert np.array_equal(np.einsum("ra,rb,rc->abc", _U, _V, _W), T)

    def test_paper_literals_follow_from_the_tables(self):
        r = len(_W)
        assert len(_U) == len(_V) == r == 7
        # each level's glue holds nnz 4^(k-1) entries, so the glue of the
        # whole recursion sums to nnz (7^k - 4^k) / (7 - 4) = 12 (7^k - 4^k)
        nnz = sum(np.count_nonzero(T) for T in (_U, _V, _W))
        assert nnz == 12 * (r - 4) == 36
        for k in (1, 2, 3):
            glue = build_split(k).num_weights + build_mix(k).num_weights
            assert glue == nnz * 4 ** (k - 1)
            M, _ = formula_counts_pow2(k, 0, 0)
            assert M * (r - 4) == nnz * (r ** k - 4 ** k)
        # an output quadrant sums at most 4 products, so each child gets
        # eps / 4; an operand sums at most 2 quadrants, so it spans 2 K
        terms = int(np.abs(_W).sum(axis=0).max())
        spread = int(max(np.abs(_U).sum(axis=1).max(),
                         np.abs(_V).sum(axis=1).max()))
        assert (terms, spread) == (4, 2)
        specs = set()
        spy = GadgetFactory("relu2", lambda spec: specs.add(spec)
                            or relu2_factory.build(spec))
        build_str_pow2(2, 0.5, 3.0, spy)
        assert specs == {GadgetSpec(0.5 / terms ** 2, 3.0 * spread ** 2)}


class TestSplitAndMix:
    def test_split_produces_the_seven_operand_pairs(self, rng):
        k = 1
        A = rng.uniform(-1, 1, (2, 2))
        B = rng.uniform(-1, 1, (2, 2))
        out = realize(build_split(k), np.hstack([A, B]))
        a = {(i, j): A[i, j] for i in range(2) for j in range(2)}
        b = {(i, j): B[i, j] for i in range(2) for j in range(2)}
        want = [
            (a[0, 0] + a[1, 1], b[0, 0] + b[1, 1]),
            (a[1, 0] + a[1, 1], b[0, 0]),
            (a[0, 0], b[0, 1] - b[1, 1]),
            (a[1, 1], b[1, 0] - b[0, 0]),
            (a[0, 0] + a[0, 1], b[1, 1]),
            (a[1, 0] - a[0, 0], b[0, 0] + b[0, 1]),
            (a[0, 1] - a[1, 1], b[1, 0] + b[1, 1]),
        ]
        for row, (left, right) in enumerate(want):
            assert out[row, 0] == pytest.approx(left, abs=1e-15)
            assert out[row, 1] == pytest.approx(right, abs=1e-15)

    def test_mix_recombines_products(self, rng):
        # feed the seven true products through MIX and compare with the
        # textbook quadrant recombination
        A = rng.uniform(-1, 1, (2, 2))
        B = rng.uniform(-1, 1, (2, 2))
        a11, a12, a21, a22 = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
        b11, b12, b21, b22 = B[0, 0], B[0, 1], B[1, 0], B[1, 1]
        P = np.array([
            (a11 + a22) * (b11 + b22),
            (a21 + a22) * b11,
            a11 * (b12 - b22),
            a22 * (b21 - b11),
            (a11 + a12) * b22,
            (a21 - a11) * (b11 + b12),
            (a12 - a22) * (b21 + b22),
        ]).reshape(7, 1)
        got = realize(build_mix(1), P)
        assert np.allclose(got, A @ B, atol=1e-14)

    def test_counts(self):
        for k in (1, 2, 3):
            assert build_mix(k).num_weights == 3 * 4 ** k
            assert build_split(k).num_weights == 6 * 4 ** k
            assert build_mix(k).num_layers == build_split(k).num_layers == 1


class TestPow2Networks:
    def test_count_formulas_small(self):
        for factory in (relu2_factory, relu_factory):
            for k in range(4):
                eps, K = 0.05, 1.0
                leaf = factory.build(GadgetSpec(eps / 4 ** k, (2 ** k) * K))
                net = build_str_pow2(k, eps, K, factory)
                fM, fL = formula_counts_pow2(k, leaf.num_weights,
                                             leaf.num_layers)
                assert (net.num_weights, net.num_layers) == (fM, fL)

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_exact_counts_past_what_could_be_built(self, k):
        # k = 8 holds 1,780,537,077 weights: every level records its seven
        # copies of one child, so the counts come from the records, and
        # no copy is written out
        eps, K = 1e-2, 1.0
        leaf = relu_factory.build(GadgetSpec(eps / 4 ** k, 2 ** k * K))
        net = build_str_pow2(k, eps, K, relu_factory)
        assert (net.num_weights, net.num_layers) == formula_counts_pow2(
            k, leaf.num_weights, leaf.num_layers)

    def test_build_to_reload_memory_is_bounded(self, tmp_path):
        # relu k = 5 (3,668,445 weights) is built, evaluated on one column,
        # saved, reloaded and evaluated again within 12 MiB traced: its
        # layers tiled out take 148 MB
        tracemalloc.start()
        try:
            net = build_str_pow2(5, 1e-2, 1.0, relu_factory)
            A, B = np.random.default_rng(5).uniform(-1, 1, (2, 32, 32))
            column = np.hstack([A, B]).reshape(-1, 1)
            out = realize_flat(net, None, column)
            save_network(net, tmp_path / "k5.json")
            again = realize_flat(load_network(tmp_path / "k5.json"), None,
                                 column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(out.reshape(32, 32) - A @ B).max() <= 1e-2
        assert again.tobytes() == out.tobytes()
        assert peak < 12 * 2 ** 20

    def test_k0_is_the_gadget(self, rng):
        net = build_str_pow2(0, 1.0, 1.0, relu2_factory)
        x, y = rng.uniform(-1, 1, 2)
        assert realize(net, np.array([[x, y]]))[0, 0] == \
            pytest.approx(x * y, abs=1e-14)

    def test_exact_multiplication_vs_both_oracles(self, rng):
        net = build_str_pow2(2, 1.0, 1.0, relu2_factory)
        A = rng.uniform(-1, 1, (4, 4))
        B = rng.uniform(-1, 1, (4, 4))
        got = realize(net, np.hstack([A, B]))
        assert np.max(np.abs(got - oracles.matmul_naive(A, B))) <= 1e-12
        assert np.max(np.abs(got - oracles.strassen_exact(A, B))) <= 1e-12

    def test_relu_error_bound_spot(self, rng):
        eps = 0.02
        net = build_str_pow2(2, eps, 1.0, relu_factory)
        batch = rng.uniform(-1, 1, (32, 4, 8))
        outs = realize_many(net, batch)
        for X, out in zip(batch, outs):
            want = oracles.matmul_naive(X[:, :4], X[:, 4:])
            assert np.max(np.abs(out - want)) <= eps

    def test_depth_grows_by_two_per_level(self):
        Ls = [build_str_pow2(k, 0.5, 1.0, relu2_factory).num_layers
              for k in range(4)]
        assert Ls == [2, 4, 6, 8]

    @given(st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_exactness_property(self, k, seed):
        net = build_str_pow2(k, 1.0, 1.0, relu2_factory)
        rng = np.random.default_rng(seed)
        side = 2 ** k
        A = rng.uniform(-1, 1, (side, side))
        B = rng.uniform(-1, 1, (side, side))
        got = realize(net, np.hstack([A, B]))
        assert np.max(np.abs(got - oracles.matmul_naive(A, B))) <= 1e-11


class TestPaddingLayers:
    def test_ext_embeds_transposed_left_operand(self, rng):
        shape = RectShape(2, 3, 2)
        A = rng.uniform(-1, 1, (2, 3))
        B = rng.uniform(-1, 1, (3, 2))
        net = _build_ext(shape)
        out = realize(net, np.hstack([A.T, B]))
        assert net.num_weights == 3 * (2 + 2)
        side = 2 ** shape.k
        assert out.shape == (side, 2 * side)
        assert np.array_equal(out[:2, :3], A)
        assert np.array_equal(out[:3, side:side + 2], B)
        # everything else is structural zero
        total = np.abs(out).sum()
        assert total == pytest.approx(np.abs(A).sum() + np.abs(B).sum())

    def test_ext_star_duplicates_layout(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 3))
        net = _build_ext(RectShape(3, 3, 3), False)
        out = realize(net, np.hstack([A, B]))
        assert out.shape == (4, 8)
        assert np.array_equal(out[:3, :3], A)
        assert np.array_equal(out[:3, 4:7], B)
        assert net.num_weights == 2 * 9

    def test_shr_crops(self, rng):
        shape = RectShape(2, 3, 2)
        X = rng.uniform(-1, 1, (4, 4))
        out = realize(_build_shr(shape), X)
        assert np.array_equal(out, X[:2, :2])
        assert _build_shr(shape).num_weights == 4


class TestRectangularNetworks:
    def test_exact_for_all_small_shapes(self, rng):
        for (m, n, p) in ((1, 1, 1), (2, 3, 2), (3, 3, 3), (5, 6, 4), (2, 1, 3)):
            net = build_str_rect(RectShape(m, n, p), 1.0, 1.0, relu2_factory)
            A = rng.uniform(-1, 1, (m, n))
            B = rng.uniform(-1, 1, (n, p))
            got = realize(net, np.hstack([A.T, B]))
            want = oracles.matmul_naive(A, B)
            assert np.max(np.abs(got - want)) <= 1e-11

    def test_square_layout_takes_a_b(self, rng):
        net = build_str_square(3, 1.0, 1.0, relu2_factory)
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 3))
        got = realize(net, np.hstack([A, B]))
        assert np.max(np.abs(got - oracles.matmul_naive(A, B))) <= 1e-11

    def test_relu_rect_error(self, rng):
        eps = 0.05
        net = build_str_rect(RectShape(2, 3, 2), eps, 1.0, relu_factory)
        for _ in range(20):
            A = rng.uniform(-1, 1, (2, 3))
            B = rng.uniform(-1, 1, (3, 2))
            got = realize(net, np.hstack([A.T, B]))
            assert np.max(np.abs(got - oracles.matmul_naive(A, B))) <= eps

    def test_counts_within_bounds(self):
        for (m, n, p) in ((2, 3, 2), (3, 3, 3), (5, 6, 4), (1, 1, 1)):
            shape = RectShape(m, n, p)
            for factory in (relu2_factory, relu_factory):
                gadget = factory.build(bound_gadget_spec_rect(shape, 0.05, 1.0))
                bM, bL = bound_counts_rect(shape, gadget.num_weights,
                                           gadget.num_layers)
                net = build_str_rect(shape, 0.05, 1.0, factory)
                assert net.num_weights <= bM
                assert net.num_layers <= bL

    def test_square_bound_variant(self):
        n = 3
        shape = RectShape(n, n, n)
        gadget = relu_factory.build(bound_gadget_spec_rect(shape, 0.05, 1.0))
        bM, bL = bound_counts_rect(shape, gadget.num_weights, gadget.num_layers)
        net = build_str_square(n, 0.05, 1.0, relu_factory)
        assert net.num_weights <= bM
        assert net.num_layers <= bL

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_rect_exactness_property(self, m, n, p, seed):
        rng = np.random.default_rng(seed)
        net = build_str_rect(RectShape(m, n, p), 1.0, 1.0, relu2_factory)
        A = rng.uniform(-1, 1, (m, n))
        B = rng.uniform(-1, 1, (n, p))
        got = realize(net, np.hstack([A.T, B]))
        assert np.max(np.abs(got - oracles.matmul_naive(A, B))) <= 1e-10


@pytest.mark.parametrize("k, eps, K, match", [
    (1.5, 0.1, 1.0, "k must be an integer, got 1.5"),
    (2.0, 0.1, 1.0, "k must be an integer, got 2.0"),
    (True, 0.1, 1.0, "k must be an integer, got True"),
    (-1, 0.1, 1.0, "k must be >= 0"),
    pytest.param(1, 0.0, 1.0, "eps must be positive and finite, got 0.0",
                 id="1-0.0-1.0-eps and K must be positive"),
    pytest.param(1, 0.1, -1.0, "K must be positive and finite, got -1.0",
                 id="1-0.1--1.0-eps and K must be positive"),
])
def test_pow2_refusals(k, eps, K, match):
    with pytest.raises(ValueError, match=match):
        build_str_pow2(k, eps, K, relu2_factory)


class _Refused(Exception):
    pass


def _refusing_factory(asked: list) -> GadgetFactory:
    """A factory that records each spec it is asked for and builds none."""
    def build(spec):
        asked.append(spec)
        raise _Refused
    return GadgetFactory("relu", build)


@pytest.mark.parametrize("build", [build_str_pow2, pow2_count_reference])
@pytest.mark.parametrize("k, eps, ends_in", [
    (512, 0.1, "factory"), (600, 0.1, "k"), (1100, 0.1, "k"),
    (2000, 0.1, "k"), (512, 1e300, "factory"), (600, 1e300, "factory"),
    (1100, 1e300, "k"), (2000, 1e300, "k"),
    (1030, 1e300, "k"),  # a subnormal leaf budget, but 2^1030 overflows
])
def test_deep_k_ends_in_the_leaf_refusal_or_the_factory(build, k, eps,
                                                        ends_in):
    # never with a real factory: a leaf budget still > 0 (0.1 / 4^512 is
    # subnormal) would start stacking 7^k leaves.  An OverflowError or a
    # RecursionError fails the test.
    if ends_in == "factory":
        with pytest.raises(_Refused):
            build(k, eps, 1.0, _refusing_factory([]))
    else:
        with pytest.raises(ValueError, match=rf"^the leaf gadget (budget|"
                           rf"half-width) .* of k = {k} levels .* float64; "
                           r"use a smaller k$"):
            build(k, eps, 1.0, _refusing_factory([]))


@pytest.mark.parametrize("build, size", [
    (lambda eps: build_str_square(2 ** 600, eps, 1.0, _refusing_factory([])),
     f"n = {2 ** 600}"),
    (lambda eps: build_str_rect(RectShape(2 ** 600, 1, 1), eps, 1.0,
                                _refusing_factory([])),
     f"shape = {RectShape(2 ** 600, 1, 1)!r}")], ids=["square", "rect"])
def test_padded_depth_is_refused_by_the_callers_size(build, size):
    # both used to say "k = 600 levels need ...; use a smaller k", naming
    # a depth the caller never passed
    with pytest.raises(ValueError) as info:
        build(0.1)
    assert str(info.value) == (
        f"the leaf gadget budget 0.1 / 4^600 of {size} padded to k = 600 "
        f"levels underflows to 0 in float64; use a smaller "
        f"{size.split(' =')[0]}")


@pytest.mark.parametrize("build, levels, name", [
    (build_str_pow2, "k = {k} levels", "k"),
    (pow2_count_reference, "k = {k} levels", "k"),
    (lambda k, *a: build_str_square(2 ** k, *a),
     "n = {n} padded to k = {k} levels", "n"),
    (lambda k, *a: build_str_rect(RectShape(2 ** k, 1, 1), *a),
     "shape = RectShape(m={n}, n=1, p=1) padded to k = {k} levels",
     "shape")], ids=["pow2", "pow2-reference", "square", "rect"])
def test_leaf_budget_and_half_width_are_refused_apart(build, levels, name):
    # both were "... budget ... and half-width ..., which underflows to 0
    # or overflows float64", one text for two values
    for k, eps, cause in (
            (600, 0.1, "the leaf gadget budget 0.1 / 4^600 of {levels} "
             "underflows to 0 in float64"),
            (1030, 1e300, "the leaf gadget half-width 2^1030 * 1.0 of "
             "{levels} has a term beyond float64")):
        with pytest.raises(ValueError) as info:
            build(k, eps, 1.0, _refusing_factory([]))
        at = levels.format(k=k, n=2 ** k)
        assert str(info.value) == (cause.format(levels=at)
                                   + f"; use a smaller {name}")


def test_factory_must_build_a_scalar_product_gadget():
    wide = GadgetFactory("relu", lambda spec: identity_mnn((1, 2), 1))
    with pytest.raises(ValueError, match="^factory must produce gadgets "
                                         "mapping 1x2 -> 1x1$"):
        build_str_pow2(1, 0.1, 1.0, wide)


@pytest.mark.parametrize("eps, K", [(1e-3, 1.0), (0.3, 2.5)])
def test_builder_and_reference_ask_for_the_same_leaf(eps, K):
    for k in range(5):
        built, referenced = [], []
        with pytest.raises(_Refused):
            build_str_pow2(k, eps, K, _refusing_factory(built))
        with pytest.raises(_Refused):
            pow2_count_reference(k, eps, K, _refusing_factory(referenced))
        assert built == referenced == [GadgetSpec(eps / 4 ** k, 2 ** k * K)]


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("eps, K", [(np.nan, 1.0), (0.1, np.nan)])
def test_nan_eps_or_K_is_refused_by_the_builder(k, eps, K):
    asked = []
    for build in (lambda: build_str_pow2(k, eps, K, _refusing_factory(asked)),
                  lambda: build_str_rect(RectShape(2 ** k, 1, 1), eps, K,
                                         _refusing_factory(asked))):
        name = "eps" if np.isnan(eps) else "K"
        with pytest.raises(ValueError, match=f"^{name} must be positive and "
                                             "finite, got nan$"):
            build()
    assert asked == []


def test_gadget_spec_for_bounds_shrinks_budget():
    spec = bound_gadget_spec_rect(RectShape(5, 6, 4), 0.08, 1.0)
    assert spec.epsilon == pytest.approx(0.08 / (4 * 36))
    assert spec.K == pytest.approx(12.0)


@pytest.mark.parametrize("shape, eps, K, cause", [
    (RectShape(3, 3, 3), 5e-324, 1.0, "the bound's leaf budget 5e-324 / "
     "(4 * 3^2) underflows to 0 in float64; use a larger eps or a smaller "
     "size"),
    (RectShape(3, 3, 3), 1.0, 1e308, "the bound's leaf half-width 2 * 3 * "
     "1e+308 overflows float64; use a smaller K or size"),
])
def test_bound_leaf_that_rounds_away_is_refused_as_derived(shape, eps, K,
                                                           cause):
    # each was refused as "epsilon must be positive and finite, got 0.0" or
    # "K must be positive and finite, got inf", values never passed
    for call in (bound_gadget_spec_rect,
                 lambda *a: rect_count_reference(*a, relu2_factory)):
        with pytest.raises(ValueError) as info:
            call(shape, eps, K)
        assert str(info.value) == cause


def test_only_gadget_built_networks_carry_a_label():
    shape = RectShape(2, 3, 2)
    for glue in (build_mix(2), build_split(2), _build_ext(shape),
                 _build_ext(RectShape(3, 3, 3), False), _build_shr(shape)):
        assert glue.activation_name is None
    for factory in (relu_factory, relu2_factory):
        name = factory.activation_name
        assert build_str_pow2(2, 1e-2, 1.0, factory).activation_name == name
        assert build_str_rect(shape, 1e-2, 1.0, factory).activation_name == name
        assert build_str_square(3, 1e-2, 1.0, factory).activation_name == name
    # relu leaves at budget 5 >= K^2 = 4 are zero gadgets, with no rho entry
    zero = build_str_pow2(1, 20.0, 1.0, relu_factory)
    assert not any(layer.mask.any_rho for layer in zero.layers)
    assert zero.activation_name == "relu"
