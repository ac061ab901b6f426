"""The size rule: every public size parameter is a whole number no smaller
than its least value, and anything else is refused by the parameter's name."""

import numpy as np
import pytest

from strassennet import (InversionSpec, NeumannDepth, RectShape,
                         bound_counts_rect, bound_gadget_spec_rect, build_fill,
                         build_in, build_inv, build_mix, build_neu,
                         build_split, build_sqr, build_str_pow2,
                         build_str_square, formula_counts_pow2, identity_mnn,
                         inv_count_reference, mnn_equal, neu_bound_counts,
                         neumann_depth, pow2_count_reference,
                         rect_count_reference, relu2_factory, run_suite)

f = relu2_factory

# (parameter name, call): floats, bools and values one below the least
REFUSED = [
    # floats
    ("k", lambda: build_mix(2.0)),
    ("k", lambda: build_split(1.5)),
    ("n", lambda: build_fill(2.0, 2)),
    ("L", lambda: build_fill(2, 2.0)),
    ("depth", lambda: identity_mnn((2, 2), 1.5)),
    ("N", lambda: build_sqr(1.5, 2, 0.1, f)),
    ("N", lambda: build_neu(2.0, 2, 0.1, f)),
    ("n", lambda: build_in(2.0, 1.0)),
    ("k", lambda: formula_counts_pow2(1.5, 12, 2)),
    ("k", lambda: pow2_count_reference(1.5, 0.1, 1.0, f)),
    ("N", lambda: neu_bound_counts(2.5, 2, 0.05, f)),
    ("N", lambda: NeumannDepth(1.5, 0.1, 0.1)),
    ("n", lambda: build_str_square(2.0, 0.1, 1.0, f)),
    ("n", lambda: build_sqr(2, 2.0, 0.1, f)),
    ("n", lambda: build_neu(2, 2.0, 0.1, f)),
    # bools
    ("k", lambda: build_mix(True)),
    ("depth", lambda: identity_mnn((2, 2), True)),
    ("N", lambda: build_sqr(True, 2, 0.1, f)),
    ("N", lambda: build_neu(True, 2, 0.1, f)),
    # one below the least value
    ("m", lambda: RectShape(0, 1, 1)),
    ("n", lambda: RectShape(1, 0, 1)),
    ("p", lambda: RectShape(1, 1, 0)),
    ("k", lambda: build_str_pow2(-1, 0.1, 1.0, f)),
    ("k", lambda: build_mix(0)),
    ("k", lambda: build_split(0)),
    ("k", lambda: formula_counts_pow2(-1, 12, 2)),
    ("k", lambda: pow2_count_reference(-1, 0.1, 1.0, f)),
    ("n", lambda: build_str_square(0, 0.1, 1.0, f)),
    ("n", lambda: InversionSpec(0, 1.0, 0.1, 0.5)),
    ("N", lambda: NeumannDepth(0, 0.1, 0.1)),
    ("n", lambda: build_fill(0, 2)),
    ("L", lambda: build_fill(2, 0)),
    ("N", lambda: build_sqr(0, 2, 0.1, f)),
    ("n", lambda: build_sqr(1, 0, 0.1, f)),
    ("N", lambda: build_neu(0, 2, 0.05, f)),
    ("n", lambda: build_neu(1, 0, 0.05, f)),
    ("n", lambda: build_in(0, 1.0)),
    ("N", lambda: neu_bound_counts(1, 2, 0.05, f)),
    ("n", lambda: neu_bound_counts(2, 0, 0.05, f)),
    ("depth", lambda: identity_mnn((2, 2), 0)),
    # refused before any check of the suite runs
    ("seed", lambda: run_suite("identities", 1.5)),
    ("seed", lambda: run_suite("identities", True)),
    ("seed", lambda: run_suite("identities", -1)),
]


@pytest.mark.parametrize("name, call", REFUSED,
                         ids=[f"{i}-{name}" for i, (name, _) in
                              enumerate(REFUSED)])
def test_size_is_refused_by_name(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be (an integer, "
                                         r"got \S+|>= -?\d+, got -?\d+)$"):
        call()


def test_numpy_integer_sizes_build_the_same_network():
    builds = [
        (build_str_pow2, (2, 0.1, 1.0, f)), (build_mix, (2,)),
        (build_split, (2,)), (build_str_square, (3, 0.1, 1.0, f)),
        (build_fill, (2, 3)), (build_sqr, (2, 2, 0.1, f)),
        (build_neu, (2, 2, 0.05, f)), (build_in, (2, 1.5)),
        (identity_mnn, ((2, 2), 2)),
    ]
    for build, args in builds:
        numpy_args = [np.int64(a) if type(a) is int else a for a in args]
        assert mnn_equal(build(*numpy_args), build(*args)), build.__name__


# (size in the text, call): sizes past float64's reach were an OverflowError
# ("int too large to convert to float", or "Numerical result out of range")
HUGE = [
    ("10" + "0" * 102, lambda: neu_bound_counts(2, 10 ** 103, 0.1, f)),
    ("10" + "0" * 102,
     lambda: inv_count_reference(InversionSpec(10 ** 103, 1.0, 0.1, 0.5), f)),
    ("10" + "0" * 102,
     lambda: build_inv(InversionSpec(10 ** 103, 1.0, 0.1, 0.5), f)),
    ("10" + "0" * 102,
     lambda: neumann_depth(InversionSpec(10 ** 103, 1.0, 0.1, 0.5))),
    ("10" + "0" * 308,
     lambda: bound_gadget_spec_rect(RectShape(10 ** 309, 1, 1), 0.1, 1.0)),
    ("10" + "0" * 308,
     lambda: rect_count_reference(RectShape(10 ** 309, 1, 1), 0.1, 1.0, f)),
    ("10" + "0" * 308, lambda: build_sqr(1, 10 ** 309, 0.1, f)),
    ("10" + "0" * 308, lambda: build_neu(2, 10 ** 309, 0.1, f)),
    ("10" + "0" * 199,
     lambda: bound_counts_rect(RectShape(10 ** 200, 1, 1), 10, 3)),
]


@pytest.mark.parametrize("size, call", HUGE,
                         ids=[str(i) for i in range(len(HUGE))])
def test_size_past_float64_is_refused_by_its_derivation(size, call):
    with pytest.raises(ValueError, match=r" float64; use a ") as info:
        call()
    assert size in str(info.value)
