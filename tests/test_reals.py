"""The real rule: every public real parameter is a finite real number in
``(0, below)``, and anything else is refused by the parameter's name and
value, alike through the builder, its count reference and ``snn build``."""

import argparse
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strassennet import (GadgetSpec, InversionSpec, NeumannDepth, RectShape,
                         bound_gadget_spec_rect, build_in, build_neu,
                         build_sqr, build_str_pow2, build_str_rect,
                         build_str_square, mnn_equal, neu_bound_counts,
                         pow2_count_reference, rect_count_reference,
                         relu2_factory, relu_factory)
from strassennet.cli import FLAGS, KINDS, main
from strassennet.gadgets import relu_gadget_bounds
from strassennet.inversion import compute_N, series_length_estimate

f = relu_factory
inf = math.inf

#: refused by type: not a real number, or a bool
NOT_REAL = ["0.1", None, 1j, True, np.bool_(True), np.array(0.1)]
#: real numbers refused by value
OUT_OF_RANGE = [math.nan, 0, -1, -0.5, inf, -inf, 10 ** 400]

# (parameter name, upper bound, call taking the value)
PARAMETERS = [
    ("epsilon", inf, lambda x: GadgetSpec(x, 1.0)),
    ("K", inf, lambda x: GadgetSpec(0.1, x)),
    ("epsilon", inf, lambda x: relu_gadget_bounds(x, 1.0)),
    ("K", inf, lambda x: relu_gadget_bounds(0.1, x)),
    ("eps", inf, lambda x: build_str_pow2(1, x, 1.0, f)),
    ("K", inf, lambda x: build_str_pow2(1, 0.1, x, f)),
    ("eps", inf, lambda x: pow2_count_reference(1, x, 1.0, f)),
    ("K", inf, lambda x: pow2_count_reference(1, 0.1, x, f)),
    ("eps", inf, lambda x: build_str_rect(RectShape(2, 3, 1), x, 1.0, f)),
    ("K", inf, lambda x: build_str_rect(RectShape(2, 3, 1), 0.1, x, f)),
    ("eps", inf, lambda x: build_str_square(3, x, 1.0, f)),
    ("K", inf, lambda x: build_str_square(3, 0.1, x, f)),
    ("eps", inf, lambda x: rect_count_reference(RectShape(2, 3, 1), x, 1.0,
                                                f)),
    ("K", inf, lambda x: rect_count_reference(RectShape(2, 3, 1), 0.1, x, f)),
    ("eps", inf, lambda x: bound_gadget_spec_rect(RectShape(2, 3, 1), x, 1.0)),
    ("K", inf, lambda x: bound_gadget_spec_rect(RectShape(2, 3, 1), 0.1, x)),
    ("alpha", inf, lambda x: InversionSpec(2, x, 0.1, 0.5)),
    ("epsilon", inf, lambda x: InversionSpec(2, 1.0, x, 0.5)),
    ("delta", 1.0, lambda x: InversionSpec(2, 1.0, 0.1, x)),
    ("Sigma", inf, lambda x: NeumannDepth(2, x, 0.1)),
    ("eps", inf, lambda x: compute_N(x, 0.5)),
    ("delta", 1.0, lambda x: compute_N(0.1, x)),
    ("eps", inf, lambda x: series_length_estimate(x, 0.5)),
    ("delta", 1.0, lambda x: series_length_estimate(0.1, x)),
    ("eps", 0.25, lambda x: build_sqr(1, 2, x, f)),
    ("eps", 0.125, lambda x: build_neu(2, 2, x, f)),
    ("alpha", inf, lambda x: build_in(2, x)),
    ("eps", inf, lambda x: neu_bound_counts(2, 2, x, f)),
    ("eps_neu", inf, lambda x: NeumannDepth(2, 0.1, x)),
    ("eps", 0.125, lambda x: build_neu(1, 2, x, f)),
]


def _out_of_range(name, below, x) -> str:
    rule = ("be positive and finite" if below == inf
            else f"lie in (0, {below:g})")
    return f"{name} must {rule}, got {x}"


def _cases(name, below):
    """(value, message) pairs: each refused value, and its refusal."""
    for x in NOT_REAL:
        yield x, f"{name} must be a real number, got {x!r}"
    for x in OUT_OF_RANGE + ([below] if below < inf else []):
        yield x, _out_of_range(name, below, x)


def _refused(call, x) -> str:
    """The message of the ``ValueError`` that refuses ``call(x)``; any other
    exception, or none, fails the test."""
    with pytest.raises(ValueError) as info:
        call(x)
    return str(info.value)


@pytest.mark.parametrize("name, below, call", PARAMETERS,
                         ids=[f"{i}-{name}" for i, (name, _, _) in
                              enumerate(PARAMETERS)])
def test_real_parameter_is_refused_by_name_and_value(name, below, call):
    for x, message in _cases(name, below):
        assert _refused(call, x) == message, repr(x)


def test_values_just_inside_the_bounds_are_accepted():
    below = [float(np.nextafter(b, 0.0)) for b in (0.25, 0.125, 1.0)]
    build_sqr(1, 2, below[0], f)
    build_neu(2, 2, below[1], relu2_factory)
    compute_N(0.1, below[2])
    InversionSpec(2, 1.0, 0.1, below[2])


_ARGS = dict(k=1, m=2, n=2, p=3, eps=0.1, K=1.0, alpha=1.0, delta=0.5)
#: the real flags of each kind, with the name its refusal gives
_FLAGS = {"strassen-pow2": {"eps": "eps", "K": "K"},
          "strassen-rect": {"eps": "eps", "K": "K"},
          "strassen-square": {"eps": "eps", "K": "K"},
          "gadget": {"eps": "epsilon", "K": "K"},
          "inverse": {"alpha": "alpha", "eps": "epsilon", "delta": "delta"}}
_CASES = [(kind, flag, name) for kind, flags in _FLAGS.items()
          for flag, name in flags.items()]


def test_every_kind_lists_its_real_flags():
    assert set(_FLAGS) == set(KINDS)
    for kind, (flags, *_) in KINDS.items():
        assert set(_FLAGS[kind]) == {flag for flag in flags
                                     if FLAGS[flag]["type"] is float}, kind


@pytest.mark.parametrize("activation", ["relu", "relu2"])
@pytest.mark.parametrize("kind, flag, name", _CASES)
def test_builder_and_reference_refuse_alike(kind, flag, name, activation):
    factory = {"relu": relu_factory, "relu2": relu2_factory}[activation]
    _, spec, builder, reference = KINDS[kind]
    for x, message in _cases(name, 1.0 if flag == "delta" else inf):
        args = argparse.Namespace(**{**_ARGS, flag: x})
        for call in (builder, reference):
            assert _refused(lambda a: call(*spec(a), factory), args) \
                == message, (call, x)


@pytest.mark.parametrize("kind, flag, name", _CASES)
def test_snn_build_refuses_by_name_and_value(kind, flag, name, tmp_path,
                                             capsys):
    sizes = {"strassen-pow2": ["--k", "1"], "inverse": ["--n", "2"],
             "strassen-rect": ["--m", "2", "--n", "3", "--p", "1"],
             "strassen-square": ["--n", "3"], "gadget": []}[kind]
    below = 1.0 if flag == "delta" else inf
    spelled = {"nan": math.nan, "0": 0.0, "-1": -1.0, "1e309": inf}
    if below < inf:
        spelled["1"] = below
    out = tmp_path / "net.json"
    for text, x in spelled.items():
        rc = main(["build", kind, *sizes, f"--{flag}={text}",
                   "--out", str(out)])
        message = _out_of_range(name, below, x)
        assert (rc, capsys.readouterr().err) == (1, f"snn: error: {message}\n")
        assert not out.exists()


#: a real the real rule accepts, 5e-324 to 1.8e308: a mantissa in [1, 2)
#: times 2^e, e uniform over every binade, or over the 16 at either end,
#: where a derived budget or half-width rounds to 0 or inf
_REAL = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                  st.integers(-1074, 1023) | st.integers(-1074, -1059)
                  | st.integers(1008, 1023))
#: every flag drawn over what its rule accepts, sizes kept small
_DRAWN = {**dict.fromkeys("mnp", st.integers(1, 2)), "k": st.integers(0, 2),
          "eps": _REAL, "K": _REAL, "alpha": _REAL,
          "delta": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_no_refusal_names_a_value_the_caller_never_passed(data):
    # every drawn value is accepted by the real rule, so a refusal of 0.0 or
    # inf speaks of a derived value under a parameter's name; builder and
    # reference each return or raise ValueError, never another exception
    kind = data.draw(st.sampled_from(sorted(KINDS)), label="kind")
    factory = data.draw(st.sampled_from([relu_factory, relu2_factory]))
    flags, spec, builder, reference = KINDS[kind]
    args = argparse.Namespace(**{flag: data.draw(_DRAWN[flag], label=flag)
                                 for flag in flags})
    for call in (builder, reference):
        try:
            call(*spec(args), factory)
        except ValueError as exc:
            assert not re.search(r"must be positive and finite, got "
                                 r"(0\.0|inf)$", str(exc)), (call, exc)


#: per real flag, values whose budgets float32 arithmetic would derive
#: otherwise: K^2/eps overflows float32 at (eps, K) = (1e-30, 1e5), and
#: eps / (2 alpha) is compared with the largest float64
_FLOAT32 = {"eps": [0.1, 1e-30, 1e-2], "K": [1.0, 1e5, 3.0],
            "alpha": [1.0, 0.7], "delta": [0.5, 0.3]}


@pytest.mark.parametrize("activation", ["relu", "relu2"])
@pytest.mark.parametrize("kind, flag, name", _CASES)
def test_numpy_float32_parameters_are_read_as_their_float64(kind, flag, name,
                                                            activation):
    # a float32 is taken into float64 by the real rule, before any budget
    # is derived from it, so it builds what its float64 value builds
    factory = {"relu": relu_factory, "relu2": relu2_factory}[activation]
    _, spec, builder, _ = KINDS[kind]
    for x in _FLOAT32[flag]:
        base = {**_ARGS, "k": 0, "K": 1e5 if x == 1e-30 else 1.0}
        nets = []
        for value in (np.float32(x), float(np.float32(x))):
            args = argparse.Namespace(**{**base, flag: value})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                nets.append(builder(*spec(args), factory))
        assert mnn_equal(*nets), x
