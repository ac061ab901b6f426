"""The shared count and error routines behind the acceptance criteria, and
the seed ``run_suite`` hands to them (bad seeds: ``test_sizes.py``)."""

import numpy as np
import pytest

from strassennet import verification
from strassennet.gadgets import FACTORIES, relu2_factory
from strassennet.inversion import InversionSpec, build_inv
from strassennet.strassen import RectShape, build_str_rect
from strassennet.verification import (check_inversion,
                                      check_layer_count_formula,
                                      check_rect_square_bounds,
                                      check_weight_count_formula, run_suite)


def _miss(label, net, M_ref, L_ref):
    return f"{label}: ({net.num_weights}, {net.num_layers}) vs ({M_ref}, {L_ref})"


def test_tightened_bound_fails_and_names_each_miss(monkeypatch):
    real = verification.rect_count_reference

    def tight(shape, eps, K, factory):
        M, L, exact = real(shape, eps, K, factory)
        return (M, 1, exact) if factory is relu2_factory else (M, L, exact)

    monkeypatch.setattr(verification, "rect_count_reference", tight)
    res = check_rect_square_bounds()
    assert not res.passed
    assert res.measured == 3 and res.cases == 6
    want = []
    for m, n, p in ((2, 3, 2), (3, 3, 3), (5, 6, 4)):
        shape = RectShape(m, n, p)
        net = build_str_rect(shape, 1e-2, 1.0, relu2_factory)
        M = real(shape, 1e-2, 1.0, relu2_factory)[0]
        want.append(_miss(f"relu2 {m}x{n}x{p}", net, round(M, 1), 1))
    assert res.detail == "; ".join(want)


def test_unknown_suite_is_refused_by_name():
    with pytest.raises(ValueError, match="^unknown suite 'nope'; choose "):
        run_suite("nope")


def test_one_count_criteria_compare_only_their_count(monkeypatch):
    real = verification.pow2_count_reference

    def tight(k, eps, K, factory):
        M, L, exact = real(k, eps, K, factory)
        return (M - 1 if k == 2 else M), L, exact

    monkeypatch.setattr(verification, "pow2_count_reference", tight)
    res = check_weight_count_formula()
    assert not res.passed
    assert res.measured == 2 and res.cases == 10
    want = []
    for act in ("relu2", "relu"):
        net = verification._pow2_net(act, 2, 1e-2, 1.0)
        want.append(_miss(f"{act} k=2", net, net.num_weights - 1,
                          net.num_layers))
    assert res.detail == "; ".join(want)
    layers = check_layer_count_formula()
    assert layers.passed and layers.measured == 0 and layers.detail == ""


def test_count_misses_fail_an_error_criterion_and_keep_its_sweep(monkeypatch):
    real = verification.inv_count_reference

    def tight(spec, factory):
        M, L, exact = real(spec, factory)
        if spec.n == 4 and factory is relu2_factory:
            return M, L, False          # the one-stage reference must be exact
        if (spec.n, spec.alpha, spec.epsilon) == (2, 2.0, 0.01):
            return M, 1, exact
        return M, L, exact

    passing = check_inversion()
    monkeypatch.setattr(verification, "inv_count_reference", tight)
    res = check_inversion()
    assert not res.passed
    assert (res.measured, res.cases) == (passing.measured, passing.cases)
    one = build_inv(InversionSpec(4, 1.0, 1.2, 0.5), relu2_factory)
    swept = build_inv(InversionSpec(2, 2.0, 0.01, 0.5), FACTORIES["relu"])
    M = real(InversionSpec(2, 2.0, 0.01, 0.5), FACTORIES["relu"])[0]
    assert res.detail == "; ".join([
        _miss("one-stage n=4", one, 40, 2),
        _miss("alpha=2.0 eps=0.01 n=2", swept, round(M, 1), 1)])


def test_error_routine_takes_the_largest_norm_of_the_batch():
    net = verification._pow2_net("relu2", 1, 1.0, 1.0)
    pairs = np.random.default_rng(3).uniform(-1, 1, (5, 2, 2, 2))
    inputs = np.concatenate([pairs[:, 0], pairs[:, 1]], axis=2)
    wants = [A @ B for A, B in pairs]
    wants[3] = wants[3] + 0.25
    err = verification._worst_error(net, inputs, wants, verification._max_abs)
    assert err == pytest.approx(0.25, abs=1e-9)


def test_seed_reaches_the_checks_as_an_int(monkeypatch):
    seen = []
    monkeypatch.setitem(verification.SUITES, "identities", (seen.append,))
    run_suite("identities", np.int64(7))
    assert seen == [7] and type(seen[0]) is int
