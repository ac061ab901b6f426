"""Acceptance checks: count formulas, error guarantees, oracle identities.

Each check returns a CriterionResult holding the measured quantity and the
threshold it was held to.  Checks are grouped into named suites for the
CLI (``gadgets``, ``strassen``, ``inversion``, ``identities``); the test
suite also runs them one by one.  All randomness flows through numpy
Generators derived from the single suite seed (an integer >= 0, refused by
name), so runs reproduce exactly.  A count criterion names each net that
misses its reference as ``label: (M, L) vs (M_ref, L_ref)``, joined by "; ".
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import oracles
from .core import _count, counts_satisfied, realize_many
from .gadgets import (FACTORIES, GadgetSpec, gadget_count_reference,
                      relu2_factory, relu_factory, verify_gadget)
from .inversion import (InversionSpec, build_inv, build_neu, build_sqr,
                        inv_count_reference)
from .strassen import (RectShape, build_str_pow2, build_str_rect,
                       pow2_count_reference, rect_count_reference)

DEFAULT_SEED = 42
_MIN_R2 = 0.98  # least R^2 of the affine gadget growth fit


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: float
    threshold: str
    detail: str = ""
    cases: int = 0


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


@lru_cache(maxsize=None)
def _pow2_net(activation: str, k: int, eps: float, K: float):
    return build_str_pow2(k, eps, K, FACTORIES[activation])


def _count_criterion(cases, name="", threshold="", agree=counts_satisfied):
    """Criterion over ``(label, net, reference)`` cases: measured is the
    number of nets whose counts do not ``agree`` with their reference
    ``(M_ref, L_ref, exact)``, each named in the detail."""
    misses = [f"{label}: ({net.num_weights}, {net.num_layers}) vs "
              f"({round(ref[0], 1)}, {round(ref[1], 1)})"
              for label, net, ref in cases if not agree(net, ref)]
    return CriterionResult(name, not misses, len(misses), threshold,
                           "; ".join(misses), len(cases))


def _max_abs(D) -> float:
    return float(np.max(np.abs(D)))


def _worst_error(net, inputs, wants, norm=oracles.spectral_norm) -> float:
    """Largest ``norm(want - output)`` over one ``realize_many`` batch."""
    outs = realize_many(net, inputs)
    return max(float(norm(want - out)) for want, out in zip(wants, outs))


def _random_with_norm(rng: np.random.Generator, n: int, bound: float):
    """A random matrix with spectral norm in (0.3, 1.0] times the bound."""
    A = rng.standard_normal((n, n))
    scale = bound * rng.uniform(0.3, 1.0)
    return A * (scale / np.linalg.norm(A, 2))


# --- strassen suite ---------------------------------------------------------

def _pow2_cases(act: str):
    """(k, net, count reference) of the power-of-two nets, k in 0..4."""
    eps, K = 1e-2, 1.0
    for k in range(5):
        yield (k, _pow2_net(act, k, eps, K),
               pow2_count_reference(k, eps, K, FACTORIES[act]))


def pow2_growth_rows(act: str):
    """``["pow2", k, M, M_ref, satisfied]`` for k in 0..4, then the 7x
    recursion ``["pow2-recursion", k, M(k+1) + 12*4^(k+1), 7 (M(k) + 12*4^k),
    equal]`` for k in 0..3 (``snn report growth`` and criterion 10)."""
    rows = [["pow2", k, net.num_weights, ref[0], counts_satisfied(net, ref)]
            for k, net, ref in _pow2_cases(act)]
    M = [row[2] for row in rows]
    for k in range(4):
        lhs = M[k + 1] + 12 * 4 ** (k + 1)
        rhs = 7 * (M[k] + 12 * 4 ** k)
        rows.append(["pow2-recursion", k, lhs, rhs, lhs == rhs])
    return rows


def _pow2_closed_form(name: str, index: int) -> CriterionResult:
    """Compare one count (0: M, 1: L) of the power-of-two nets to the formula."""
    return _count_criterion(
        [(f"{act} k={k}", net, ref) for act in ("relu2", "relu")
         for k, net, ref in _pow2_cases(act)],
        name, "0 mismatches over k in 0..4, both gadgets",
        lambda net, ref: (net.num_weights, net.num_layers)[index] == ref[index])


def check_weight_count_formula(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 1: num_weights of the power-of-two net equals the closed form."""
    return _pow2_closed_form("weight-count-closed-form", 0)


def check_layer_count_formula(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 2: num_layers of the power-of-two net equals the closed form."""
    return _pow2_closed_form("layer-count-closed-form", 1)


def check_multiplication_error(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 3: sup-norm error of the ReLU multiplication nets stays within eps."""
    K = 1.0
    worst_ratio, cases = 0.0, 0
    for e_idx, eps in enumerate((1e-1, 1e-2, 1e-3)):
        for k in (1, 2, 3):
            side = 2 ** k
            rng = _rng(seed, 3, e_idx, k)
            pairs = rng.uniform(-K, K, size=(100, 2, side, side))
            inputs = np.concatenate([pairs[:, 0], pairs[:, 1]], axis=2)
            wants = [oracles.matmul_naive(A, B) for A, B in pairs]
            err = _worst_error(_pow2_net("relu", k, eps, K), inputs, wants, _max_abs)
            worst_ratio = max(worst_ratio, err / eps)
            cases += len(pairs)
    return CriterionResult("multiplication-sup-error", worst_ratio <= 1.0,
                           worst_ratio, "max error / eps <= 1 over the sweep",
                           "eps in {1e-1,1e-2,1e-3} x k in {1,2,3} x 100 pairs",
                           cases)


def check_exact_gadget_equivalence(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 4: squared-activation nets reproduce the naive product to 1e-9."""
    tol = 1e-9
    worst, cases = 0.0, 0
    for idx, n in enumerate((2, 4, 8, 3, 6)):
        pow2 = n & (n - 1) == 0
        if pow2:
            net = _pow2_net("relu2", (n - 1).bit_length(), 1.0, 1.0)
        else:
            net = build_str_rect(RectShape(n, n, n), 1.0, 1.0, relu2_factory)
        rng = _rng(seed, 4, idx)
        pairs = rng.uniform(-1.0, 1.0, size=(200, 2, n, n))
        left = pairs[:, 0] if pow2 else pairs[:, 0].transpose(0, 2, 1)
        inputs = np.concatenate([left, pairs[:, 1]], axis=2)
        wants = [oracles.matmul_naive(A, B) for A, B in pairs]
        worst = max(worst, _worst_error(net, inputs, wants, _max_abs))
        cases += len(pairs)
    return CriterionResult("exact-gadget-equivalence", worst <= tol, worst,
                           f"max abs deviation <= {tol}",
                           "n in {2,4,8} as power-of-two nets, {3,6} padded", cases)


def check_rect_square_bounds(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 5: rectangular nets respect the gamma^(log2 7) count bounds."""
    eps, K = 1e-2, 1.0
    return _count_criterion(
        [(f"{name} {m}x{n}x{p}",
          build_str_rect(RectShape(m, n, p), eps, K, factory),
          rect_count_reference(RectShape(m, n, p), eps, K, factory))
         for (m, n, p) in ((2, 3, 2), (3, 3, 3), (5, 6, 4))
         for name, factory in FACTORIES.items()],
        "rectangular-count-bounds",
        "measured M, L within bounds for all shapes/gadgets")


def check_growth_properties(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 10: exact 7x count recursion, and affine gadget growth in log2(1/eps)."""
    recursion_ok = all(row[4] for row in pow2_growth_rows("relu2")
                       if row[0] == "pow2-recursion")
    r2 = gadget_growth_fit()[3]
    return CriterionResult(
        "count-growth-properties", recursion_ok and r2 >= _MIN_R2, r2,
        f"recursion exact for k in 0..3 and fit R^2 >= {_MIN_R2}",
        f"recursion_ok={recursion_ok}, R^2={r2:.4f}", 5 + 15)


def gadget_growth_fit():
    """Affine fit of ReLU gadget weights against log2(1/eps) at K = 1.

    Returns ``(log2(1/eps) values, weights, fitted weights, R^2)``.
    """
    es = np.arange(2, 17, dtype=float)
    sizes = np.array([
        relu_factory.build(GadgetSpec(2.0 ** -e, 1.0)).num_weights for e in es])
    slope, intercept = np.polyfit(es, sizes, 1)
    pred = slope * es + intercept
    ss_res = float(np.sum((sizes - pred) ** 2))
    ss_tot = float(np.sum((sizes - sizes.mean()) ** 2))
    return es, sizes, pred, 1.0 - ss_res / ss_tot


# --- gadgets suite ----------------------------------------------------------

def check_gadget_errors(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Product gadgets meet their advertised sup error on [-K, K]^2."""
    worst_ratio, cases = 0.0, 0
    for K in (0.5, 1.0, 2.0):
        for eps in (2.0 * K * K, 0.7 * K * K, 0.5, 0.1, 0.01, 1e-3):
            spec = GadgetSpec(eps, K)
            err = verify_gadget(relu_factory.build(spec), spec)
            worst_ratio = max(worst_ratio, err / eps)
            cases += 1
        spec = GadgetSpec(1.0, K)
        err = verify_gadget(relu2_factory.build(spec), spec)
        worst_ratio = max(worst_ratio, err / 1e-12)
        cases += 1
    return CriterionResult("gadget-sup-error", worst_ratio <= 1.0, worst_ratio,
                           "max grid error / eps <= 1 (1e-12 for exact gadget)",
                           "K in {0.5,1,2}, eps down to 1e-3, grids K/128 "
                           "and 256 per axis", cases)


def check_gadget_size_bounds(seed: int = DEFAULT_SEED) -> CriterionResult:
    """ReLU gadget sizes stay within the closed-form M and L envelopes."""
    specs = [(e, GadgetSpec(2.0 ** -e, K))
             for K in (0.5, 1.0, 2.0, 4.0) for e in range(1, 13)]
    return _count_criterion(
        [(f"K={spec.K} eps=2^-{e}", relu_factory.build(spec),
          gadget_count_reference(spec, relu_factory)) for e, spec in specs],
        "gadget-size-envelope",
        "measured (M, L) within the closed-form envelope")


def check_gadget_growth_fit(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Affine fit quality of gadget size against log2(1/eps)."""
    r2 = gadget_growth_fit()[3]
    return CriterionResult("gadget-growth-fit", r2 >= _MIN_R2, r2,
                           f"R^2 >= {_MIN_R2}", "eps = 2^-2 .. 2^-16 at K=1", 15)


# --- identities suite -------------------------------------------------------

def check_neumann_identities(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 6: doubling-product and rescaled-product identities (oracle only)."""
    tol = 1e-10
    worst, cases = 0.0, 0
    for N in range(4):
        for n in (2, 4, 8):
            for s in range(100):
                rng = _rng(seed, 6, N, n, s)
                A = _random_with_norm(rng, n, 0.9)
                lhs = oracles.neumann_partial(A, 2 ** (N + 1))
                prod = np.eye(n)
                prod_scaled = np.eye(n)
                P = A.copy()
                H = A / 2.0
                for k in range(N + 1):
                    prod = oracles.matmul_naive(prod, P + np.eye(n))
                    prod_scaled = oracles.matmul_naive(
                        prod_scaled, H + 2.0 ** -(2 ** k) * np.eye(n))
                    if k < N:
                        P = oracles.matmul_naive(P, P)
                        H = oracles.matmul_naive(H, H)
                rhs2 = 2.0 ** (2 ** (N + 1) - 1) * prod_scaled
                scale = max(1.0, float(np.max(np.abs(lhs))))
                dev = max(float(np.max(np.abs(lhs - prod))),
                          float(np.max(np.abs(lhs - rhs2)))) / scale
                worst = max(worst, dev)
                cases += 1
    return CriterionResult("neumann-product-identities", worst <= tol, worst,
                           f"relative deviation <= {tol}",
                           "N in 0..3, n in {2,4,8}, 100 seeds each", cases)


def check_norm_domination(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 11: spectral norm never exceeds n times the max-entry norm."""
    margin = 1e-9
    violations, cases, worst = 0, 0, -np.inf
    for n in (1, 2, 4, 8):
        for s in range(250):
            rng = _rng(seed, 11, n, s)
            A = rng.uniform(-3.0, 3.0, size=(n, n))
            gap = oracles.spectral_norm(A) - n * float(np.max(np.abs(A)))
            worst = max(worst, gap)
            cases += 1
            if gap > margin:
                violations += 1
    return CriterionResult("norm-domination", violations == 0, worst,
                           f"spectral - n*maxabs <= {margin} everywhere",
                           f"{violations} violations over n in {{1,2,4,8}}", cases)


# --- inversion suite --------------------------------------------------------

def check_squaring_error(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 7: repeated-squaring nets track A^(2^N) in spectral norm."""
    worst_ratio, cases = 0.0, 0
    for N in (1, 2, 3):
        for n in (2, 4):
            for eps in (0.2, 0.05):
                rng = _rng(seed, 7, N, n, int(eps * 100))
                mats = np.stack(
                    [_random_with_norm(rng, n, 0.5) for _ in range(50)])
                wants = []
                for P in mats:
                    for _ in range(N):
                        P = oracles.matmul_naive(P, P)
                    wants.append(P)
                err = _worst_error(build_sqr(N, n, eps, relu_factory), mats, wants)
                worst_ratio = max(worst_ratio, err / eps)
                cases += len(mats)
    return CriterionResult("repeated-squaring-error", worst_ratio <= 1.0,
                           worst_ratio, "spectral error / eps <= 1",
                           "N in {1,2,3}, n in {2,4}, eps in {0.2,0.05}", cases)


def check_neumann_sum_error(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 8: truncated-sum nets track the partial Neumann sums; N=1 exact."""
    counts = _count_criterion(
        [(f"N=1 n={n}", build_neu(1, n, 0.1, relu_factory), (n * n + n, 1, True))
         for n in (2, 4)])
    worst_ratio, cases = 0.0, 0
    for N in (2, 3):
        for n in (2, 4):
            for eps in (0.1, 0.05):
                rng = _rng(seed, 8, N, n, int(eps * 100))
                mats = np.stack(
                    [_random_with_norm(rng, n, 0.5) for _ in range(50)])
                wants = [oracles.neumann_partial(A, 2 ** N) for A in mats]
                err = _worst_error(build_neu(N, n, eps, relu_factory), mats, wants)
                worst_ratio = max(worst_ratio, err / eps)
                cases += len(mats)
    return CriterionResult("neumann-sum-error",
                           worst_ratio <= 1.0 and counts.passed, worst_ratio,
                           "spectral error / eps <= 1; N=1 counts (n^2+n, 1)",
                           counts.detail or
                           "N in {2,3}, n in {2,4}, eps in {0.1,0.05}", cases)


def check_inversion(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criterion 9: inversion nets hit the eps target; counts respect the bounds."""
    delta = 0.5
    one_stage, swept, worst_ratio, cases = [], [], 0.0, 0
    for n in (2, 4, 8):
        spec = InversionSpec(n, 1.0, 1.2, delta)
        one_stage.append((f"one-stage n={n}", build_inv(spec, relu2_factory),
                          inv_count_reference(spec, relu2_factory)))
    for alpha in (1.0, 2.0):
        for eps in (0.1, 0.01):
            for n in (2, 4, 8):
                spec = InversionSpec(n, alpha, eps, delta)
                net = build_inv(spec, relu_factory)
                swept.append((f"alpha={alpha} eps={eps} n={n}", net,
                              inv_count_reference(spec, relu_factory)))
                mats = np.stack([
                    oracles.gen_contraction(n, delta, alpha,
                                            seed * 1000 + 17 * n + s)
                    for s in range(25)])
                wants = [oracles.exact_inverse(A) for A in mats]
                worst_ratio = max(worst_ratio, _worst_error(net, mats, wants) / eps)
                cases += len(mats)
    counts = [_count_criterion(one_stage, agree=lambda net, ref:
                               ref[2] and counts_satisfied(net, ref)),
              _count_criterion(swept)]
    passed = worst_ratio <= 1.0 and all(c.passed for c in counts)
    return CriterionResult("inversion-error-and-counts", passed, worst_ratio,
                           "spectral error / eps <= 1; counts within bounds",
                           "; ".join(c.detail for c in counts if c.detail) or
                           "alpha in {1,2}, eps in {0.1,0.01}, n in {2,4,8}",
                           cases)


SUITES = {
    "gadgets": (check_gadget_errors, check_gadget_size_bounds,
                check_gadget_growth_fit),
    "strassen": (check_weight_count_formula, check_layer_count_formula,
                 check_multiplication_error, check_exact_gadget_equivalence,
                 check_rect_square_bounds, check_growth_properties),
    "inversion": (check_squaring_error, check_neumann_sum_error,
                  check_inversion),
    "identities": (check_neumann_identities, check_norm_domination),
}


def run_suite(name: str, seed: int = DEFAULT_SEED):
    """Run one named suite; returns the list of CriterionResult.  The seed
    must be an integer >= 0."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)}")
    seed = _count("seed", seed, least=0)
    return [fn(seed) for fn in SUITES[name]]
