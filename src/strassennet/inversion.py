"""Networks that invert matrices via a rescaled truncated Neumann series.

For ``||I - alpha A||_2 <= delta < 1`` the inverse is ``alpha`` times the
geometric series in ``B = I - alpha A``.  Truncating the series at ``2^N``
terms and using the doubling identity

    sum_{k=0}^{2^N - 1} B^k  =  prod_{k=0}^{N-1} (B^{2^k} + I)

reduces the work to O(N) matrix products, each delegated to a Strassen
multiplication network.  The two factors of each stage are produced by an
auxiliary chain that squares a running power of B/2 alongside the running
product (rescaling by halves keeps every intermediate spectrally small; the
lost factor ``2^(2^N - 1)`` is restored in the output layer).

``neumann_depth`` gives the stage count N that makes the end-to-end error
at most ``epsilon``, the Neumann-sum budget, and the leaf gadget budget
Sigma that the count bound of ``inv_count_reference`` is evaluated at.
Every budget, ``alpha`` and ``delta`` must be a finite real > 0 (``delta``
< 1, ``build_sqr``'s budget < 1/4, ``build_neu``'s < 1/8), else it is
refused by name (``core._positive``), and so is a budget derived from them
that rounds to 0 or takes a size with no float64 (``core._derived``).
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .combinators import concat, parallelize
from .core import (MNN, Layer, SparseLinearMap, _count, _derived, _glue,
                   _positive, _set, scale_output)
from .gadgets import GadgetFactory, GadgetSpec
from .strassen import build_str_square

LOG2_7 = math.log2(7.0)
_BELOW_EIGHTH = math.nextafter(0.125, 0.0)  # acts as 1/8 in build_neu


@dataclass(frozen=True)
class InversionSpec:
    """Problem data for an inversion network."""

    n: int
    alpha: float
    epsilon: float
    delta: float

    def __post_init__(self):
        _count("n", self.n)
        _set(self, "alpha", _positive("alpha", self.alpha))
        _set(self, "epsilon", _positive("epsilon", self.epsilon))
        _set(self, "delta", _positive("delta", self.delta, below=1.0))


@dataclass(frozen=True)
class NeumannDepth:
    """Stage count, leaf and Neumann-sum budgets of one inversion problem."""

    N: int
    Sigma: float
    eps_neu: float

    def __post_init__(self):
        _count("N", self.N)
        _set(self, "Sigma", _positive("Sigma", self.Sigma))
        _set(self, "eps_neu", _positive("eps_neu", self.eps_neu))


def compute_N(eps: float, delta: float) -> int:
    """Doubling stages needed so the Neumann tail is within eps.

    Smallest N >= 1 with delta^(2^N) / (1 - delta) <= eps; clamps to 1 when
    eps (1 - delta) >= 1, where no tail control is needed.
    """
    eps, delta = _positive("eps", eps), _positive("delta", delta, below=1.0)
    target = _derived(lambda: eps * (1.0 - delta),
                      f"eps * (1 - delta) = {eps!r} * (1 - {delta!r})",
                      "use a larger eps or a smaller delta")
    if target >= 1.0:
        return 1
    ratio = math.log2(target) / math.log2(delta)
    return max(math.ceil(math.log2(ratio)), 1)


def _leaf_budget(N: int, n: int, eps: float, advice: str) -> float:
    """Leaf gadget budget 2^-(2^N) eps / (8 n^3) of the Neumann-sum bound,
    in floats; 0 for every eps from N = 12 on, where 2^N is not formed.
    A budget that rounds to 0 is refused with the caller's ``advice``."""
    return _derived(lambda: math.ldexp(eps, -2 ** min(N, 12))
                    / (8.0 * n * n * n),
                    f"N = {N} doubling stages: the leaf gadget budget "
                    f"2^-(2^N) * {eps:g} / (8 * {n}^3)", advice)


def _build_dup_simple(n: int) -> MNN:
    """One layer mapping A to (A | A); 2 n^2 weights."""
    return _glue((n, 2 * n), (n, n),
                 [(0, 0, 0, 0, n, n, 1.0), (0, n, 0, 0, n, n, 1.0)])


def _build_dup_half(n: int) -> MNN:
    """One layer mapping A to (A/2 | A/2 ; A/2 | 0); 3 n^2 weights."""
    return _glue((2 * n, 2 * n), (n, n), [(0, 0, 0, 0, n, n, 0.5),
                                          (0, n, 0, 0, n, n, 0.5),
                                          (n, 0, 0, 0, n, n, 0.5)])


def build_fill(n: int, L: int) -> MNN:
    """L layers mapping (A | B) to A + I/2; n^2 L + n weights.

    The first layer selects the left operand, the remaining layers carry it
    unchanged, and the final layer adds the constant I/2.  The artificial
    depth exists so the network can be parallelized with a deeper one.
    """
    n, L = _count("n", n), _count("L", L)
    block = [(0, 0, 0, 0, n, n, 1.0)]
    select = SparseLinearMap.from_blocks((n, n), (n, 2 * n), block)
    carry = SparseLinearMap.from_blocks((n, n), (n, n), block)
    half = np.eye(n) / 2.0
    if L == 1:
        return MNN([Layer(select, half)])
    # one read-only carry layer, repeated, as in identity_mnn
    return MNN([Layer(select)] + [Layer(carry)] * (L - 2)
               + [Layer(carry, half)])


def _build_flip(n: int, k: int) -> MNN:
    """One layer mapping (A ; B) to (A + 2^(-2^k) I | B); 2 n^2 + n weights."""
    bias = np.zeros((n, 2 * n))
    bias[:n, :n] = 2.0 ** (-(2 ** k)) * np.eye(n)
    return _glue((n, 2 * n), (2 * n, n),
                 [(0, 0, 0, 0, n, n, 1.0), (0, n, n, 0, n, n, 1.0)], bias)


def _build_mix_aux(n: int, k: int) -> MNN:
    """One layer mapping (A ; B) to (A | A ; A + 2^(-2^k) I | B); 4 n^2 + n."""
    bias = np.zeros((2 * n, 2 * n))
    bias[n:, :n] = 2.0 ** (-(2 ** k)) * np.eye(n)
    return _glue((2 * n, 2 * n), (2 * n, n), [(0, 0, 0, 0, n, n, 1.0),
                                              (0, n, 0, 0, n, n, 1.0),
                                              (n, 0, 0, 0, n, n, 1.0),
                                              (n, n, n, 0, n, n, 1.0)], bias)


def build_sqr(N: int, n: int, eps: float, factory: GadgetFactory) -> MNN:
    """N-fold repeated squaring: approximates A^(2^N) for ||A||_2 <= 1/2.

    Each stage duplicates its input to (A | A) and multiplies; the spectral
    error after N stages stays within eps provided eps < 1/4.
    """
    N, n = _count("N", N), _count("n", n)
    eps = _positive("eps", eps, below=0.25)
    budget = _derived(lambda: eps / (4.0 * n), f"the squaring multiplier "
                      f"budget {eps!r} / (4 * {n})",
                      "use a larger eps or a smaller n")
    stage = concat(build_str_square(n, budget, 1.0, factory),
                   _build_dup_simple(n))
    net = stage
    for _ in range(N - 1):
        net = concat(net, stage)
    return net


def _aux_chain(i: int, n: int, square: MNN) -> MNN:
    """Stage i of the power-and-product chain, output stacked 2n x n.

    The top block carries the repeated square of A/2 (identical, bit for
    bit, to ``build_sqr(i, ...)`` evaluated at A/2 when ``square`` is its
    multiplier); the bottom block carries the running product of the
    rescaled Neumann factors.  Every later stage reuses one pair of
    squares, built once: layers are read-only, so stages may share them.
    """
    aux = concat(
        parallelize([square, build_fill(n, square.num_layers)]),
        _build_dup_half(n),
    )
    pair = parallelize([square, square]) if i >= 2 else None
    for stage in range(2, i + 1):
        aux = concat(pair, concat(_build_mix_aux(n, stage - 1), aux))
    return aux


def build_neu(N: int, n: int, eps: float, factory: GadgetFactory) -> MNN:
    """Truncated Neumann sum: approximates sum_{k<2^N} A^k for ||A||_2 <= 1.

    eps must lie in (0, 1/8) for every N.  N = 1 is the exact single layer
    A + I (n^2 + n weights).  For N >= 2 the auxiliary chain runs at an
    internally shrunk budget, a flip layer forms the final factor pair, one
    more multiplication network combines them, and the output layer
    restores the 2^(2^N - 1) rescaling.  The shrunk budget is 0 from N = 12
    on, where 2^N is not formed (see ``_leaf_budget``).
    """
    N, n = _count("N", N), _count("n", n)
    eps = _positive("eps", eps, below=0.125)
    if N == 1:
        # labelled so that build_inv's N = 1 network keeps the factory's label
        plus_eye = _glue((n, n), (n, n), [(0, 0, 0, 0, n, n, 1.0)], np.eye(n))
        return MNN(plus_eye.layers, factory.activation_name)
    budget = _derived(lambda: math.ldexp(eps, 1 - 2 ** min(N, 12))
                      / (4.0 * n), f"the squaring multiplier budget 2^(1 - "
                      f"2^{N}) * {eps!r} / (4 * {n})",
                      "use a larger eps or a smaller N or n")
    square = build_str_square(n, budget, 1.0, factory)
    aux = _aux_chain(N - 1, n, square)
    net = concat(square, concat(_build_flip(n, N - 1), aux))
    return scale_output(net, 2.0 ** (2 ** N - 1))


def build_in(n: int, alpha: float) -> MNN:
    """One layer mapping A to I - alpha A; n^2 + n weights."""
    n = _count("n", n)
    alpha = _positive("alpha", alpha)
    return _glue((n, n), (n, n), [(0, 0, 0, 0, n, n, -alpha)], np.eye(n))


def neumann_depth(spec: InversionSpec) -> NeumannDepth:
    """The budgets ``build_inv(spec)``, its count reference and the build
    report read: N = compute_N(eps / 2 alpha, delta), the bound's leaf budget
    Sigma (used when N >= 2) and the Neumann-sum budget min(eps / 2 alpha,
    1/8).  An overflowing eps / 2 alpha is read as the largest float."""
    ratio = min(spec.epsilon / (2.0 * spec.alpha), sys.float_info.max)
    _derived(lambda: ratio * (1.0 - spec.delta),
             f"epsilon / (2 alpha) * (1 - delta) = {spec.epsilon!r} / "
             f"(2 * {spec.alpha!r}) * (1 - {spec.delta!r})",
             "use a larger epsilon or a smaller alpha or delta")
    N, eps_neu = compute_N(ratio, spec.delta), min(ratio, 0.125)
    Sigma = _leaf_budget(N, spec.n, eps_neu,
                         "use a larger epsilon or a smaller delta or n")
    return NeumannDepth(N, Sigma, eps_neu)


def build_inv(spec: InversionSpec, factory: GadgetFactory) -> MNN:
    """Inversion network: ||A^-1 - output||_2 <= eps on the contraction set.

    Applies A -> I - alpha A, feeds the result to the Neumann-sum network
    built at budget min(eps / 2 alpha, 1/8), and scales the output by alpha.
    When one doubling stage suffices the result is exact with
    2 (n^2 + n) weights in 2 layers.
    """
    depth = neumann_depth(spec)
    neu = build_neu(depth.N, spec.n, min(depth.eps_neu, _BELOW_EIGHTH),
                    factory)
    try:
        neu = scale_output(neu, spec.alpha)
    except ValueError:  # alpha times a last-layer weight rounds to 0 or inf
        raise ValueError(f"alpha = {spec.alpha!r} scales a last-layer weight "
                         "to 0 or inf; use an alpha nearer 1") from None
    return concat(neu, build_in(spec.n, spec.alpha))


def inv_count_reference(spec: InversionSpec, factory: GadgetFactory):
    """Reference counts for an inversion network.

    Returns ``(M_ref, L_ref, exact)``: exact integer counts when a single
    doubling stage suffices, otherwise the Neumann-sum bounds of
    ``neu_bound_counts`` at ``neumann_depth(spec)`` plus the n^2 + n weights
    of the input layer ``build_in``.
    """
    n, depth = spec.n, neumann_depth(spec)
    if depth.N == 1:
        return 2 * (n * n + n), 2, True
    M, L = neu_bound_counts(depth.N, n, depth.eps_neu, factory)
    return M + n * n + n, L, False


def series_length_estimate(eps: float, delta: float) -> float:
    """Number of plain Neumann terms that would hit the same target.

    Report-only context for the doubling construction: the truncated series
    needs about log2(eps (1 - delta) / 2) / log2(delta) terms, against the
    2^N terms reached here with N multiplications.
    """
    eps, delta = _positive("eps", eps), _positive("delta", delta, below=1.0)
    target = _derived(lambda: eps * (1.0 - delta) / 2.0,
                      f"eps * (1 - delta) / 2 = {eps!r} * (1 - {delta!r}) / 2",
                      "use a larger eps or a smaller delta")
    return math.log2(target) / math.log2(delta)


def neu_bound_counts(N: int, n: int, eps: float, factory: GadgetFactory):
    """(M, L) upper bounds for the Neumann-sum network, N >= 2."""
    N, n = _count("N", N, least=2), _count("n", n)
    eps = _positive("eps", eps)
    Sigma = _leaf_budget(N, n, eps, "use a larger eps or a smaller N or n")
    gadget = factory.build(GadgetSpec(Sigma, 2.0 * n))
    Mg, Lg = gadget.num_weights, gadget.num_layers
    M = (14.0 * n ** LOG2_7 * (N - 1) * (Mg + 12)
         + n * n * (Lg - 14.0 * N + 19.0 + 2.0 * math.log2(n))
         + n * N)
    L = N * (2.0 * math.log2(n) + 5.0 + Lg)
    return M, L
