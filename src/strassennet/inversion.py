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
at most ``epsilon``, and the leaf gadget budget Sigma that the count bound
of ``inv_count_reference`` is evaluated at.
"""

import math
from dataclasses import dataclass

import numpy as np

from .combinators import concat, parallelize
from .core import MNN, Layer, SparseLinearMap, _count, _glue, scale_output
from .gadgets import GadgetFactory, GadgetSpec
from .strassen import build_str_square

LOG2_7 = math.log2(7.0)


@dataclass(frozen=True)
class InversionSpec:
    """Problem data for an inversion network."""

    n: int
    alpha: float
    epsilon: float
    delta: float

    def __post_init__(self):
        _count("n", self.n)
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class NeumannDepth:
    """Stage count and leaf gadget budget for one inversion problem."""

    N: int
    Sigma: float

    def __post_init__(self):
        _count("N", self.N)
        if not self.Sigma > 0.0:
            raise ValueError("Sigma must be positive")


def compute_N(eps: float, delta: float) -> int:
    """Doubling stages needed so the Neumann tail is within eps.

    Smallest N >= 1 with delta^(2^N) / (1 - delta) <= eps; clamps to 1 when
    eps (1 - delta) >= 1, where no tail control is needed.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    target = eps * (1.0 - delta)
    if target >= 1.0:
        return 1
    ratio = math.log2(target) / math.log2(delta)
    return max(math.ceil(math.log2(ratio)), 1)


def _depth_underflow(N: int, n: int, eps: float) -> ValueError:
    return ValueError(
        f"N = {N} doubling stages need the leaf gadget budget "
        f"2^-(2^N) * {eps:g} / (8 * {n}^3), which underflows to 0 in "
        "float64; use a larger epsilon or a smaller delta")


def _leaf_budget(N: int, n: int, eps: float) -> float:
    """Leaf gadget budget 2^-(2^N) eps / (8 n^3) of the Neumann-sum bound."""
    sigma = 2.0 ** (-(2 ** N)) * eps / (8.0 * n ** 3)
    if sigma == 0.0:
        raise _depth_underflow(N, n, eps)
    return sigma


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
    maps = [select] + [carry] * (L - 1)
    return MNN([Layer(lm) for lm in maps[:-1]]
               + [Layer(maps[-1], np.eye(n) / 2.0)])


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


def _square_once(n: int, eps: float, factory: GadgetFactory) -> MNN:
    """The multiplication network used by all squaring stages: budget eps/4n."""
    return build_str_square(n, eps / (4.0 * n), 1.0, factory)


def build_sqr(N: int, n: int, eps: float, factory: GadgetFactory) -> MNN:
    """N-fold repeated squaring: approximates A^(2^N) for ||A||_2 <= 1/2.

    Each stage duplicates its input to (A | A) and multiplies; the spectral
    error after N stages stays within eps provided eps < 1/4.
    """
    N, n = _count("N", N), _count("n", n)
    if not 0.0 < eps < 0.25:
        raise ValueError("eps must lie in (0, 1/4)")
    stage = concat(_square_once(n, eps, factory), _build_dup_simple(n))
    net = stage
    for _ in range(N - 1):
        net = concat(net, stage)
    return net


def _aux_chain(i: int, n: int, square: MNN) -> MNN:
    """Stage i of the power-and-product chain, output stacked 2n x n.

    The top block carries the repeated square of A/2 (identical, bit for
    bit, to ``build_sqr(i, ...)`` evaluated at A/2 when ``square`` is its
    multiplier); the bottom block carries the running product of the
    rescaled Neumann factors.
    """
    aux = concat(
        parallelize([square, build_fill(n, square.num_layers)]),
        _build_dup_half(n),
    )
    for stage in range(2, i + 1):
        aux = concat(
            parallelize([square, square]),
            concat(_build_mix_aux(n, stage - 1), aux),
        )
    return aux


def build_neu(N: int, n: int, eps: float, factory: GadgetFactory) -> MNN:
    """Truncated Neumann sum: approximates sum_{k<2^N} A^k for ||A||_2 <= 1.

    N = 1 is the exact single layer A + I (n^2 + n weights).  For N >= 2 the
    auxiliary chain runs at an internally shrunk budget, a flip layer forms
    the final factor pair, one more multiplication network combines them,
    and the output layer restores the 2^(2^N - 1) rescaling.
    """
    N, n = _count("N", N), _count("n", n)
    if N == 1:
        # labelled so that build_inv's N = 1 network keeps the factory's label
        plus_eye = _glue((n, n), (n, n), [(0, 0, 0, 0, n, n, 1.0)], np.eye(n))
        return MNN(plus_eye.layers, factory.activation_name)
    if not 0.0 < eps < 0.125:
        raise ValueError("eps must lie in (0, 1/8) when N >= 2")
    eps_inner = 2.0 ** (1 - 2 ** N) * eps
    if eps_inner == 0.0:
        # the squaring networks' leaf budgets are smaller still
        raise _depth_underflow(N, n, eps)
    square = _square_once(n, eps_inner, factory)
    aux = _aux_chain(N - 1, n, square)
    net = concat(square, concat(_build_flip(n, N - 1), aux))
    return scale_output(net, 2.0 ** (2 ** N - 1))


def build_in(n: int, alpha: float) -> MNN:
    """One layer mapping A to I - alpha A; n^2 + n weights."""
    n = _count("n", n)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return _glue((n, n), (n, n), [(0, 0, 0, 0, n, n, -alpha)], np.eye(n))


def _neu_plan(spec: InversionSpec):
    """Stage count N = compute_N(eps / 2 alpha, delta) of ``build_inv(spec)``
    and the Neumann-sum error budget min(eps / 2 alpha, 1/8)."""
    ratio = spec.epsilon / (2.0 * spec.alpha)
    return compute_N(ratio, spec.delta), min(ratio, 0.125)


def neumann_depth(spec: InversionSpec) -> NeumannDepth:
    """Stage count N of ``build_inv(spec)`` and the leaf budget Sigma that
    ``inv_count_reference`` evaluates its bound at (used when N >= 2)."""
    N, budget = _neu_plan(spec)
    return NeumannDepth(N, _leaf_budget(N, spec.n, budget))


def build_inv(spec: InversionSpec, factory: GadgetFactory) -> MNN:
    """Inversion network: ||A^-1 - output||_2 <= eps on the contraction set.

    Applies A -> I - alpha A, feeds the result to the Neumann-sum network
    built at budget min(eps / 2 alpha, 1/8), and scales the output by alpha.
    When one doubling stage suffices the result is exact with
    2 (n^2 + n) weights in 2 layers.
    """
    N, eps_neu = _neu_plan(spec)
    if eps_neu == 0.125:
        # the Neumann builder requires a strictly smaller budget; one
        # representable step below is behaviorally identical
        eps_neu = float(np.nextafter(0.125, 0.0))
    neu = build_neu(N, spec.n, eps_neu, factory)
    return concat(scale_output(neu, spec.alpha), build_in(spec.n, spec.alpha))


def inv_count_reference(spec: InversionSpec, factory: GadgetFactory):
    """Reference counts for an inversion network.

    Returns ``(M_ref, L_ref, exact)``: exact integer counts when a single
    doubling stage suffices, otherwise the Neumann-sum bounds of
    ``neu_bound_counts`` at ``neumann_depth(spec)`` plus the n^2 + n weights
    of the input layer ``build_in``.
    """
    n = spec.n
    N, budget = _neu_plan(spec)
    if N == 1:
        return 2 * (n * n + n), 2, True
    M, L = neu_bound_counts(N, n, budget, factory)
    return M + n * n + n, L, False


def series_length_estimate(eps: float, delta: float) -> float:
    """Number of plain Neumann terms that would hit the same target.

    Report-only context for the doubling construction: the truncated series
    needs about log2(eps (1 - delta) / 2) / log2(delta) terms, against the
    2^N terms reached here with N multiplications.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return math.log2(eps * (1.0 - delta) / 2.0) / math.log2(delta)


def neu_bound_counts(N: int, n: int, eps: float, factory: GadgetFactory):
    """(M, L) upper bounds for the Neumann-sum network, N >= 2."""
    N, n = _count("N", N, least=2), _count("n", n)
    gadget = factory.build(GadgetSpec(_leaf_budget(N, n, eps), 2.0 * n))
    Mg, Lg = gadget.num_weights, gadget.num_layers
    M = (14.0 * n ** LOG2_7 * (N - 1) * (Mg + 12)
         + n * n * (Lg - 14.0 * N + 19.0 + 2.0 * math.log2(n))
         + n * N)
    L = N * (2.0 * math.log2(n) + 5.0 + Lg)
    return M, L
