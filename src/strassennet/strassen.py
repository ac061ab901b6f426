"""Networks that multiply matrices by the recursive seven-product scheme.

``build_str_pow2`` builds the multiplier for 2^k x 2^k operands as one
leaf, a scalar product gadget, wrapped in k levels.  A level puts a split
layer forming the seven operand pairs, seven parallel copies of the network
so far, and a mix layer recombining their products into the four output
quadrants, the layers read from Strassen's tables ``_U``, ``_V``, ``_W``.
The weight and layer counts of the result obey
closed-form expressions (``formula_counts_pow2``) exactly.

Rectangular and general square operands are handled by zero-padding up to
the next power of two and cropping the result (``build_str_rect`` /
``build_str_square``).
"""

import math
from dataclasses import dataclass

from .combinators import concat, parallelize
import numpy as np

from .core import MNN, _count, _glue
from .gadgets import GadgetFactory, GadgetSpec

#: Strassen's scheme as coefficient tables indexed [product r, quadrant q],
#: quadrants row-major (11, 12, 21, 22): product r multiplies
#: sum_q U[r, q] A_q by sum_q V[r, q] B_q, and C_q = sum_r W[r, q] P_r
_U = np.array([[1, 0, 0, 1], [0, 0, 1, 1], [1, 0, 0, 0], [0, 0, 0, 1],
               [1, 1, 0, 0], [-1, 0, 1, 0], [0, 1, 0, -1]])
_V = np.array([[1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, -1], [-1, 0, 1, 0],
               [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]])
_W = np.array([[1, 0, 0, 1], [0, 0, 1, -1], [0, 1, 0, 1], [1, 0, 1, 0],
               [-1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]])


@dataclass(frozen=True)
class RectShape:
    """Operand sizes for the product of an m x n by an n x p matrix."""

    m: int
    n: int
    p: int

    def __post_init__(self):
        for name in "mnp":
            _count(name, getattr(self, name))

    @property
    def gamma(self) -> int:
        return max(self.m, self.n, self.p)

    @property
    def k(self) -> int:
        """Padding exponent: the smallest k with 2^k >= gamma."""
        return int(self.gamma - 1).bit_length()


def build_mix(k: int) -> MNN:
    """Recombination layer: seven stacked child products -> four quadrants,
    one h x h block per nonzero of ``_W``."""
    h = 2 ** (_count("k", k) - 1)
    return _glue((2 * h, 2 * h), (len(_W) * h, h), [
        (q // 2 * h, q % 2 * h, r * h, 0, h, h, _W[r, q])
        for r, q in zip(*np.nonzero(_W))])


def build_split(k: int) -> MNN:
    """Operand-forming layer: (A | B) -> seven stacked operand pairs, one
    h x h block per nonzero of ``_U`` (left) and of ``_V`` (right)."""
    h = 2 ** (_count("k", k) - 1)
    return _glue((len(_W) * h, 2 * h), (2 * h, 4 * h), [
        (r * h, b * h, q // 2 * h, (2 * b + q % 2) * h, h, h, T[r, q])
        for b, T in enumerate((_U, _V)) for r, q in zip(*np.nonzero(T))])


def _leaf_spec(k: int, eps: float, K: float) -> GadgetSpec:
    """The spec of the one leaf of ``build_str_pow2(k, eps, K)``: budget
    eps / 4^k and half-width 2^k K, scaled by exact powers of two.  A depth
    whose budget underflows to 0 or whose half-width overflows float64 is
    refused by ``k``."""
    budget = math.ldexp(eps, -2 * k)
    try:
        if budget != 0.0:
            return GadgetSpec(budget, math.ldexp(K, k))
    except OverflowError:  # 2^k K
        pass
    raise ValueError(
        f"k = {k} levels need the leaf gadget budget {eps:g} / 4^{k} and "
        f"half-width 2^{k} * {K:g}, which underflows to 0 or overflows "
        "float64; use a smaller k")


def build_str_pow2(k: int, eps: float, K: float,
                   factory: GadgetFactory) -> MNN:
    """Multiplication network for 2^k x 2^k operands, input (A | B).

    One leaf gadget at ``_leaf_spec(k, eps, K)``, wrapped in k levels.  Each
    level hands its seven copies a quarter of its error budget (a column of
    ``_W`` sums at most four products) and twice its input range (a row of
    ``_U`` or ``_V`` at most two quadrants).  For |A|, |B| entrywise at most
    K the output matches A B within eps in the max norm.
    """
    if not (eps > 0.0 and K > 0.0):
        raise ValueError("eps and K must be positive")
    k = _count("k", k, least=0)
    net = factory.build(_leaf_spec(k, eps, K))
    if tuple(net.input_shape) != (1, 2) or tuple(net.output_shape) != (1, 1):
        raise ValueError("factory must produce gadgets mapping 1x2 -> 1x1")
    for level in range(1, k + 1):
        net = concat(build_mix(level),
                     concat(parallelize([net] * len(_W)), build_split(level)))
    return net


def formula_counts_pow2(k: int, M_gadget: int, L_gadget: int):
    """Exact (M, L) of the power-of-two network with the given gadget size."""
    k = _count("k", k, least=0)
    M = 7 ** k * (M_gadget + 12) - 12 * 4 ** k
    L = L_gadget + 2 * k
    return M, L


def _build_ext(shape: RectShape) -> MNN:
    """Padding layer for rectangular operands, input (A^T | B).

    Reads the transposed left operand, undoes the transpose, and zero-pads
    both operands to the 2^k x 2^k frame expected by the power-of-two
    multiplier.  Costs n (m + p) weights, one per input entry.
    """
    m, n, p = shape.m, shape.n, shape.p
    side = 2 ** shape.k
    # input (k, l) of A^T is A's entry (l, k): one 1 x 1 block each
    return _glue((side, 2 * side), (n, m + p),
                 [(l, k, k, l, 1, 1, 1.0) for k in range(n) for l in range(m)]
                 + [(0, side, 0, m, n, p, 1.0)])


def _build_ext_star(n: int) -> MNN:
    """Padding layer for square operands, input (A | B); 2 n^2 weights."""
    side = 2 ** RectShape(n, n, n).k
    return _glue((side, 2 * side), (n, 2 * n),
                 [(0, 0, 0, 0, n, n, 1.0), (0, side, 0, n, n, n, 1.0)])


def _build_shr(shape: RectShape) -> MNN:
    """Cropping layer: keeps the top-left m x p block; m p weights."""
    side = 2 ** shape.k
    return _glue((shape.m, shape.p), (side, side),
                 [(0, 0, 0, 0, shape.m, shape.p, 1.0)])


def build_str_rect(shape: RectShape, eps: float, K: float,
                   factory: GadgetFactory) -> MNN:
    """Multiplier for m x n by n x p operands, input (A^T | B), output m x p."""
    inner = build_str_pow2(shape.k, eps, K, factory)
    return concat(_build_shr(shape), concat(inner, _build_ext(shape)))


def build_str_square(n: int, eps: float, K: float,
                     factory: GadgetFactory) -> MNN:
    """Multiplier for n x n operands, input (A | B) untransposed."""
    n = _count("n", n)
    shape = RectShape(n, n, n)
    inner = build_str_pow2(shape.k, eps, K, factory)
    return concat(_build_shr(shape), concat(inner, _build_ext_star(n)))


def bound_counts_rect(shape: RectShape, M_gadget: int, L_gadget: int):
    """(M, L) upper bounds for the padded rectangular multiplier.

    The gadget arguments are the measured size of a gadget built at budget
    eps / (4 gamma^2) and half-width 2 gamma K, which dominates every leaf
    actually used.
    """
    gamma = shape.gamma
    M = 7.0 * gamma ** math.log2(7.0) * (M_gadget + 12) - 9.0 * gamma ** 2
    L = L_gadget + 2.0 * (math.log2(gamma) + 2.0)
    return M, L


def bound_gadget_spec_rect(shape: RectShape, eps: float, K: float) -> GadgetSpec:
    """The gadget spec at which the rectangular-bound formulas are evaluated."""
    gamma = shape.gamma
    return GadgetSpec(eps / (4.0 * gamma * gamma), 2.0 * gamma * K)


def pow2_count_reference(k: int, eps: float, K: float, factory: GadgetFactory):
    """Reference counts ``(M, L, exact=True)`` for ``build_str_pow2(k, eps, K)``.

    The closed form is evaluated at ``_leaf_spec(k, eps, K)``, the builder's leaf.
    """
    k = _count("k", k, least=0)
    leaf = factory.build(_leaf_spec(k, eps, K))
    M, L = formula_counts_pow2(k, leaf.num_weights, leaf.num_layers)
    return M, L, True


def rect_count_reference(shape: RectShape, eps: float, K: float,
                         factory: GadgetFactory):
    """Reference counts ``(M, L, exact=False)`` for ``build_str_rect`` and
    ``build_str_square`` (the square case is ``RectShape(n, n, n)``)."""
    gadget = factory.build(bound_gadget_spec_rect(shape, eps, K))
    M, L = bound_counts_rect(shape, gadget.num_weights, gadget.num_layers)
    return M, L, False
