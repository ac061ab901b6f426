"""Product gadgets: small networks approximating scalar multiplication.

A gadget takes the 1x2 input ``(x | y)`` and returns a 1x1 approximation of
``x*y``, accurate within ``epsilon`` whenever ``|x|, |y| <= K``.  Two
factories ship here:

* ``relu2``: with rho(t) = ReLU(t)^2 the identity rho(t) + rho(-t) = t^2
  makes the polarization 4xy = (x+y)^2 - (x-y)^2 exact -- a fixed network
  with 12 weights in 2 layers, for every (epsilon, K).
* ``relu``: squaring is approximated on [0, 1] by the telescoped sawtooth
  construction; the two squares of the polarization identity share the same
  tower depth m, chosen from a closed-form error budget.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (MNN, ActivationMask, Layer, SparseLinearMap,
                   realize_flat)


@dataclass(frozen=True)
class GadgetSpec:
    """Error budget and input box half-width for a product gadget."""

    epsilon: float
    K: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if not self.K > 0.0:
            raise ValueError("K must be positive")


@dataclass(frozen=True)
class GadgetFactory:
    """A recipe producing a product gadget for any spec."""

    activation_name: str
    build: Callable[[GadgetSpec], MNN]


def _row_map(coeffs) -> SparseLinearMap:
    """The map between ``1 x w`` rows whose output column j takes
    ``coeffs[j][l]`` times input column l; zero coefficients are not stored."""
    C = np.array(coeffs, dtype=float)
    j, l = np.nonzero(C)
    one = np.ones_like(j)
    return SparseLinearMap((1, len(C)), (1, C.shape[1]),
                           np.stack([one, j + 1, one, l + 1], axis=1), C[j, l])


def build_product_relu2() -> MNN:
    """The exact product network over rho(t) = ReLU(t)^2.

    First layer emits the four pre-activations +-(x+y), +-(x-y); the second
    combines their squares as ((x+y)^2 - (x-y)^2) / 4 = xy.  12 weights,
    2 layers, no approximation error beyond floating-point rounding.
    """
    layer1 = Layer(_row_map([[1, 1], [-1, -1], [1, -1], [-1, 1]]),
                   mask=ActivationMask.all_rho((1, 4)))
    layer2 = Layer(_row_map([[0.25, 0.25, -0.25, -0.25]]))
    return MNN([layer1, layer2], "relu2")


def _sawtooth_depth(epsilon: float, K: float) -> int:
    """Number of sawtooth stages needed for the two-sided error budget.

    With m stages the piecewise-linear square approximator is within
    2^(-2m-2) of t^2 on [0, 1]; after undoing the input rescaling by 2K the
    end-to-end error is at most K^2 * 2^(-2m-1), and m is the smallest
    integer making that <= epsilon.  The m = 0 degenerate tower (|t| itself)
    covers epsilon >= K^2/2.  Budgets whose K^2/epsilon or stage scale 4^m
    overflow float64 are refused.
    """
    if epsilon >= K * K / 2.0:
        return 0
    ratio = K * K / epsilon
    m = math.ceil(0.5 * math.log2(ratio) - 0.5) if ratio < math.inf else math.inf
    if m > 511:  # 4.0 ** m overflows
        raise ValueError(
            f"a relu product gadget at eps = {epsilon:g}, K = {K:g} needs "
            "the sawtooth scale 4^m ~ K^2/eps, which overflows float64; "
            "use a larger eps or a smaller K")
    return max(1, m)


def build_product_relu(spec: GadgetSpec) -> MNN:
    """A ReLU product gadget meeting the requested error budget.

    Inputs are rescaled to u = (x+y)/2K and v = (x-y)/2K in [-1, 1]; the
    polarization identity then needs u^2 - v^2, and each square is
    approximated through |t| = ReLU(t) + ReLU(-t) followed by m sawtooth
    stages.  Both towers run in the same layers and share the telescoping
    accumulator, so the cost is 15m + 12 weights in m + 2 layers.  When
    epsilon >= K^2 the constant-zero network is already within budget.
    """
    eps, K = spec.epsilon, spec.K
    if eps >= K * K:
        return MNN([Layer(_row_map([[0, 0]]))], "relu")
    m = _sawtooth_depth(eps, K)
    c = 1.0 / (2.0 * K)
    K2 = K * K
    layers = [Layer(_row_map([[c, c], [-c, -c], [c, -c], [-c, c]]),
                    mask=ActivationMask.all_rho((1, 4)))]
    if m == 0:
        layers.append(Layer(_row_map([[K2, K2, -K2, -K2]])))
        return MNN(layers, "relu")

    # state columns: (T, Q, T', Q', C); after stage s the linear combination
    # 2T - 4Q equals the s-th sawtooth iterate of |u| (same for the v tower)
    # and C carries the telescoped partial sum of the two towers' difference.
    half_bias = np.array([[0.0, -0.5, 0.0, -0.5, 0.0]])
    stage_mask = ActivationMask.from_positions((1, 5), [(1, 2), (1, 4)])
    stage1 = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1],
              [1, 1, -1, -1]]
    layers.append(Layer(_row_map(stage1), half_bias, stage_mask))
    for s in range(2, m + 1):
        g = 4.0 ** (s - 1)
        stage = [[2, -4, 0, 0, 0], [2, -4, 0, 0, 0], [0, 0, 2, -4, 0],
                 [0, 0, 2, -4, 0], [-2 / g, 4 / g, 2 / g, -4 / g, 1]]
        layers.append(Layer(_row_map(stage), half_bias, stage_mask))
    g = 4.0 ** m
    final = [[-2 * K2 / g, 4 * K2 / g, 2 * K2 / g, -4 * K2 / g, K2]]
    layers.append(Layer(_row_map(final)))
    return MNN(layers, "relu")


relu2_factory = GadgetFactory("relu2", lambda spec: build_product_relu2())
relu_factory = GadgetFactory("relu", build_product_relu)

FACTORIES = {"relu2": relu2_factory, "relu": relu_factory}


def relu_gadget_bounds(epsilon: float, K: float):
    """Closed-form (M, L) upper bounds for the ReLU gadget, by budget branch,
    for the budgets and half-widths that ``GadgetSpec`` accepts."""
    GadgetSpec(epsilon, K)
    if epsilon >= K * K:
        return 0.0, 1.0
    if epsilon >= K * K / 2.0:
        return 12.0, 2.0
    logK = math.log2(K)
    log_inv_eps = math.log2(1.0 / epsilon)
    return (30.0 * logK + 15.0 * log_inv_eps + 25.0,
            logK + 0.5 * log_inv_eps + 2.5)


def gadget_count_reference(spec: GadgetSpec, factory: GadgetFactory):
    """Reference counts ``(M, L, exact)`` for ``factory.build(spec)``.

    The relu2 gadget is exactly (12, 2); the relu gadget sits under
    ``relu_gadget_bounds``.
    """
    if factory.activation_name == "relu2":
        return 12, 2, True
    M, L = relu_gadget_bounds(spec.epsilon, spec.K)
    return M, L, False


def verify_gadget(net: MNN, rho, spec: GadgetSpec, grid_step: float) -> float:
    """Max |xy - R(net)(x, y)| over the uniform grid on [-K, K]^2."""
    if not 0.0 < grid_step <= spec.K / 50.0:
        raise ValueError(f"grid_step must lie in (0, K/50], got {grid_step!r}")
    steps = round(2.0 * spec.K / grid_step)
    axis = np.linspace(-spec.K, spec.K, steps + 1)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    xs, ys = xs.reshape(-1), ys.reshape(-1)
    out = realize_flat(net, rho, np.stack([xs, ys]))
    return float(np.max(np.abs(xs * ys - out[0])))
