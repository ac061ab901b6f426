"""Build Strassen multiplication networks and watch the counts.

Networks built from the exact relu2 gadget multiply matrices to machine
precision; the relu gadget trades size for an error budget you pick.
"""

import numpy as np

from strassennet import (GadgetSpec, RectShape, bound_counts_rect,
                         bound_gadget_spec_rect, build_str_pow2,
                         build_str_rect, formula_counts_pow2, realize,
                         relu2_factory, relu_factory)
from strassennet.oracles import matmul_naive

rng = np.random.default_rng(7)

print("== power-of-two sides, exact gadget ==")
for k in range(4):
    side = 2 ** k
    net = build_str_pow2(k, eps=0.5, K=1.0, factory=relu2_factory)
    leaf = relu2_factory.build(GadgetSpec(0.5 / 4 ** k, 2 ** k))
    fM, fL = formula_counts_pow2(k, leaf.num_weights, leaf.num_layers)
    A = rng.uniform(-1, 1, (side, side))
    B = rng.uniform(-1, 1, (side, side))
    out = realize(net, np.hstack([A, B]))
    err = np.max(np.abs(out - A @ B))
    print(f"  {side}x{side}: M={net.num_weights} (formula {fM}), "
          f"L={net.num_layers} (formula {fL}), max error {err:.2e}")

# the seven-fold recursion behind the counts: M(k+1) + 12*4^(k+1)
# is exactly 7 * (M(k) + 12*4^k)
print("\n== recursion identity ==")
sizes = [build_str_pow2(k, 0.01, 1.0, relu2_factory).num_weights
         for k in range(5)]
for k in range(4):
    lhs = sizes[k + 1] + 12 * 4 ** (k + 1)
    rhs = 7 * (sizes[k] + 12 * 4 ** k)
    print(f"  k={k}: {lhs} == {rhs}  ({lhs == rhs})")

print("\n== rectangular shapes ==")
# rectangular products ride on the next power-of-two square network; the
# input is stacked as (A^T | B)
for (m, n, p) in [(2, 3, 2), (3, 3, 3), (5, 6, 4)]:
    shape = RectShape(m, n, p)
    net = build_str_rect(shape, eps=0.01, K=1.0, factory=relu2_factory)
    gadget = relu2_factory.build(bound_gadget_spec_rect(shape, 0.01, 1.0))
    bM, bL = bound_counts_rect(shape, gadget.num_weights, gadget.num_layers)
    A = rng.uniform(-1, 1, (m, n))
    B = rng.uniform(-1, 1, (n, p))
    out = realize(net, np.hstack([A.T, B]))
    err = np.max(np.abs(out - matmul_naive(A, B)))
    print(f"  ({m}x{n})({n}x{p}): M={net.num_weights} <= {bM:.0f}, "
          f"L={net.num_layers} <= {bL:.1f}, max error {err:.2e}")

print("\n== relu gadget: error budget is a real budget ==")
A = rng.uniform(-1, 1, (4, 4))
B = rng.uniform(-1, 1, (4, 4))
for eps in (1e-1, 1e-3, 1e-6):
    net = build_str_pow2(2, eps, 1.0, relu_factory)
    err = np.max(np.abs(realize(net, np.hstack([A, B])) - A @ B))
    print(f"  eps={eps:g}: M={net.num_weights}, measured error {err:.2e}")
