"""The scalar product gadgets at the leaves of every multiplication network.

Both gadgets map the 1x2 input (x | y) to an approximation of x*y.  The
relu2 gadget is exact in 12 weights via the polarization identity
x*y = ((x+y)^2 - (x-y)^2) / 4.  The relu gadget approximates t^2 with a
telescoped piecewise-linear sawtooth, so its size grows as the budget
shrinks -- linearly in log2(1/eps).
"""

import numpy as np

from strassennet import (GadgetSpec, realize, relu2_factory, relu_factory,
                         relu_gadget_bounds, verify_gadget)

print("== relu2: exact and spec-independent ==")
for eps, K in [(0.5, 1.0), (1e-9, 100.0)]:
    g = relu2_factory.build(GadgetSpec(eps, K))
    x, y = 0.3 * K, -0.8 * K
    out = realize(g, np.array([[x, y]]))[0, 0]
    print(f"  eps={eps:g} K={K:g}: M={g.num_weights} L={g.num_layers} "
          f"gadget({x:g},{y:g})={out:.6g} (true {x * y:.6g})")

print("\n== relu: size buys accuracy ==")
K = 1.0
for e in range(1, 13, 2):
    eps = 2.0 ** -e
    g = relu_factory.build(GadgetSpec(eps, K))
    worst = verify_gadget(g, GadgetSpec(eps, K))
    bM, bL = relu_gadget_bounds(eps, K)
    print(f"  eps=2^-{e:<2d} M={g.num_weights:3d} (bound {bM:6.1f})  "
          f"L={g.num_layers:2d} (bound {bL:4.1f})  worst error on the "
          f"grids {worst:.2e}")

# oversized budgets collapse the gadget: eps >= K^2 needs no weights at
# all (zero is close enough), eps >= K^2/2 needs only the exact backbone
print("\n== degenerate budgets ==")
for eps in (2.0, 0.7):
    g = relu_factory.build(GadgetSpec(eps, 1.0))
    print(f"  eps={eps:g} K=1: M={g.num_weights} L={g.num_layers}")

print("\n== the sawtooth at work ==")
# the relu gadget squares (x+y)/2K and (x-y)/2K internally; plotting one
# profile row shows the approximation tightening
# (off-dyadic grid: dyadic points are exact for every sawtooth depth)
xs = np.linspace(-0.97, 0.91, 9)
for e in (2, 6, 10):
    g = relu_factory.build(GadgetSpec(2.0 ** -e, 1.0))
    row = [realize(g, np.array([[x, x]]))[0, 0] for x in xs]
    errs = np.abs(np.array(row) - xs * xs)
    print(f"  eps=2^-{e:<2d} max |gadget(x,x) - x^2| on grid: "
          f"{errs.max():.2e}")
