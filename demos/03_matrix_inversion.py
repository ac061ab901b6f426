"""Invert matrices with a feedforward network.

The inversion network computes alpha * sum_k (I - alpha A)^k, a truncated
Neumann series for A^-1, valid whenever ||I - alpha A||_2 <= delta < 1.
The truncation is organized as a doubling product, so reaching 2^N series
terms costs only about 2N matrix multiplications.
"""

import numpy as np

from strassennet import (InversionSpec, build_inv, build_neu, build_sqr,
                         compute_N, neumann_depth, realize, relu2_factory,
                         relu_factory, series_length_estimate)
from strassennet.oracles import (exact_inverse, gen_contraction,
                                 neumann_partial, spectral_norm)

rng = np.random.default_rng(11)

print("== how many doubling stages does a budget need? ==")
for eps in (1.0, 0.1, 0.01, 0.001):
    N = compute_N(eps, 0.5)
    plain = series_length_estimate(eps, 0.5)
    print(f"  eps={eps:<6g} -> N={N} stages (2^{N}={2 ** N} terms; a plain "
          f"sum would need ~{plain:.1f} terms)")

print("\n== repeated squaring, the workhorse ==")
A = gen_contraction(3, 0.5, 1.0, seed=1)
H = np.eye(3) - A          # ||H||_2 <= 0.5
sqr = build_sqr(3, 3, 0.05, relu_factory)
true = np.linalg.matrix_power(H, 8)
err = spectral_norm(true - realize(sqr, H))
print(f"  H^8 via 3 squaring stages: M={sqr.num_weights}, "
      f"L={sqr.num_layers}, spectral error {err:.2e} (budget 0.05)")

print("\n== truncated series network ==")
for N in (1, 2, 3):
    net = build_neu(N, 3, 0.05, relu_factory)
    want = neumann_partial(H, 2 ** N)
    err = spectral_norm(want - realize(net, H))
    print(f"  N={N}: sums 2^{N}={2 ** N} terms, M={net.num_weights}, "
          f"L={net.num_layers}, spectral error {err:.2e}")

print("\n== the full inverter against Gaussian elimination ==")
for n in (2, 4, 8):
    spec = InversionSpec(n=n, alpha=1.0, epsilon=0.01, delta=0.5)
    depth = neumann_depth(spec)
    net = build_inv(spec, relu_factory)
    worst = 0.0
    for s in range(10):
        A = gen_contraction(n, 0.5, 1.0, seed=100 + s)
        err = spectral_norm(exact_inverse(A) - realize(net, A))
        worst = max(worst, err)
    print(f"  n={n}: N={depth.N}, M={net.num_weights}, L={net.num_layers}, "
          f"worst error {worst:.2e} (budget {spec.epsilon})")

print("\n== exact-gadget inverter: error is pure truncation ==")
spec = InversionSpec(n=2, alpha=1.0, epsilon=0.01, delta=0.5)
net = build_inv(spec, relu2_factory)
A = gen_contraction(2, 0.5, 1.0, seed=3)
err = spectral_norm(exact_inverse(A) - realize(net, A))
print(f"  M={net.num_weights}, L={net.num_layers}, error {err:.2e}")

# alpha rescales the admissible set: with alpha=2 the network inverts
# matrices twice as large
print("\n== rescaling with alpha ==")
spec = InversionSpec(n=3, alpha=2.0, epsilon=0.1, delta=0.5)
net = build_inv(spec, relu_factory)
A = gen_contraction(3, 0.5, 2.0, seed=9)
err = spectral_norm(exact_inverse(A) - realize(net, A))
print(f"  alpha=2, ||I - 2A|| <= 0.5: error {err:.2e} (budget 0.1)")
