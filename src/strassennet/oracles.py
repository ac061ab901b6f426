"""Brute-force reference implementations used to verify networks and identities.

Everything in this module is definitional and deliberately slow: triple-loop
matrix products, textbook Gaussian elimination, plain power iteration.  None
of it shares code with the network builders -- that independence is what makes
these functions usable as oracles in the test suite.  Each refuses, naming
the cause, an input it would otherwise mishandle silently.
"""

import numbers

import numpy as np

#: power-iteration parameters for spectral_norm
_POWER_RTOL = 1e-12
_POWER_MAXIT = 100_000
#: relative pivot threshold for exact_inverse
_PIVOT_RTOL = 1e-12


def _real(name: str, A) -> np.ndarray:
    """``A`` as float64, refused by ``name`` if it holds a complex part, a
    string or a nan or inf, which a cast would drop, read or carry."""
    A = np.asarray(A)
    if A.dtype.kind not in "biuf":
        raise ValueError(f"{name} expects real numbers, got dtype {A.dtype}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} expects finite entries")
    return A.astype(float)


def _count(name: str, n) -> int:
    """``n`` as an int, unless it is not an integer >= 1 (or is a bool)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    return int(n)


def matmul_naive(A, B):
    """Definitional matrix product via the triple loop, in double precision."""
    A, B = _real("matmul_naive", A), _real("matmul_naive", B)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("matmul_naive expects two 2-d arrays")
    m, n = A.shape
    n2, p = B.shape
    if n != n2:
        raise ValueError(f"inner dimensions disagree: {A.shape} x {B.shape}")
    C = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for t in range(n):
                acc += A[i, t] * B[t, j]
            C[i, j] = acc
    return C


def strassen_exact(A, B):
    """Recursive seven-product multiplication in exact floating-point arithmetic.

    Both operands must be square with a power-of-two side.  This is the
    arithmetic recursion itself, not a network; it serves as an independent
    cross-check for both ``matmul_naive`` and the built networks.
    """
    A, B = _real("strassen_exact", A), _real("strassen_exact", B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("strassen_exact expects two square matrices of equal size")
    n = A.shape[0]
    if n < 1 or n & (n - 1) != 0:
        raise ValueError(f"side {n} is not a power of two")
    if n == 1:
        return np.array([[A[0, 0] * B[0, 0]]])
    h = n // 2
    A11, A12, A21, A22 = A[:h, :h], A[:h, h:], A[h:, :h], A[h:, h:]
    B11, B12, B21, B22 = B[:h, :h], B[:h, h:], B[h:, :h], B[h:, h:]
    P1 = strassen_exact(A11 + A22, B11 + B22)
    P2 = strassen_exact(A21 + A22, B11)
    P3 = strassen_exact(A11, B12 - B22)
    P4 = strassen_exact(A22, B21 - B11)
    P5 = strassen_exact(A11 + A12, B22)
    P6 = strassen_exact(A21 - A11, B11 + B12)
    P7 = strassen_exact(A12 - A22, B21 + B22)
    C = np.empty((n, n))
    C[:h, :h] = P1 + P4 - P5 + P7
    C[:h, h:] = P3 + P5
    C[h:, :h] = P2 + P4
    C[h:, h:] = P1 - P2 + P3 + P6
    return C


def neumann_partial(A, terms):
    """Partial geometric sum I + A + ... + A^(terms-1) by iterated naive products."""
    A, terms = _real("neumann_partial", A), _count("terms", terms)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("neumann_partial expects a square matrix")
    n = A.shape[0]
    total = np.eye(n)
    power = np.eye(n)
    for _ in range(terms - 1):
        power = matmul_naive(power, A)
        total = total + power
    return total


def exact_inverse(A):
    """Matrix inverse by Gaussian elimination with partial pivoting.

    Rejects inputs whose pivot falls below ``1e-12 * max|A|`` with a
    diagnostic naming the elimination column and the offending pivot.
    """
    A = _real("exact_inverse", A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("exact_inverse expects a square matrix")
    if not A.size:  # the pivot threshold needs an entry
        raise ValueError("exact_inverse expects a nonempty matrix")
    n = A.shape[0]
    threshold = _PIVOT_RTOL * np.max(np.abs(A))
    work = np.hstack([A.copy(), np.eye(n)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
        pivot = work[pivot_row, col]
        if np.abs(pivot) <= threshold:
            raise ValueError(
                f"singular or ill-conditioned matrix: pivot {pivot:.3e} in "
                f"column {col} is below threshold {threshold:.3e}"
            )
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
        work[col] = work[col] / work[col, col]
        for row in range(n):
            if row != col and work[row, col] != 0.0:
                work[row] = work[row] - work[row, col] * work[col]
    return work[:, n:]


def _power_iteration(G, v) -> float:
    """Largest-eigenvalue estimate of symmetric PSD G by power iteration
    from start vector v, refused unless it converges within
    ``_POWER_MAXIT`` steps: an unconverged estimate may be too small."""
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        return 0.0
    v = v / norm_v
    lam = float(v @ (G @ v))
    for _ in range(_POWER_MAXIT):
        w = G @ v
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # v is in the kernel; the estimate along this direction is 0
            return 0.0
        v = w / norm_w
        lam_next = float(v @ (G @ v))
        if abs(lam_next - lam) <= _POWER_RTOL * max(abs(lam_next), 1e-300):
            return lam_next
        lam = lam_next
    raise ValueError(f"spectral_norm did not converge within {_POWER_MAXIT} "
                     "power iterations")


def spectral_norm(A) -> float:
    """Largest singular value of A by power iteration on A^T A.

    The start vector is the normalized all-ones vector; because the iteration
    can stall on an inferior eigenvector when the start happens to be exactly
    orthogonal to the dominant one, a fixed set of deterministically perturbed
    restarts is always run and the largest estimate wins.  An iteration that
    does not converge is refused, so an underestimate is never returned.
    """
    A = _real("spectral_norm", A)
    if A.ndim != 2:
        raise ValueError("spectral_norm expects a 2-d array")
    n = A.shape[1]
    G = A.T @ A
    ones = np.ones(n)
    # fixed, seedless perturbations: irrational-frequency sinusoids cannot be
    # orthogonal to an eigenvector for every restart simultaneously
    starts = [
        ones,
        ones + 0.31 * np.sin(1.0 + np.arange(n)),
        ones + 0.77 * np.cos(0.5 + 2.0 * np.arange(n)),
    ]
    best = max(_power_iteration(G, v) for v in starts)
    return float(np.sqrt(max(best, 0.0)))


def gen_contraction(n, delta, alpha, seed):
    """Seeded test matrix A with ||I - alpha*A||_2 <= delta.

    Draws an orthogonal Q from the QR factorization of a Gaussian matrix
    (sign-fixed for reproducibility), a diagonal D uniform in [-delta, delta],
    and returns A = (I - Q D Q^T) / alpha.  The construction bounds the
    spectral norm of the perturbation by delta exactly.
    """
    n = _count("n", n)
    for name, x in (("delta", delta), ("alpha", alpha)):
        if not isinstance(x, numbers.Real) or isinstance(x, bool):
            raise ValueError(f"{name} must be a real number, got {x!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.where(np.diag(R) == 0.0, 1.0, np.diag(R)))
    d = rng.uniform(-delta, delta, size=n)
    B = (Q * d) @ Q.T
    B = (B + B.T) / 2.0
    return (np.eye(n) - B) / alpha
