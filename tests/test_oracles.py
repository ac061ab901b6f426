"""The reference implementations, checked against closed forms and each other."""

import re
import warnings

import numpy as np
import pytest

from strassennet import oracles

from conftest import gauss_with_norm


class TestMatmulNaive:
    def test_identity(self):
        X = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(oracles.matmul_naive(np.eye(4), X), X)

    def test_known_2x2(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[5.0, 6.0], [7.0, 8.0]])
        want = np.array([[19.0, 22.0], [43.0, 50.0]])
        assert np.array_equal(oracles.matmul_naive(A, B), want)

    def test_rectangular(self, rng):
        A = rng.uniform(-1, 1, (3, 5))
        B = rng.uniform(-1, 1, (5, 2))
        assert np.allclose(oracles.matmul_naive(A, B), A @ B, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            oracles.matmul_naive(np.eye(2), np.eye(3))


class TestStrassenExact:
    def test_identity(self):
        X = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(oracles.strassen_exact(np.eye(4), X), X)

    def test_cross_oracle_agreement(self):
        # 200 seeded 8x8 pairs against the triple loop
        worst = 0.0
        for s in range(200):
            rng = np.random.default_rng(s)
            A = rng.uniform(-1, 1, (8, 8))
            B = rng.uniform(-1, 1, (8, 8))
            got = oracles.strassen_exact(A, B)
            want = oracles.matmul_naive(A, B)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
        assert worst <= 1e-10

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            oracles.strassen_exact(np.eye(3), np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            oracles.strassen_exact(np.ones((2, 4)), np.ones((2, 4)))


class TestNeumannPartial:
    def test_zero_matrix(self):
        assert np.array_equal(oracles.neumann_partial(np.zeros((3, 3)), 4),
                              np.eye(3))

    def test_scalar_geometric(self):
        # 1 + 1/2 + 1/4 + 1/8 = 1.875 on each diagonal entry
        got = oracles.neumann_partial(np.eye(2) / 2.0, 4)
        assert np.allclose(got, 1.875 * np.eye(2), atol=1e-15)

    def test_one_term_is_identity(self, rng):
        A = rng.uniform(-1, 1, (4, 4))
        assert np.array_equal(oracles.neumann_partial(A, 1), np.eye(4))

    def test_terms_must_be_positive(self):
        with pytest.raises(ValueError):
            oracles.neumann_partial(np.eye(2), 0)

    @pytest.mark.parametrize("terms, reason", [
        (1.5, "must be an integer"), (2.0, "must be an integer"),
        (True, "must be an integer"), (0, "must be >= 1")])
    def test_terms_refused_by_name(self, terms, reason):
        # 1.5 and 2.0 used to raise a bare TypeError, True to count as 1 term
        with pytest.raises(ValueError, match=f"terms {reason}, got {terms}"):
            oracles.neumann_partial(np.eye(2), terms)


class TestExactInverse:
    def test_diagonal(self):
        got = oracles.exact_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(got, np.diag([0.5, 0.25]), atol=1e-15)

    def test_identity(self):
        assert np.allclose(oracles.exact_inverse(np.eye(5)), np.eye(5))

    def test_residual_on_random_well_conditioned(self, rng):
        for n in (2, 4, 8):
            for _ in range(20):
                A = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
                X = oracles.exact_inverse(A)
                assert np.max(np.abs(A @ X - np.eye(n))) <= 1e-8

    def test_needs_pivoting(self):
        # zero in the leading position forces a row swap
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(oracles.exact_inverse(A), A)

    def test_singular_rejected_with_diagnostics(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ValueError, match="pivot .* column 1"):
            oracles.exact_inverse(A)


class TestSpectralNorm:
    def test_diagonal(self):
        assert oracles.spectral_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0)

    def test_nilpotent(self):
        assert oracles.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == \
            pytest.approx(1.0, abs=1e-10)

    def test_2x2_symmetric_closed_form(self):
        # for symmetric A the spectral norm is max |eigenvalue|, and 2x2
        # eigenvalues come from the characteristic polynomial directly
        for s in range(50):
            rng = np.random.default_rng(1000 + s)
            a, b, c = rng.uniform(-2, 2, 3)
            A = np.array([[a, b], [b, c]])
            half_tr = (a + c) / 2.0
            disc = np.sqrt(((a - c) / 2.0) ** 2 + b * b)
            want = max(abs(half_tr + disc), abs(half_tr - disc))
            assert oracles.spectral_norm(A) == pytest.approx(want, abs=1e-10)

    def test_unconverged_estimate_is_refused(self, monkeypatch):
        # one step from the ones start leaves diag(1, 2, 3) at an estimate
        # below 3; it used to be returned as the norm
        monkeypatch.setattr(oracles, "_POWER_MAXIT", 1)
        with pytest.raises(ValueError, match="^spectral_norm did not "
                                             "converge within 1 power "
                                             "iterations$"):
            oracles.spectral_norm(np.diag([1.0, 2.0, 3.0]))

    def test_zero_matrix(self):
        assert oracles.spectral_norm(np.zeros((3, 3))) == 0.0

    def test_norm_sandwich(self, rng):
        # |A|_inf <= ||A||_2 <= n |A|_inf on random matrices
        for n in (1, 2, 4, 8):
            for _ in range(25):
                A = rng.uniform(-2, 2, (n, n))
                s = oracles.spectral_norm(A)
                m = float(np.max(np.abs(A)))
                assert m - 1e-9 <= s <= n * m + 1e-9


class TestGenContraction:
    def test_contraction_property(self):
        for seed in range(30):
            A = oracles.gen_contraction(4, 0.5, 1.0, seed)
            assert oracles.spectral_norm(np.eye(4) - A) <= 0.5 + 1e-10

    def test_alpha_scaling(self):
        A1 = oracles.gen_contraction(3, 0.3, 1.0, 7)
        A2 = oracles.gen_contraction(3, 0.3, 2.0, 7)
        assert np.allclose(A1, 2.0 * A2, atol=1e-14)

    def test_reproducible(self):
        A = oracles.gen_contraction(5, 0.4, 1.5, 11)
        B = oracles.gen_contraction(5, 0.4, 1.5, 11)
        assert np.array_equal(A, B)

    def test_perturbation_is_symmetric(self):
        A = oracles.gen_contraction(6, 0.5, 2.0, 3)
        B = np.eye(6) - 2.0 * A
        assert np.max(np.abs(B - B.T)) <= 1e-12

    def test_invertible_within_range(self):
        # every contraction is invertible; the inverse oracle must accept it
        for seed in range(10):
            A = oracles.gen_contraction(8, 0.5, 2.0, seed)
            X = oracles.exact_inverse(A)
            assert np.max(np.abs(A @ X - np.eye(8))) <= 1e-8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            oracles.gen_contraction(3, 1.2, 1.0, 0)
        with pytest.raises(ValueError):
            oracles.gen_contraction(3, 0.5, -1.0, 0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 0.0])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        # nan gave a NaN matrix and inf a zero one, neither meeting its
        # ||I - alpha A||_2 <= delta
        with pytest.raises(ValueError,
                           match="^alpha must be positive and finite$"):
            oracles.gen_contraction(2, 0.5, alpha, 0)


@pytest.mark.parametrize("call, reason", [
    (lambda: oracles.matmul_naive(np.ones(2), np.eye(2)),
     "matmul_naive expects two 2-d arrays"),
    (lambda: oracles.matmul_naive(np.eye(2), np.ones((2, 2, 1))),
     "matmul_naive expects two 2-d arrays"),
    (lambda: oracles.exact_inverse(np.ones((2, 3))),
     "exact_inverse expects a square matrix"),
    (lambda: oracles.exact_inverse(np.ones(2)),
     "exact_inverse expects a square matrix"),
    (lambda: oracles.spectral_norm(np.ones(3)),
     "spectral_norm expects a 2-d array"),
], ids=["matmul-1-d", "matmul-3-d", "inverse-non-square", "inverse-1-d",
        "norm-1-d"])
def test_shape_refusals(call, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        call()


@pytest.mark.parametrize("call, reason", [
    (lambda: oracles.strassen_exact(np.eye(0), np.eye(0)),
     "side 0 is not a power of two"),
    (lambda: oracles.matmul_naive(np.eye(2), 1j * np.eye(2)),
     "matmul_naive expects real numbers, got dtype complex128"),
    (lambda: oracles.exact_inverse([[np.nan]]),
     "exact_inverse expects finite entries"),
    (lambda: oracles.exact_inverse(np.zeros((0, 0))),
     "exact_inverse expects a nonempty matrix"),
    (lambda: oracles.spectral_norm([[np.nan]]),
     "spectral_norm expects finite entries"),
    (lambda: oracles.neumann_partial(np.ones((2, 3)), 2),
     "neumann_partial expects a square matrix"),
    (lambda: oracles.gen_contraction(2.5, 0.5, 1.0, 0),
     "n must be an integer, got 2.5"),
    (lambda: oracles.gen_contraction(2, "0.5", 1.0, 0),
     "delta must be a real number, got '0.5'"),
    (lambda: oracles.gen_contraction(0, 0.5, 1.0, 0),
     "n must be >= 1, got 0"),
], ids=["strassen-empty", "matmul-complex", "inverse-nan", "inverse-empty",
        "norm-nan", "neumann-non-square", "contraction-float-n",
        "contraction-string-delta", "contraction-zero-n"])
def test_mishandled_inputs_are_refused_by_cause(call, reason):
    # these used to recurse until RecursionError, drop the imaginary part
    # behind a ComplexWarning, return nan, run every power iteration,
    # fail inside numpy, raise a TypeError or return a 0x0 matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            call()


def test_doubling_product_identity(rng):
    # sum_{k<2^(N+1)} A^k equals prod_{k<=N} (A^(2^k) + I)
    for N in range(3):
        A = gauss_with_norm(rng, 4, 0.8)
        lhs = oracles.neumann_partial(A, 2 ** (N + 1))
        rhs = np.eye(4)
        P = A.copy()
        for k in range(N + 1):
            rhs = oracles.matmul_naive(rhs, P + np.eye(4))
            P = oracles.matmul_naive(P, P)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))
