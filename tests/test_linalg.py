import math

import numpy as np
import pytest

from matrixbs.errors import DomainError, NotSpdError, NotSymmetricError, RankDeficientError
from matrixbs.linalg import (
    commutation,
    digamma,
    log_mv_gamma,
    pinv,
    spd_sqrt,
    sym_part,
    trigamma,
    vec,
)

from conftest import rand_spd


class TestSpdSqrt:
    def test_diagonal(self):
        assert np.allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(spd_sqrt(np.eye(3)), np.eye(3))

    def test_square_reproduces_input(self, rng):
        B = rand_spd(2, rng)
        R = spd_sqrt(B)
        assert np.abs(R @ R - B).max() < 1e-10 * np.abs(B).max()

    def test_square_reproduces_input_ill_conditioned(self, rng):
        # condition number 1e6
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        B = Q @ np.diag([1e-3, 0.1, 10.0, 1e3]) @ Q.T
        B = 0.5 * (B + B.T)
        R = spd_sqrt(B)
        assert np.abs(R @ R - B).max() < 1e-10 * np.abs(B).max()

    def test_not_spd(self):
        with pytest.raises(NotSpdError):
            spd_sqrt(np.diag([1.0, -0.5]))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            spd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSymPart:
    def test_stack_equals_per_matrix(self, rng):
        S = rng.normal(size=(4, 3, 3))
        expected = np.array([0.5 * (A + A.T) for A in S])
        assert np.array_equal(sym_part(S), expected)
        assert np.array_equal(sym_part(S[0]), expected[0])


class TestPinv:
    def test_stacked_identity(self):
        A = np.vstack([np.eye(2), np.zeros((2, 2))])
        assert np.allclose(pinv(A), np.hstack([np.eye(2), np.zeros((2, 2))]))

    def test_square_inverse(self, rng):
        A = rand_spd(3, rng) + np.eye(3)
        assert np.allclose(pinv(A), np.linalg.inv(A), atol=1e-10)

    def test_penrose_identities(self, rng):
        A = rng.normal(size=(4, 2))
        P = pinv(A)
        assert np.abs(A @ P @ A - A).max() < 1e-10
        assert np.abs(P @ A @ P - P).max() < 1e-10
        assert np.abs((A @ P).T - A @ P).max() < 1e-10
        assert np.abs((P @ A).T - P @ A).max() < 1e-10

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            pinv(np.ones((3, 2)))


class TestKronCommutation:
    def test_commutation_trivial(self):
        assert np.allclose(commutation(1, 4), np.eye(4))

    def test_vec_transpose_2x2(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(commutation(2, 2) @ vec(A), vec(A.T))

    def test_vec_transpose_random(self, rng):
        for _ in range(100):
            n, m = rng.integers(1, 6, size=2)
            A = rng.normal(size=(n, m))
            K = commutation(n, m)
            assert np.allclose(K @ vec(A), vec(A.T))
            assert np.allclose(K @ K.T, np.eye(n * m))  # permutation, orthogonal

    def test_kron_swap_identity(self, rng):
        # K_{pn} (A x B) = (B x A) K_{qm} for A n x m, B p x q
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(3, 2))
        lhs = commutation(3, 2) @ np.kron(A, B)
        rhs = np.kron(B, A) @ commutation(2, 2)
        assert np.allclose(lhs, rhs)


class TestLogMvGamma:
    def test_scalar_half(self):
        assert log_mv_gamma(1, 0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    def test_scalar_three(self):
        assert log_mv_gamma(1, 3.0) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_two_dim_product(self):
        # Gamma_2(3/2) = sqrt(pi) Gamma(3/2) Gamma(1) = pi / 2
        assert log_mv_gamma(2, 1.5) == pytest.approx(math.log(math.pi / 2), abs=1e-13)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 6.0])
    def test_matches_scalar_gamma(self, a):
        from scipy.special import gammaln
        assert abs(log_mv_gamma(1, a) - gammaln(a)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_mv_gamma(2, 0.5)


# arguments from 1e-4 to 1e6, half-integers and integers included
POLYGAMMA_ARGS = np.unique(np.concatenate([np.geomspace(1e-4, 1e6, 801),
                                           np.arange(0.5, 60.0, 0.5)]))
# where psi crosses zero its relative error is unbounded, so near this root
# the check is absolute
PSI_ROOT = 1.4616321449683622


class TestPolygamma:
    def test_digamma_matches_scipy(self):
        from scipy.special import digamma as reference

        for a in POLYGAMMA_ARGS:
            want = float(reference(a))
            tol = 1e-15 if abs(a - PSI_ROOT) < 0.01 else 1e-13 * abs(want)
            assert abs(digamma(a) - want) <= tol, a

    def test_trigamma_matches_scipy(self):
        from scipy.special import polygamma

        for a in POLYGAMMA_ARGS:
            want = float(polygamma(1, a))
            assert abs(trigamma(a) - want) <= 1e-13 * want, a

    def test_arrays_equal_scalar_calls(self):
        # one call over an array gives each element's scalar value bit for bit
        for fn in (digamma, trigamma):
            values = fn(POLYGAMMA_ARGS)
            assert values.shape == POLYGAMMA_ARGS.shape
            assert values.tobytes() == np.array([fn(float(a)) for a in POLYGAMMA_ARGS]).tobytes()
            assert isinstance(fn(2.5), float)

    def test_recurrence_across_series_switch(self):
        # psi(x + 1) = psi(x) + 1/x and psi'(x + 1) = psi'(x) - 1/x^2 across
        # the argument where the recurrence hands over to the series
        for x in (6.5, 7.25, 7.999999, 8.0, 8.5):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-14)
            assert trigamma(x + 1.0) == pytest.approx(trigamma(x) - 1.0 / x**2, rel=1e-14)


class TestCheckSpd:
    """The Cholesky route of check_spd against the eigenvalue route that
    fit._Prepared keeps (_spd_eigh)."""

    @staticmethod
    def _errors(S):
        from matrixbs.linalg import _spd_eigh, check_spd

        raised = []
        for route in (check_spd, _spd_eigh):
            with pytest.raises((DomainError, NotSpdError, NotSymmetricError)) as err:
                route(S, "T")
            raised.append((type(err.value), str(err.value), err.value.row))
        return raised

    @pytest.mark.parametrize("k", range(5))
    def test_bad_row_named_like_eigenvalue_route(self, k, rng):
        stack = np.array([rand_spd(3, rng) for _ in range(5)])
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        for bad, kind in ((Q @ np.diag([2.0, 1.0, -0.5]) @ Q.T, NotSpdError),
                          (np.diag([2.0, 1.0, 0.0]), NotSpdError),
                          (np.zeros((3, 3)), NotSpdError),
                          (np.triu(np.ones((3, 3))), NotSymmetricError),
                          (np.full((3, 3), np.inf), DomainError)):
            S = stack.copy()
            S[k] = bad
            cholesky, eigenvalues = self._errors(S)
            assert cholesky == eigenvalues
            assert cholesky[0] is kind and cholesky[2] == k
            assert cholesky[1].startswith(f"T[{k}] ")

    def test_one_matrix_unindexed(self):
        cholesky, eigenvalues = self._errors(np.diag([1.0, -2.0]))
        assert cholesky == eigenvalues == (NotSpdError, "T has non-positive eigenvalue -2",
                                           None)

    def test_returns_symmetrised_copy_and_factor(self, rng):
        from matrixbs.linalg import _spd_cholesky, _spd_eigh, check_spd

        S = np.array([rand_spd(3, rng) for _ in range(4)])
        S[1, 0, 2] += 1e-14  # asymmetric within the tolerance
        sym, L = _spd_cholesky(S)
        assert np.array_equal(sym, _spd_eigh(S)[0])
        assert np.array_equal(sym, check_spd(S))
        assert np.array_equal(L, np.tril(L))
        assert np.abs(L @ np.swapaxes(L, 1, 2) - sym).max() < 1e-14
        one, L0 = _spd_cholesky(S[2])
        assert np.array_equal(one, sym[2]) and np.array_equal(L0, L[2])

    def test_factorisation_breakdown_named(self, rng):
        # eigvalsh finds both eigenvalues positive; Cholesky breaks down on it
        near = np.array([[1.8815403921096419, 0.47210860729198595],
                         [0.47210860729198595, 0.118459607890358]])
        assert np.linalg.eigvalsh(near)[0] > 0.0
        S = np.array([rand_spd(2, rng) for _ in range(5)])
        S[3] = near
        from matrixbs.linalg import check_spd

        with pytest.raises(NotSpdError, match=r"^T\[3\] is not numerically positive"
                                              r" definite") as err:
            check_spd(S, "T")
        assert err.value.row == 3
        with pytest.raises(NotSpdError, match=r"^T is not numerically positive definite"):
            check_spd(near, "T")

    def test_spd_sqrt_rejects_what_only_cholesky_passes(self):
        # rank one up to rounding: potrf completes, eigh gives eigenvalue 0
        from matrixbs.linalg import check_spd

        B = np.array([[0.7238722559418536, 0.6035927101571665],
                      [0.6035927101571665, 0.5032989685187469]])
        if np.linalg.eigh(B)[0][0] > 0.0:
            pytest.skip("this LAPACK rounds the small eigenvalue above zero")
        check_spd(B)
        with pytest.raises(NotSpdError, match="^B has non-positive eigenvalue"):
            spd_sqrt(B)
