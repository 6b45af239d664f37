import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.special import gammaln, multigammaln

from matrixbs import density, transform
from matrixbs.density import (
    Convention,
    ElementwiseParams,
    logpdf_T,
    logpdf_T_congruence,
    logpdf_T_inverse,
    logpdf_V,
    logpdf_elementwise,
    logpdf_sqrt_gbs,
    logpdf_uni_gbs,
    trace_argument,
)
from matrixbs.errors import (
    DomainError,
    NotSpdError,
    OutsideSupportError,
    SingularMatrixError,
)
from matrixbs.fit import loglik
from matrixbs.kernels import gaussian_kernel, kotz_kernel, log_h
from matrixbs.transform import GbsParams, jacobian_det_form

from conftest import rand_spd

AP = Convention.AS_PUBLISHED
BN = Convention.BRANCH_NORMALIZED

G11 = gaussian_kernel(1, 1)
K11 = kotz_kernel(2.0, 1.0, 1.0, 1, 1)


class TestUnivariate:
    def test_value_at_scale(self):
        # at t = beta the generator argument vanishes
        assert logpdf_uni_gbs(1.0, 1.0, 1.0, G11) == pytest.approx(
            math.log(1.0 / math.sqrt(2 * math.pi)), abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0)])
    def test_normalization(self, alpha, beta):
        total, _ = quad(lambda t: math.exp(logpdf_uni_gbs(t, alpha, beta, G11)),
                        0.0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0)])
    def test_median_at_scale(self, alpha, beta):
        below, _ = quad(lambda t: math.exp(logpdf_uni_gbs(t, alpha, beta, G11)),
                        0.0, beta, limit=300)
        assert below == pytest.approx(0.5, abs=1e-6)

    def test_kotz_normalization(self):
        total, _ = quad(lambda t: math.exp(logpdf_uni_gbs(t, 0.8, 2.0, K11)),
                        0.0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            logpdf_uni_gbs(-1.0, 1.0, 1.0, G11)
        with pytest.raises(DomainError):
            logpdf_uni_gbs(1.0, 0.0, 1.0, G11)


class TestSquareRoot:
    def test_change_of_variable_against_univariate(self):
        for v in np.linspace(0.2, 3.0, 29):
            lhs = logpdf_sqrt_gbs(float(v), 0.7, 1.5, G11)
            rhs = logpdf_uni_gbs(float(v) ** 2, 0.7, 1.5, G11) + math.log(2 * v)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_value_at_scale(self):
        assert logpdf_sqrt_gbs(1.0, 1.0, 1.0, G11) == pytest.approx(
            math.log(2.0 / math.sqrt(2 * math.pi)), abs=1e-12)

    def test_normalization(self):
        total, _ = quad(lambda v: math.exp(logpdf_sqrt_gbs(v, 0.9, 1.3, G11)),
                        0.0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestElementwise:
    def test_reduces_to_univariate(self):
        p = ElementwiseParams(alpha=np.array([[0.7]]), beta=np.array([[1.4]]))
        for t in (0.3, 1.0, 2.2):
            lhs = logpdf_elementwise(np.array([[t]]), p, G11)
            assert lhs == pytest.approx(logpdf_uni_gbs(t, 0.7, 1.4, G11), abs=1e-14)

    def test_value_at_scale_matrix(self):
        A = np.array([[0.5, 1.0], [1.5, 2.0]])
        B = np.array([[1.0, 2.0], [0.5, 3.0]])
        p = ElementwiseParams(alpha=A, beta=B)
        val = logpdf_elementwise(B, p, gaussian_kernel(2, 2))
        expected = float(np.sum(-np.log(A * B))) - 2.0 * math.log(2 * math.pi)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_two_dim_normalization(self):
        p = ElementwiseParams(alpha=np.array([[0.8], [1.2]]),
                              beta=np.array([[1.0], [2.0]]))
        k = gaussian_kernel(2, 1)

        def pdf(t1, t2):
            return math.exp(logpdf_elementwise(np.array([[t1], [t2]]), p, k))

        def inner(t1):
            val, _ = quad(lambda t2: pdf(t1, t2), 0.0, np.inf, limit=200)
            return val

        total, _ = quad(inner, 0.0, np.inf, limit=200, epsabs=1e-9)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_positivity_required(self):
        p = ElementwiseParams(alpha=np.ones((1, 1)), beta=np.ones((1, 1)))
        with pytest.raises(DomainError):
            logpdf_elementwise(np.array([[-0.5]]), p, G11)
        with pytest.raises(DomainError):
            ElementwiseParams(alpha=np.array([[0.0]]), beta=np.ones((1, 1)))


def _exact_kotz_log_h(mpmath, u, q, r, s, nm):
    """50-digit log Kotz generator at mpf u, normalising constant included."""
    q, r, s = mpmath.mpf(q), mpmath.mpf(r), mpmath.mpf(s)
    a = (2 * q + nm - 2) / (2 * s)
    return (mpmath.log(s) + a * mpmath.log(r) + mpmath.loggamma(mpmath.mpf(nm) / 2)
            - mpmath.mpf(nm) / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(a)
            - r * u ** s + (q - 1) * mpmath.log(u))


class TestNearScaleExact:
    """At t close to beta the trace argument is (t - beta)^2 / (t beta) with no
    cancellation, so a Kotz kernel with q < 1 stays finite and matches 50 digits."""

    GAPS = [1e-4, -1e-4, 1e-8, -1e-8, 1e-12]

    @pytest.mark.parametrize("gap", GAPS)
    def test_univariate(self, gap):
        mpmath = pytest.importorskip("mpmath")
        alpha, beta = 0.8, 1.5
        t = beta * (1.0 + gap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logpdf_uni_gbs(t, alpha, beta, kotz_kernel(0.55, 1.0, 1.0, 1, 1))
        with mpmath.workdps(50):
            tm, a, b = mpmath.mpf(t), mpmath.mpf(alpha), mpmath.mpf(beta)
            u = (tm - b) ** 2 / (tm * b * a ** 2)
            want = (-1.5 * mpmath.log(tm) + mpmath.log(tm + b) - mpmath.log(2)
                    - mpmath.log(a) - mpmath.log(b) / 2
                    + _exact_kotz_log_h(mpmath, u, 0.55, 1.0, 1.0, 1))
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gap", GAPS)
    def test_elementwise(self, gap):
        mpmath = pytest.importorskip("mpmath")
        A = np.array([[0.8], [1.1]])
        B = np.array([[1.5], [0.7]])
        T = B * (1.0 + gap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logpdf_elementwise(T, ElementwiseParams(alpha=A, beta=B),
                                     kotz_kernel(0.55, 1.0, 1.0, 2, 1))
        with mpmath.workdps(50):
            want, u = 0, 0
            for t, a, b in zip(*(map(mpmath.mpf, X.ravel().tolist()) for X in (T, A, B))):
                u += (t - b) ** 2 / (t * b * a ** 2)
                want += (-1.5 * mpmath.log(t) + mpmath.log(t + b) - mpmath.log(2)
                         - mpmath.log(a) - mpmath.log(b) / 2)
            want += _exact_kotz_log_h(mpmath, u, 0.55, 1.0, 1.0, 2)
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_square_root(self):
        # v * v rounds to eps relative, which the 1e-8 gap magnifies to about 1e-8
        # in u; the bound allows for that
        mpmath = pytest.importorskip("mpmath")
        alpha, beta = 0.8, 1.5
        v = math.sqrt(beta * (1.0 + 1e-8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logpdf_sqrt_gbs(v, alpha, beta, kotz_kernel(0.55, 1.0, 1.0, 1, 1))
        assert math.isfinite(got)
        with mpmath.workdps(50):
            t, a, b = mpmath.mpf(v) ** 2, mpmath.mpf(alpha), mpmath.mpf(beta)
            u = (t - b) ** 2 / (t * b * a ** 2)
            want = (mpmath.log(1 + b / t) - mpmath.log(a) - mpmath.log(b) / 2
                    + _exact_kotz_log_h(mpmath, u, 0.55, 1.0, 1.0, 1))
        assert got == pytest.approx(float(want), rel=1e-9, abs=0.0)


def _logpdf_V_det(V, p, kern):
    """As-published log V-density with the explicit determinant Jacobian."""
    det = abs(jacobian_det_form(V, p))
    dinv = np.linalg.inv(p.delta)
    log_j = math.log(det) if det > 0.0 else -math.inf
    return log_j + log_h(kern, trace_argument(dinv @ (V.T @ V) @ dinv, p.xi))


class TestVDensity:
    def test_scalar_assembly(self):
        p = GbsParams(n=1, xi=np.eye(1), beta=np.eye(1))
        z = 2.0 - 0.5
        expected = math.log(1.25) + (-0.5 * math.log(2 * math.pi) - 0.5 * z * z)
        assert logpdf_V([[2.0]], p, G11, AP) == pytest.approx(expected, abs=1e-12)

    def test_jacobian_paths_agree(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, n + 1))
            p = GbsParams(n=n, xi=rand_spd(m, rng), beta=rand_spd(m, rng))
            V = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0)
            kern = gaussian_kernel(n, m)
            a = logpdf_V(V, p, kern, AP)
            b = _logpdf_V_det(V, p, kern)
            assert a == pytest.approx(b, abs=1e-10)

    def test_sv_route_one_spectrum_matches_det(self, rng, monkeypatch):
        # the support check's spectrum is the one the product form uses
        calls = []
        branch_eigs = transform.branch_eigs

        def counted(V, params):
            calls.append(1)
            return branch_eigs(V, params)

        monkeypatch.setattr(density, "branch_eigs", counted)
        monkeypatch.setattr(transform, "branch_eigs", counted)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 1))
            p = GbsParams(n=n, xi=rand_spd(m, rng), beta=rand_spd(m, rng))
            V = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0)
            kern = kotz_kernel(1.4, 0.6, 1.2, n, m)
            calls.clear()
            a = logpdf_V(V, p, kern, AP)
            assert len(calls) == 1
            b = _logpdf_V_det(V, p, kern)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_scalar_case_equals_sqrt_law(self):
        p = GbsParams(n=1, xi=np.array([[0.7]]), beta=np.array([[1.8]]))
        for v in np.linspace(0.3, 3.0, 21):
            lhs = logpdf_V([[float(v)]], p, G11, AP)
            rhs = logpdf_sqrt_gbs(float(v), 0.7, 1.8, G11)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_branch_support_enforced(self, rng):
        p = GbsParams(n=3, xi=np.eye(1), beta=np.eye(1))
        with pytest.raises(OutsideSupportError):
            logpdf_V(np.array([[0.5], [0.0], [0.0]]), p, gaussian_kernel(3, 1), BN)

    def test_branch_adds_constant(self, rng):
        p = GbsParams(n=4, xi=rand_spd(2, rng), beta=rand_spd(2, rng))
        U, _, Vt = np.linalg.svd(rng.normal(size=(4, 2)), full_matrices=False)
        V = (U * np.array([2.5, 1.6])) @ Vt @ p.delta
        kern = gaussian_kernel(4, 2)
        ap = logpdf_V(V, p, kern, AP)
        bn = logpdf_V(V, p, kern, BN)
        assert bn - ap == pytest.approx(2 * math.log(2.0), abs=1e-12)


class TestTDensity:
    @pytest.mark.parametrize("kernel", [G11, K11])
    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0)])
    def test_univariate_reduction(self, kernel, alpha, beta):
        p = GbsParams(n=1, xi=np.array([[alpha]]), beta=np.array([[beta]]))
        for t in np.linspace(0.1 * beta, 5.0 * beta, 50):
            a = logpdf_T(np.array([[float(t)]]), p, kernel, AP)
            b = logpdf_uni_gbs(float(t), alpha, beta, kernel)
            assert a == pytest.approx(b, abs=1e-12)

    def test_zero_at_scale_matrix(self, rng):
        beta = rand_spd(2, rng, 1.0, 3.0)
        p = GbsParams(n=6, xi=rand_spd(2, rng), beta=beta)
        assert logpdf_T(beta, p, gaussian_kernel(6, 2), AP) == -math.inf

    def test_kernel_identity_m2(self, rng):
        p = GbsParams(n=6, xi=rand_spd(2, rng), beta=rand_spd(2, rng))
        gk = gaussian_kernel(6, 2)
        kk = kotz_kernel(1.0, 0.5, 1.0, 6, 2)
        for _ in range(40):
            T = rand_spd(2, rng, 0.8, 6.0)
            assert logpdf_T(T, p, gk, AP) == pytest.approx(
                logpdf_T(T, p, kk, AP), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_branch_normalization_scalar(self, n):
        beta = 1.5
        p = GbsParams(n=n, xi=np.array([[0.8]]), beta=np.array([[beta]]))
        kern = gaussian_kernel(n, 1)

        def pdf(t):
            return math.exp(logpdf_T(np.array([[t]]), p, kern, BN))

        total, _ = quad(pdf, beta, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_branch_normalization_kotz(self):
        beta = 2.0
        p = GbsParams(n=2, xi=np.array([[1.1]]), beta=np.array([[beta]]))
        kern = kotz_kernel(2.0, 1.0, 1.0, 2, 1)

        def pdf(t):
            return math.exp(logpdf_T(np.array([[t]]), p, kern, BN))

        total, _ = quad(pdf, beta, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_convention_constant(self, rng):
        p = GbsParams(n=6, xi=rand_spd(2, rng), beta=np.eye(2))
        kern = gaussian_kernel(6, 2)
        T = np.eye(2) * 3.0 + np.array([[0.0, 0.4], [0.4, 0.0]])
        assert (logpdf_T(T, p, kern, BN) - logpdf_T(T, p, kern, AP)
                == pytest.approx(2 * math.log(2.0), abs=1e-12))

    def test_outside_support_raises(self):
        p = GbsParams(n=6, xi=np.eye(2), beta=np.eye(2))
        T = np.diag([0.5, 3.0])  # one eigenvalue below the scale
        with pytest.raises(OutsideSupportError):
            logpdf_T(T, p, gaussian_kernel(6, 2), BN)

    def test_tied_eigenvalues_continuous(self):
        # the product form has no 1/(d_i - d_j) term: the density is finite
        # and continuous at tied eigenvalues, and agrees with the likelihood
        xi = np.array([[1.0, 0.3], [0.3, 0.8]])
        p = GbsParams(n=6, xi=xi, beta=100.0 * np.eye(2))
        kern = gaussian_kernel(6, 2)
        T = 250.0 * np.eye(2)
        tied = logpdf_T(T, p, kern, AP)
        assert math.isfinite(tied)
        assert tied == pytest.approx(loglik(T[None], 6, 100.0, xi, kern), abs=1e-10)
        nudged = logpdf_T(T + np.diag([1e-6, 0.0]), p, kern, AP)
        assert abs(nudged - tied) < 1e-7

    def test_reduction_chain_on_grid(self):
        # matrix law, univariate law and 1x1 element-wise law coincide
        for kernel in (G11, K11):
            alpha, beta = 0.8, 1.7
            p = GbsParams(n=1, xi=np.array([[alpha]]), beta=np.array([[beta]]))
            ep = ElementwiseParams(alpha=np.array([[alpha]]),
                                   beta=np.array([[beta]]))
            for t in np.linspace(0.1 * beta, 5.0 * beta, 50):
                a = logpdf_T(np.array([[float(t)]]), p, kernel, AP)
                b = logpdf_uni_gbs(float(t), alpha, beta, kernel)
                c = logpdf_elementwise(np.array([[float(t)]]), ep, kernel)
                assert a == pytest.approx(b, abs=1e-12)
                assert b == pytest.approx(c, abs=1e-12)

    def test_gfactor_sign_diagnostic(self, rng):
        from matrixbs.density import gfactor_sign
        beta = rand_spd(2, rng, 1.0, 2.0)
        p = GbsParams(n=5, xi=np.eye(2), beta=beta)  # n - m odd
        inside = p.delta @ np.diag([2.5, 1.8]) @ p.delta
        assert gfactor_sign(0.5 * (inside + inside.T), p) == 1
        outside = p.delta @ np.diag([2.5, 0.6]) @ p.delta
        assert gfactor_sign(0.5 * (outside + outside.T), p) == -1
        assert gfactor_sign(beta, p) == 0  # zero set at the boundary

    def test_trace_argument_symmetry(self, rng):
        # invariant under T -> beta T^{-1} beta
        for _ in range(20):
            p = GbsParams(n=6, xi=rand_spd(2, rng), beta=rand_spd(2, rng))
            T = rand_spd(2, rng, 0.5, 5.0)
            dinv = np.linalg.inv(p.delta)
            W = dinv @ T @ dinv
            u1 = trace_argument(W, p.xi)
            T2 = p.beta @ np.linalg.inv(T) @ p.beta
            W2 = dinv @ T2 @ dinv
            u2 = trace_argument(W2, p.xi)
            assert u1 == pytest.approx(u2, abs=1e-10 * max(1.0, u1))


def reference_logpdf_T(T, n, xi, beta, kernel, convention):
    """Log T-density of one matrix, from the formula term by term.

    Spectrum from the generalised eigenproblem T v = d beta v, trace
    argument from explicit inverses, kernel written out in full.
    """
    m = T.shape[0]
    d = scipy.linalg.eigh(T, beta, eigvals_only=True)
    log_g = 0.0
    for i in range(m):
        log_g += (n - m) * math.log(abs(1.0 - 1.0 / d[i])) + math.log(1.0 + 1.0 / d[i])
        for j in range(i + 1, m):
            log_g += math.log(abs(1.0 - 1.0 / (d[i] * d[j])))
    delta = scipy.linalg.sqrtm(beta).real
    dinv = np.linalg.inv(delta)
    W = dinv @ T @ dinv
    u = np.trace(np.linalg.inv(xi @ xi) @ (W + np.linalg.inv(W) - 2.0 * np.eye(m)))
    nm = n * m
    if kernel.family == "gaussian":
        log_h = -0.5 * nm * math.log(2.0 * math.pi) - 0.5 * u
    else:
        q, r, s = kernel.q, kernel.r, kernel.s
        a = (2.0 * q + nm - 2.0) / (2.0 * s)
        log_h = (math.log(s) + a * math.log(r) + gammaln(nm / 2.0)
                 - 0.5 * nm * math.log(math.pi) - gammaln(a)
                 + (q - 1.0) * math.log(u) - r * u**s)
    const = (0.5 * nm * math.log(math.pi) - multigammaln(n / 2.0, m)
             - 0.5 * n * np.linalg.slogdet(beta)[1] - n * np.linalg.slogdet(xi)[1])
    if convention is AP:
        const -= m * math.log(2.0)
    return (const + log_g + 0.5 * (n - m - 1) * np.linalg.slogdet(T)[1] + log_h)


def scaled_stack(p, count, rng, low, high):
    """count matrices Delta Q diag(d) Q' Delta with d drawn from [low, high],
    keeping every d_i and d_i d_j away from 1."""
    mats = []
    while len(mats) < count:
        d = rng.uniform(low, high, size=p.m)
        pairs = np.outer(d, d)[np.triu_indices(p.m, 1)]
        if np.abs(np.log(np.concatenate([d, pairs]))).min() < 0.05:
            continue
        Q, _ = np.linalg.qr(rng.normal(size=(p.m, p.m)))
        S = p.delta @ (Q * d) @ Q.T @ p.delta
        mats.append(0.5 * (S + S.T))
    return np.array(mats)


class TestTDensityStack:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_reference(self, m, rng):
        for n, beta in ((m, 2.5 * np.eye(m)), (m + 1, rand_spd(m, rng, 0.5, 4.0)),
                        (m + 4, rand_spd(m, rng, 0.5, 4.0))):
            p = GbsParams(n=n, xi=rand_spd(m, rng), beta=beta)
            for convention, low in ((BN, 1.05), (AP, 0.3)):
                T = scaled_stack(p, 8, rng, low, 6.0)
                for kern in (gaussian_kernel(n, m), kotz_kernel(1.7, 0.6, 1.3, n, m)):
                    got = logpdf_T(T, p, kern, convention)
                    want = [reference_logpdf_T(t, n, p.xi, p.beta, kern, convention)
                            for t in T]
                    assert got.shape == (8,)
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
                    assert logpdf_T(T[3], p, kern, convention) == pytest.approx(
                        got[3], rel=1e-13)

    def test_non_spd_row_named(self, rng):
        p = GbsParams(n=6, xi=np.eye(2), beta=np.eye(2))
        T = scaled_stack(p, 5, rng, 1.2, 4.0)
        T[2] = np.diag([3.0, -1.0])
        with pytest.raises(NotSpdError, match=r"T\[2\]") as err:
            logpdf_T(T, p, gaussian_kernel(6, 2), AP)
        assert err.value.row == 2

    def test_outside_branch_row_named(self, rng):
        p = GbsParams(n=6, xi=np.eye(2), beta=rand_spd(2, rng))
        T = scaled_stack(p, 5, rng, 1.2, 4.0)
        T[3] = p.delta @ np.diag([3.0, 0.9]) @ p.delta
        with pytest.raises(OutsideSupportError, match=r"T\[3\]") as err:
            logpdf_T(T, p, gaussian_kernel(6, 2), BN)
        assert err.value.row == 3
        assert np.all(np.isfinite(logpdf_T(T, p, gaussian_kernel(6, 2), AP)))


class TestTransformationLaws:
    def test_inverse_scalar_change_of_variables(self):
        p = GbsParams(n=1, xi=np.array([[0.9]]), beta=np.array([[1.7]]))
        for s in np.linspace(0.2, 2.5, 25):
            lhs = logpdf_T_inverse(np.array([[float(s)]]), p, G11, AP)
            rhs = logpdf_T(np.array([[1.0 / s]]), p, G11, AP) - 2.0 * math.log(s)
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_inverse_consistency_m2(self, rng):
        kern = gaussian_kernel(6, 2)
        for _ in range(100):
            p = GbsParams(n=6, xi=rand_spd(2, rng), beta=rand_spd(2, rng, 0.8, 2.0))
            S = rand_spd(2, rng, 0.2, 1.5)
            _, logdet_S = np.linalg.slogdet(S)
            lhs = logpdf_T_inverse(S, p, kern, AP)
            rhs = logpdf_T(np.linalg.inv(S), p, kern, AP) - 3.0 * logdet_S
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_inverse_boundary(self, rng):
        beta = rand_spd(2, rng, 1.0, 2.0)
        p = GbsParams(n=6, xi=np.eye(2), beta=beta)
        assert logpdf_T_inverse(np.linalg.inv(beta), p, gaussian_kernel(6, 2), AP) == -math.inf

    def test_congruence_identity_matrix(self, rng):
        p = GbsParams(n=6, xi=rand_spd(2, rng), beta=rand_spd(2, rng))
        kern = gaussian_kernel(6, 2)
        T = rand_spd(2, rng, 1.0, 5.0)
        assert logpdf_T_congruence(T, np.eye(2), p, kern, AP) == pytest.approx(
            logpdf_T(T, p, kern, AP), abs=1e-12)

    def test_congruence_scaling_relates_to_scale_change(self, rng):
        # C = c I turns the law of T into the law with scale c^2 beta
        c = 1.7
        xi = rand_spd(2, rng)
        beta = rand_spd(2, rng)
        p = GbsParams(n=6, xi=xi, beta=beta)
        p_scaled = GbsParams(n=6, xi=xi, beta=c * c * beta)
        kern = gaussian_kernel(6, 2)
        for _ in range(10):
            Y = rand_spd(2, rng, 1.0, 6.0)
            lhs = logpdf_T_congruence(Y, c * np.eye(2), p, kern, AP)
            rhs = logpdf_T(Y, p_scaled, kern, AP)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_congruence_consistency_random_c(self, rng):
        kern = gaussian_kernel(6, 2)
        for _ in range(100):
            p = GbsParams(n=6, xi=rand_spd(2, rng), beta=rand_spd(2, rng, 0.8, 2.0))
            T = rand_spd(2, rng, 1.0, 5.0)
            U, _, Vt = np.linalg.svd(rng.normal(size=(2, 2)))
            C = U @ np.diag(rng.uniform(0.3, 3.0, size=2)) @ Vt
            _, logdet_C = np.linalg.slogdet(C)
            Y = C.T @ T @ C
            Y = 0.5 * (Y + Y.T)
            lhs = logpdf_T_congruence(Y, C, p, kern, AP)
            rhs = logpdf_T(T, p, kern, AP) - 3.0 * logdet_C
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_singular_c_rejected(self, rng):
        p = GbsParams(n=6, xi=np.eye(2), beta=np.eye(2))
        with pytest.raises(SingularMatrixError):
            logpdf_T_congruence(3.0 * np.eye(2) + 0.1, np.ones((2, 2)), p,
                                gaussian_kernel(6, 2), AP)


class TestKernelIdentityEverywhere:
    def test_all_density_ops(self, rng):
        # Gaussian kernel and Kotz(1, 1/2, 1) agree on every operation
        checks = 0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, min(n, 3) + 1))
            gk = gaussian_kernel(n, m)
            kk = kotz_kernel(1.0, 0.5, 1.0, n, m)
            p = GbsParams(n=n, xi=rand_spd(m, rng), beta=rand_spd(m, rng))
            V = rng.normal(size=(n, m)) * rng.uniform(0.6, 1.8)
            assert logpdf_V(V, p, gk, AP) == pytest.approx(
                logpdf_V(V, p, kk, AP), abs=1e-10)
            T = rand_spd(m, rng, 0.7, 5.0)
            assert logpdf_T(T, p, gk, AP) == pytest.approx(
                logpdf_T(T, p, kk, AP), abs=1e-10)
            assert logpdf_T_inverse(np.linalg.inv(T), p, gk, AP) == pytest.approx(
                logpdf_T_inverse(np.linalg.inv(T), p, kk, AP), abs=1e-10)
            checks += 1
            if m == 1:
                g1, k1 = gaussian_kernel(1, 1), kotz_kernel(1.0, 0.5, 1.0, 1, 1)
                t = float(rng.uniform(0.2, 4.0))
                assert logpdf_uni_gbs(t, 0.8, 1.5, g1) == pytest.approx(
                    logpdf_uni_gbs(t, 0.8, 1.5, k1), abs=1e-10)
                assert logpdf_sqrt_gbs(t, 0.8, 1.5, g1) == pytest.approx(
                    logpdf_sqrt_gbs(t, 0.8, 1.5, k1), abs=1e-10)
            ep = ElementwiseParams(alpha=np.full((n, m), 0.9),
                                   beta=np.full((n, m), 1.2))
            Tpos = rng.uniform(0.4, 3.0, size=(n, m))
            assert logpdf_elementwise(Tpos, ep, gk) == pytest.approx(
                logpdf_elementwise(Tpos, ep, kk), abs=1e-10)
        assert checks == 100


def _rotation(m, rng):
    Q, R = np.linalg.qr(rng.normal(size=(m, m)))
    return Q * np.sign(np.diag(R))


def _factor_with_whitened(G, A):
    """A Cholesky factor L with L' A^{-1} = Q' G for an orthogonal Q, so
    W = A^{-T} L L' A^{-1} = G'G: from the QR factorisation G A = Q R, L = R'."""
    _, R = np.linalg.qr(G @ A)
    return (R * np.sign(np.diag(R))[:, None]).T


def svd_whitened_spectrum(L, A):
    """The whitening by numpy's SVD of G = L' A^{-1}, the test oracle."""
    G = np.swapaxes(L, -1, -2) @ np.linalg.inv(A)
    _, s, Vt = np.linalg.svd(G)
    return s * s, np.swapaxes(Vt, -1, -2)


class TestWhitenedSpectrum:
    """_whitened_spectrum (Gram eigh plus guarded Jacobi sweeps) against the
    SVD of the same G."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_svd_oracle(self, m):
        # 40 cases per singular-value ratio, every eigenvalue at least 1.001.
        # Where the two routes differ by more than 1e-12 the SVD is the one
        # off (gesdd's error is absolute in |G|): 50-digit eigenvalues of
        # G'G referee those matrices, and the new route must be within
        # 1e-12 of them.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(100 + m)
        for ratio in 10.0 ** -np.arange(1, 13):
            A = rng.normal(size=(m, m)) + 3.0 * np.eye(m)
            xi = rand_spd(m, rng)
            L = np.empty((40, m, m))
            for k in range(40):  # singular values of G from s_min / ratio down to s_min
                s_min = math.sqrt(1.001 + 2.0 * rng.uniform())
                s = s_min * ratio ** -np.sort(np.r_[1.0, rng.uniform(size=max(m - 2, 0)),
                                                    0.0][-m:])
                L[k] = _factor_with_whitened((_rotation(m, rng) * s) @ _rotation(m, rng).T, A)
            got, got_vecs = density._whitened_spectrum(L, A)
            want, want_vecs = svd_whitened_spectrum(L, A)
            assert (want >= 1.001 * (1 - 1e-12)).all()
            u_got = density._trace_argument_spectral(got, got_vecs, xi)
            u_want = density._trace_argument_spectral(want, want_vecs, xi)
            assert (np.abs(u_got - u_want) / u_want).max() < 1e-12
            apart = (np.abs(got - want) / want).max(axis=1) > 1e-12
            for k in np.flatnonzero(apart):
                with mpmath.workdps(50):
                    G = (mpmath.matrix(L[k].T.tolist())
                         * mpmath.inverse(mpmath.matrix(A.tolist())))
                    exact = np.sort([float(e) for e in mpmath.eigsy(G.T * G)[0]])[::-1]
                assert (np.abs(got[k] - exact) / exact).max() < 1e-12
            assert apart.sum() <= 2
            one, one_vecs = density._whitened_spectrum(L[7], A)
            assert np.array_equal(one, got[7]) and np.array_equal(one_vecs, got_vecs[7])

    @pytest.mark.parametrize("c", [2.0, 50.0])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_tied_spectrum(self, c, m, rng):
        A = rand_spd(m, rng, 0.5, 3.0)
        L = np.array([_factor_with_whitened(math.sqrt(c) * _rotation(m, rng), A)
                      for _ in range(20)])
        xi = rand_spd(m, rng)
        got, vecs = density._whitened_spectrum(L, A)
        want, want_vecs = svd_whitened_spectrum(L, A)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_allclose(got, c, rtol=1e-12)
        np.testing.assert_allclose(density._trace_argument_spectral(got, vecs, xi),
                                   density._trace_argument_spectral(want, want_vecs, xi),
                                   rtol=1e-12)

    def test_tied_spectrum_next_to_one_reported(self, rng):
        # W = c I with c = 1 + 1e-9: each route knows delta - 1 only to about
        # eps / (c - 1), so this is a report, not an accuracy gate
        m, c = 3, 1.0 + 1e-9
        A = rand_spd(m, rng, 0.5, 3.0)
        L = np.array([_factor_with_whitened(math.sqrt(c) * _rotation(m, rng), A)
                      for _ in range(20)])
        got, _ = density._whitened_spectrum(L, A)
        want, _ = svd_whitened_spectrum(L, A)
        spread = max(np.abs(got - c).max(), np.abs(want - c).max()) / (c - 1.0)
        print(f"W = (1 + 1e-9) I, m = 3: delta - 1 off by {spread:.2g} relative")
        assert spread < 1e-4

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
    def test_trace_argument_near_identity_exact(self, m, gap, rng):
        mpmath = pytest.importorskip("mpmath")
        w = 1.0 + gap * np.array([1.0, -0.7])[:m]
        P = _rotation(m, rng)
        xi = rand_spd(m, rng) if m > 1 else np.array([[1.0]])
        got = density._trace_argument_spectral(w, P, xi)
        with mpmath.workdps(50):
            M = mpmath.inverse(mpmath.matrix(xi.tolist()) ** 2)
            Pm = mpmath.matrix(P.tolist())
            f = [(mpmath.mpf(v) - 1) ** 2 / mpmath.mpf(v) for v in w]
            inner = Pm * mpmath.diag(f) * Pm.T
            want = float(sum(M[i, j] * inner[i, j] for i in range(m) for j in range(m)))
        assert abs(got - want) / want < (3e-16 if m == 1 else 1e-14)


class TestNearSingularRows:
    """Matrices that eigvalsh calls positive definite but Cholesky does not."""

    NEAR = np.array([[1.8815403921096419, 0.47210860729198595],
                     [0.47210860729198595, 0.118459607890358]])

    @pytest.mark.parametrize("convention", [AP, BN])
    def test_logpdf_T_names_the_row(self, convention, rng):
        p = GbsParams(n=4, xi=np.eye(2), beta=1e-30)
        T = np.array([rand_spd(2, rng) for _ in range(4)])
        T[2] = self.NEAR
        for call in (lambda: logpdf_T(T, p, gaussian_kernel(4, 2), convention),
                     lambda: logpdf_T(self.NEAR, p, gaussian_kernel(4, 2), convention),
                     lambda: density.gfactor_sign(self.NEAR, p),
                     lambda: logpdf_T_inverse(self.NEAR, p, gaussian_kernel(4, 2), AP),
                     lambda: logpdf_T_congruence(self.NEAR, np.eye(2), p,
                                                 gaussian_kernel(4, 2), AP)):
            with pytest.raises(NotSpdError, match="not numerically positive definite"):
                call()
        with pytest.raises(NotSpdError, match=r"^T\[2\] ") as err:
            logpdf_T(T, p, gaussian_kernel(4, 2), convention)
        assert err.value.row == 2
