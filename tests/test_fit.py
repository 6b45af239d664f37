import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from matrixbs.dataio import read_batch
from matrixbs.density import Convention, logpdf_T, logpdf_uni_gbs
from matrixbs.errors import DegenerateDataWarning, DomainError, NegativeDiffError
from matrixbs.fit import (
    DEFAULT_S_GRID,
    EvidenceGrade,
    FitSpec,
    bic_star,
    evidence_grade,
    fit_mle,
    init_guess,
    loglik,
    profile_s_grid,
)
from matrixbs.kernels import gaussian_kernel, kotz_kernel
from matrixbs.sampling import sample_batch
from matrixbs.transform import GbsParams

from conftest import per_draw_svd_batch, rand_spd


XI_TRUE = np.array([[1.0, 0.3], [0.3, 0.8]])


def make_batch(count, seed, xi=XI_TRUE, beta=100.0, n=6, kernel=None):
    params = GbsParams(n=n, xi=xi, beta=beta * np.eye(xi.shape[0]))
    kernel = kernel or gaussian_kernel(n, xi.shape[0])
    return sample_batch(params, kernel, count, seed)


class TestLoglik:
    def test_single_scalar_observation_is_univariate(self):
        kernel = gaussian_kernel(1, 1)
        # below and above the scale: the n = m = 1 law covers all of t > 0
        for t in (0.4, 2.7):
            value = loglik(np.array([[[t]]]), 1, 1.9, np.array([[0.7]]), kernel)
            assert value == pytest.approx(logpdf_uni_gbs(t, 0.7, 1.9, kernel),
                                          abs=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "kotz"])
    def test_matches_density_sum(self, family):
        batch = make_batch(20, 91)
        beta_v, xi_v = 95.0, np.array([[1.1, 0.25], [0.25, 0.9]])
        if family == "gaussian":
            kernel = gaussian_kernel(6, 2)
        else:
            kernel = kotz_kernel(1.8, 0.7, 1.3, 6, 2)
        params = GbsParams(n=6, xi=xi_v, beta=beta_v * np.eye(2))
        expected = sum(logpdf_T(T, params, kernel, Convention.AS_PUBLISHED)
                       for T in batch.matrices)
        value = loglik(batch, 6, beta_v, xi_v, kernel)
        assert value == pytest.approx(expected, abs=1e-8)

    def test_gaussian_equals_unit_kotz(self):
        batch = make_batch(15, 3)
        xi_v = np.array([[0.9, 0.2], [0.2, 1.2]])
        a = loglik(batch, 6, 90.0, xi_v, gaussian_kernel(6, 2))
        b = loglik(batch, 6, 90.0, xi_v, kotz_kernel(1.0, 0.5, 1.0, 6, 2))
        assert a == pytest.approx(b, abs=1e-8)

    def test_outside_support_is_minus_inf(self):
        batch = make_batch(10, 17)
        lam_min = np.linalg.eigvalsh(batch.matrices).min()
        assert loglik(batch, 6, lam_min * 1.01, XI_TRUE, gaussian_kernel(6, 2)) == -math.inf

    @pytest.mark.parametrize("kernel", [gaussian_kernel(2, 2), kotz_kernel(1.5, 0.5, 1.0, 2, 2)],
                             ids=["gaussian", "kotz"])
    def test_never_nan(self, kernel):
        # n = m: beta may pass every eigenvalue, and at an extreme beta the
        # terms overflow; the likelihood's limit there is -inf
        batch = make_batch(2, 5, xi=0.5 * np.eye(2), beta=1.0, n=2)
        for beta in (1e200, 1e308, 5e-324):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert loglik(batch, 2, beta, 0.5 * np.eye(2), kernel) == -math.inf
        for beta in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                loglik(batch, 2, beta, 0.5 * np.eye(2), kernel)

    def test_convention_shift_is_constant(self):
        batch = make_batch(12, 23)
        xi_v = np.array([[1.0, 0.1], [0.1, 0.9]])
        a = loglik(batch, 6, 80.0, xi_v, gaussian_kernel(6, 2),
                   Convention.AS_PUBLISHED)
        b = loglik(batch, 6, 80.0, xi_v, gaussian_kernel(6, 2),
                   Convention.BRANCH_NORMALIZED)
        assert b - a == pytest.approx(12 * 2 * math.log(2.0), abs=1e-10)


def _boundary_batch(n):
    """The m = 1 fixture of the near-boundary checks: 20 univariate draws."""
    return sample_batch(GbsParams(n, xi=[[0.8]], beta=[[1.5]]), gaussian_kernel(n, 1), 20, 3)


class TestExactTrace:
    """u_k = tr(Xi^{-2} A_k), A_k = T_k / beta + beta T_k^{-1} - 2 I, from the
    eigenvalues (lambda - beta)^2 / (lambda beta) of A_k, against 50-digit
    values as beta nears the smallest eigenvalue."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    def test_trace_matches_50_digits(self, m, rotated):
        from matrixbs.fit import _Prepared

        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(10 * m + rotated)
        beta = 1.7
        xi = rand_spd(m, rng)
        w, P = np.linalg.eigh(xi)
        M = (P / (w * w)) @ P.T     # Xi^{-2} as the likelihood forms it
        for gap in (1e-4, 1e-8, 1e-12):
            spectra = beta * np.array([[1.0 + gap, 1.6, 2.9, 5.3][:m], [1.2, 2.2, 3.1, 7.0][:m]])
            Q = (np.linalg.qr(rng.normal(size=(2, m, m)))[0] if rotated
                 else np.broadcast_to(np.eye(m), (2, m, m)))
            T = Q * spectra[:, None, :] @ np.swapaxes(Q, 1, 2)
            T = 0.5 * (T + np.swapaxes(T, 1, 2))
            prep = _Prepared(T)
            u = prep.trace(M[prep.triu], beta)
            with mpmath.workdps(50):
                b, Mm = mpmath.mpf(beta), mpmath.matrix(M.tolist())
                for k in range(2):
                    Tm = mpmath.matrix(T[k].tolist())
                    A = Tm / b + b * mpmath.inverse(Tm) - 2 * mpmath.eye(m)
                    exact = sum((Mm * A)[i, i] for i in range(m))
                    assert abs(u[k] - exact) <= 1e-12 * exact, (gap, k)

    @pytest.mark.parametrize("n,q,smallest_eps,rel", [(1, 1.05, 1e-12, 1e-12),
                                                      (2, 0.55, 1e-8, 1e-9)])
    def test_loglik_near_boundary_matches_50_digits(self, n, q, smallest_eps, rel):
        # for n > m the factor (1 - beta / t)^(n - 1) of G is left to its own
        # rounding, which bounds the agreement there
        mpmath = pytest.importorskip("mpmath")
        batch = _boundary_batch(n)
        ts = batch.matrices[:, 0, 0]
        kernel = kotz_kernel(q, 0.5, 1.0, n, 1)
        eps = 1e-4
        while eps >= smallest_eps:
            beta = float(ts.min() * (1.0 - eps))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = loglik(batch, n, beta, [[0.8]], kernel)
            with mpmath.workdps(50):
                b, xi, qm, nm = mpmath.mpf(beta), mpmath.mpf(0.8), mpmath.mpf(q), n
                a = (2 * qm + nm - 2) / 2
                const = (nm / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(mpmath.mpf(n) / 2)
                         - nm / 2 * mpmath.log(b) - n * mpmath.log(xi) - mpmath.log(2)
                         + a * mpmath.log(mpmath.mpf(0.5)) + mpmath.loggamma(mpmath.mpf(nm) / 2)
                         - nm / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(a))
                exact = 0
                for t in map(mpmath.mpf, ts.tolist()):
                    u = (t - b) ** 2 / (t * b * xi ** 2)
                    exact += (const + (n - 1) * mpmath.log(1 - b / t) + mpmath.log(1 + b / t)
                              + (mpmath.mpf(n) - 2) / 2 * mpmath.log(t)
                              + (qm - 1) * mpmath.log(u) - u / 2)
            assert value == pytest.approx(float(exact), rel=rel, abs=0.0), eps
            eps /= 100.0

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (6, 2)])
    def test_profile_value_is_loglik_up_to_a_constant(self, n, m):
        # the solver's objective drops K ln s and terms of the data alone
        from matrixbs.fit import KOTZ_R, _KotzProfile, _Prepared

        batch = _boundary_batch(n) if m == 1 else make_batch(20, 41)
        prep = _Prepared(batch.matrices)
        profile = _KotzProfile(prep, n)
        rng = np.random.default_rng(7 + n)
        gaps = np.concatenate([[1e-12, 1e-8], rng.uniform(1e-3, 0.9, size=6)])
        diffs = []
        for gap in gaps:
            x = math.log(prep.min_lam * (1.0 - gap))
            xi = rand_spd(m, rng)
            q = float(rng.uniform(0.6, 3.0))
            s = float(rng.uniform(0.5, 3.0))
            value = profile.value(np.array([s]), np.array([x]),
                                  profile.theta_of(xi)[None], np.array([q]))[0]
            full = loglik(batch, n, math.exp(x), xi, kotz_kernel(q, KOTZ_R, s, n, m))
            diffs.append(value - (full - prep.K * math.log(s)))
        assert np.ptp(diffs) <= 1e-9 * max(1.0, abs(diffs[0]))


class TestInitGuess:
    def test_univariate_moment_estimators(self, rng):
        # m=1: reduces to beta = sqrt(am*hm), alpha = sqrt(2 (sqrt(am/hm) - 1))
        t = rng.uniform(0.5, 4.0, size=(30, 1, 1))
        guess = init_guess(t, 2)
        am = t[:, 0, 0].mean()
        hm = 1.0 / np.mean(1.0 / t[:, 0, 0])
        assert guess.beta0 == pytest.approx(math.sqrt(am * hm), rel=1e-12)
        assert guess.xi0[0, 0] == pytest.approx(
            math.sqrt(2.0 * (math.sqrt(am / hm) - 1.0)), rel=1e-9)

    def test_constant_data_falls_back(self):
        t = np.repeat(3.0 * np.eye(2)[None, :, :], 5, axis=0)
        with pytest.warns(DegenerateDataWarning):
            guess = init_guess(t, 6)
        assert guess.beta0 == pytest.approx(3.0, rel=1e-12)
        assert guess.xi0[0, 0] >= 0.5 - 1e-9  # fallback alpha, possibly floored

    def test_beta_within_factor_two(self):
        # moment seed works in the small-shape regime
        hits = 0
        for seed in range(20):
            batch = make_batch(40, 500 + seed, xi=0.3 * XI_TRUE)
            guess = init_guess(batch, 6)
            if 50.0 <= guess.beta0 <= 200.0:
                hits += 1
        assert hits == 20

    def test_spd_floor(self, rng):
        batch = make_batch(10, 77)
        guess = init_guess(batch, 6)
        assert np.linalg.eigvalsh(guess.xi0).min() >= 1e-3 - 1e-12

    def test_needs_two_observations(self):
        with pytest.raises(DomainError):
            init_guess(np.eye(2)[None, :, :], 6)


class TestFitMle:
    def test_gaussian_recovery(self):
        batch = make_batch(200, 20260810)
        res = fit_mle(batch, FitSpec(family="gaussian", seed=1), 6)
        assert res.converged
        assert abs(res.beta - 100.0) / 100.0 < 0.05
        assert np.abs((res.xi - XI_TRUE) / XI_TRUE).max() < 0.15
        assert res.n_params == 4

    @pytest.mark.parametrize("family", ["gaussian", "kotz"])
    def test_one_observation_raises(self, family):
        with pytest.raises(DomainError):
            fit_mle(make_batch(1, 11), FitSpec(family=family), 6)

    def test_refit_from_optimum_is_stable(self):
        batch = make_batch(40, 55)
        res = fit_mle(batch, FitSpec(family="gaussian", seed=2), 6)
        res2 = fit_mle(batch, FitSpec(family="gaussian", seed=3), 6)
        assert abs(res2.loglik_max - res.loglik_max) < 1e-6

    def test_kotz_nests_gaussian(self):
        batch = make_batch(20, 7)
        g = fit_mle(batch, FitSpec(family="gaussian", seed=0), 6)
        k = fit_mle(batch, FitSpec(family="kotz", s=1.0, seed=0), 6)
        assert k.loglik_max >= g.loglik_max - 1e-6
        assert k.n_params == 6

    def test_gaussian_ignores_kotz_search_options(self):
        batch = make_batch(20, 7)
        ref = fit_mle(batch, FitSpec(family="gaussian"), 6)
        for seed in range(5):
            for extra in ({}, {"s": 2.5}):
                res = fit_mle(batch, FitSpec(family="gaussian", seed=seed, **extra), 6)
                assert res.beta == ref.beta
                assert np.array_equal(res.xi, ref.xi)
                assert res.loglik_max == ref.loglik_max

    def test_degrees_below_order_rejected_first(self, monkeypatch):
        # n < m is refused before the data are prepared or any fit starts
        from matrixbs import fit as fit_module

        monkeypatch.setattr(fit_module, "_Prepared", None)
        batch = make_batch(20, 7)
        for call in (lambda: fit_mle(batch, FitSpec(), 1),
                     lambda: profile_s_grid(batch, (1.0,), 1),
                     lambda: loglik(batch, 1, 90.0, XI_TRUE, gaussian_kernel(6, 2))):
            with pytest.raises(DomainError, match="need degrees n >= m, got n=1, m=2"):
                call()

    def test_degrees_equal_order_fits(self):
        batch = make_batch(30, 4, n=2)
        res = fit_mle(batch, FitSpec(family="gaussian"), 2)
        assert math.isfinite(res.loglik_max)
        assert res.beta <= np.linalg.eigvalsh(batch.matrices).min()
        assert np.linalg.eigvalsh(res.xi).min() > 0.0

    def test_convention_invariance_of_fit(self):
        batch = make_batch(16, 77)
        const = batch.count * batch.m * math.log(2.0)
        results = {}
        for conv in (Convention.AS_PUBLISHED, Convention.BRANCH_NORMALIZED):
            g = fit_mle(batch, FitSpec(family="gaussian", seed=4, convention=conv), 6)
            k = fit_mle(batch, FitSpec(family="kotz", s=1.0, seed=4, convention=conv), 6)
            results[conv] = (g, k)
        g_a, k_a = results[Convention.AS_PUBLISHED]
        g_b, k_b = results[Convention.BRANCH_NORMALIZED]
        assert g_b.loglik_max - g_a.loglik_max == pytest.approx(const, abs=1e-4)
        assert g_b.beta == pytest.approx(g_a.beta, rel=1e-5)
        assert np.allclose(g_b.xi, g_a.xi, rtol=1e-4, atol=1e-6)
        # model-comparison differences are unchanged by the convention
        diff_a = k_a.bic_star - g_a.bic_star
        diff_b = k_b.bic_star - g_b.bic_star
        assert diff_b == pytest.approx(diff_a, abs=1e-3)


def _shape_at(T, n, beta):
    """Gaussian shape maximising the likelihood at fixed beta, from each A_k."""
    K, m, _ = T.shape
    A = (T / beta + beta * np.linalg.inv(T) - 2.0 * np.eye(m)).sum(axis=0) / (K * n)
    w, P = np.linalg.eigh(0.5 * (A + A.T))
    return (P * np.sqrt(w)) @ P.T


def _oracle_loglik(T, n, starts):
    """Best Nelder-Mead optimum of fit.loglik over (log beta, Cholesky of Xi
    with logged diagonal), three chained runs per start."""
    from scipy.optimize import minimize

    m = T.shape[1]
    kernel = gaussian_kernel(n, m)
    tril = np.tril_indices(m)
    diag = tril[0] == tril[1]

    def unpack(x):
        L = np.zeros((m, m))
        L[tril] = np.where(diag, np.exp(np.minimum(x[1:], 50.0)), x[1:])
        return math.exp(x[0]), L @ L.T

    def objective(x):
        value = loglik(T, n, *unpack(x), kernel)
        return -value if math.isfinite(value) else math.inf

    best = -math.inf
    for beta, xi in starts:
        L = np.linalg.cholesky(xi)[tril]
        x0 = np.concatenate([[math.log(beta)], np.where(diag, np.log(np.abs(L)), L)])
        for _ in range(3):  # restart from the last optimum to escape a collapsed simplex
            res = minimize(objective, x0, method="Nelder-Mead",
                           options={"maxiter": 20000, "maxfev": 40000,
                                    "xatol": 1e-10, "fatol": 1e-12})
            x0 = res.x
        best = max(best, -res.fun)
    return best


def _profile_fixtures():
    beta3 = np.array([[2.0, 0.4, 0.1], [0.4, 1.5, 0.2], [0.1, 0.2, 1.0]])
    xi3 = np.array([[0.7, 0.1, 0.0], [0.1, 0.5, 0.05], [0.0, 0.05, 0.4]])
    return [
        pytest.param(make_batch(20, 31), 6, id="gaussian m=2"),
        pytest.param(sample_batch(GbsParams(n=5, xi=XI_TRUE,
                                            beta=np.array([[90.0, 20.0], [20.0, 60.0]])),
                                  kotz_kernel(2.0, 0.8, 1.5, 5, 2), 25, 32), 5,
                     id="kotz full beta m=2"),
        pytest.param(make_batch(30, 33, xi=xi3, n=7), 7, id="gaussian m=3"),
        pytest.param(sample_batch(GbsParams(n=8, xi=xi3, beta=beta3),
                                  kotz_kernel(3.0, 1.2, 0.8, 8, 3), 40, 34), 8,
                     id="kotz full beta m=3"),
    ]


class TestGaussianProfile:
    @pytest.mark.parametrize("batch,n", _profile_fixtures())
    def test_at_least_simplex_oracle(self, batch, n):
        T = batch.matrices
        res = fit_mle(batch, FitSpec(family="gaussian"), n)
        guess = init_guess(T, n)
        beta0 = min(guess.beta0, 0.9 * np.linalg.eigvalsh(T).min())
        starts = [(beta0, guess.xi0), (0.5 * beta0, _shape_at(T, n, 0.5 * beta0))]
        oracle = _oracle_loglik(T, n, starts)
        assert res.loglik_max >= oracle - 1e-8
        assert res.loglik_max - oracle < 1e-3  # the oracle found the same optimum

    @pytest.mark.parametrize("batch,n", _profile_fixtures())
    def test_dense_beta_grid_never_higher(self, batch, n):
        T = batch.matrices
        res = fit_mle(batch, FitSpec(family="gaussian"), n)
        kernel = gaussian_kernel(n, T.shape[1])
        top = np.linalg.eigvalsh(T).min() * (1.0 - 1e-6)
        grid = [loglik(T, n, b, _shape_at(T, n, b), kernel)
                for b in np.geomspace(top * 1e-6, top, 1500)]
        assert max(grid) <= res.loglik_max + 1e-8
        assert res.xi == pytest.approx(_shape_at(T, n, res.beta), rel=1e-10, abs=1e-12)


DATA = Path(__file__).resolve().parent / "data"

# Maximum log-likelihoods (as published) of the search that fitted Kotz models
# before the profile search: Nelder-Mead over (beta, Xi, r, q) from five starts
# (the moment guess, the Gaussian optimum and three jittered copies), as
# profile_s_grid ran it with seed 0.
POP_B_MULTISTART = {3.0: -358.3077310110013, 4.0: -358.34751342109877,
                    5.0: -358.4650697043568}
BULK_MULTISTART = {1.0: -74555.4197986639, 1.5: -74549.78155914469}


def _bulk_batch():
    """m = 3, K = 2000 Kotz batch with a full scale, as in the bulk benchmark,
    drawn as BULK_MULTISTART's maxima were computed on it."""
    beta = np.array([[100.0, 10.0, 0.0], [10.0, 120.0, 5.0], [0.0, 5.0, 90.0]])
    xi = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.2]])
    return per_draw_svd_batch(GbsParams(n=8, xi=xi, beta=beta),
                              kotz_kernel(2.0, 0.5, 1.5, 8, 3), 2000, 2026)


def _sqrtm(M):
    w, P = np.linalg.eigh(M)
    return (P * np.sqrt(w)) @ P.T


def _inv_sqrt(M):
    w, P = np.linalg.eigh(M)
    return (P / np.sqrt(w)) @ P.T


def _solve_at_betas(T, n, s, betas, q=1.0):
    """The Kotz profile at each fixed beta: one solve, a row per beta with
    both bounds of ln beta at it, each from M = I and q.  Returns the
    profile and per row theta, q, converged and the slope in ln beta."""
    from matrixbs import fit as fit_module

    profile = fit_module._KotzProfile(fit_module._Prepared(T), n)
    x = np.log(betas)
    R = len(x)
    _, theta, q, _, converged, slope, _ = profile.newton(
        np.full(R, s), x, np.tile(profile.theta_of(np.eye(T.shape[1])), (R, 1)),
        np.full(R, float(q)), x, x, np.full(R, 5000))
    return profile, theta, q, converged, slope


class TestKotzProfile:
    def test_rate_scale_invariance(self):
        # the reason r is pinned: (Xi, r) -> (c Xi, r c^(2s)) leaves the likelihood
        batch = make_batch(20, 7)
        q, r, s = 1.7, 0.4, 1.3
        ref = loglik(batch, 6, 90.0, XI_TRUE, kotz_kernel(q, r, s, 6, 2))
        for c in (0.5, 2.0):
            value = loglik(batch, 6, 90.0, c * XI_TRUE, kotz_kernel(q, r * c ** (2 * s), s, 6, 2))
            assert value == pytest.approx(ref, rel=1e-12)

    def test_seed_independent_and_rate_pinned(self):
        batch = make_batch(20, 7)
        ref = fit_mle(batch, FitSpec(family="kotz", s=1.5, seed=0), 6)
        assert ref.r == 0.5 and ref.converged
        for seed in range(1, 5):
            res = fit_mle(batch, FitSpec(family="kotz", s=1.5, seed=seed), 6)
            assert res.beta == pytest.approx(ref.beta, rel=1e-6)
            assert res.q == pytest.approx(ref.q, rel=1e-6)
            assert np.allclose(res.xi, ref.xi, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
    def test_optimum_solves_scatter_equations(self, s):
        # zero gradient in M = Xi^{-2}:  (K n / 2) M^{-1} = sum_k w_k A_k with
        # w_k = r s u_k^(s-1) - (q-1)/u_k, and the radial identity r sum u^s = K a
        kernel = kotz_kernel(2.0, 0.8, 1.2, 5, 2)
        batch = make_batch(40, 12, n=5, kernel=kernel)
        res = fit_mle(batch, FitSpec(family="kotz", s=s), 5)
        T, K, n = batch.matrices, batch.count, 5
        A = T / res.beta + res.beta * np.linalg.inv(T) - 2.0 * np.eye(2)
        M = np.linalg.inv(res.xi @ res.xi)
        u = np.einsum("ij,kij->k", M, A)
        w = res.r * s * u ** (s - 1.0) - (res.q - 1.0) / u
        lhs = 0.5 * K * n * np.linalg.inv(M)
        assert np.einsum("k,kij->ij", w, A) == pytest.approx(lhs, rel=1e-7)
        a = (2.0 * res.q + n * 2 - 2.0) / (2.0 * s)
        assert res.r * np.sum(u ** s) == pytest.approx(K * a, rel=1e-7)

    @pytest.mark.parametrize("s,q", [(0.5, -3.9), (1.0, 1.0), (2.0, 8.0), (5.0, 30.0)])
    def test_inner_solve_from_identity(self, s, q):
        # at fixed beta, from M = I and the given q, the solve must reach a
        # stationary point of the shape at the q it returns, a local maximum
        batch = make_batch(40, 12, n=5, kernel=kotz_kernel(2.0, 0.8, 1.2, 5, 2))
        T, K, n, beta = batch.matrices, batch.count, 5, 80.0
        profile, [theta], [q], [converged], _ = _solve_at_betas(T, n, s, [beta], q)
        assert converged
        M = profile.matrix(theta)
        A = T / beta + beta * np.linalg.inv(T) - 2.0 * np.eye(2)
        u = np.einsum("ij,kij->k", M, A)
        w = 0.5 * s * u ** (s - 1.0) - (q - 1.0) / u
        assert np.einsum("k,kij->ij", w, A) == pytest.approx(0.5 * K * n * np.linalg.inv(M),
                                                             rel=1e-9)
        kernel = kotz_kernel(q, 0.5, s, n, 2)
        value = loglik(T, n, beta, _inv_sqrt(M), kernel)
        rng = np.random.default_rng(5)
        for _ in range(5):
            E = rng.normal(scale=1e-3, size=(2, 2))
            for D in (E + E.T, -E - E.T):
                assert loglik(T, n, beta, _inv_sqrt(M + D), kernel) < value

    @pytest.mark.parametrize("s,q", [(0.5, -3.9), (1.0, 1.0), (2.0, 8.0), (5.0, 30.0)])
    def test_inner_solve_stationary_in_q(self, s, q):
        # the same joint solve zeroes the q gradient
        #   K (ln r - psi(a)) / s + sum_k ln u_k,   a = (2q + nm - 2) / (2s)
        from scipy.special import digamma

        batch = make_batch(40, 12, n=5, kernel=kotz_kernel(2.0, 0.8, 1.2, 5, 2))
        T, K, n, beta = batch.matrices, batch.count, 5, 80.0
        profile, [theta], [q], [converged], _ = _solve_at_betas(T, n, s, [beta], q)
        assert converged
        A = T / beta + beta * np.linalg.inv(T) - 2.0 * np.eye(2)
        u = np.einsum("ij,kij->k", profile.matrix(theta), A)
        terms = (K * (math.log(0.5) - digamma((2.0 * q + n * 2 - 2.0) / (2.0 * s))) / s,
                 np.sum(np.log(u)))
        assert abs(sum(terms)) <= 1e-8 * max(abs(t) for t in terms)
        xi = _inv_sqrt(profile.matrix(theta))
        value = loglik(T, n, beta, xi, kotz_kernel(q, 0.5, s, n, 2))
        for dq in (-1e-3, 1e-3):
            assert loglik(T, n, beta, xi, kotz_kernel(q + dq, 0.5, s, n, 2)) < value

    @pytest.mark.parametrize("s", [0.5, 1.5, 4.0])
    def test_gradient_zero_at_optimum(self, s):
        # the fit zeroes the gradient in (M, q, ln beta), each part against
        # the magnitudes of its terms, and the likelihood falls on either
        # side of it in ln beta and in q
        from scipy.special import digamma

        from matrixbs import fit as fit_module
        from matrixbs.transform import log_gfactor_slope

        T, n = read_batch(DATA / "paper_k20_round1_popB.csv").matrices, 6
        res = fit_mle(T, FitSpec(family="kotz", s=s), n)
        assert res.converged and res.beta < fit_module._Prepared(T).beta_max
        K, beta, q, r = len(T), res.beta, res.q, res.r
        M, T_inv = np.linalg.inv(res.xi @ res.xi), np.linalg.inv(T)
        tT, tI = np.einsum("ij,kij->k", M, T), np.einsum("ij,kij->k", M, T_inv)
        u = tT / beta + beta * tI - 2.0 * np.trace(M)
        dh = (q - 1.0) / u - r * s * u ** (s - 1.0)
        A = T / beta + beta * T_inv - 2.0 * np.eye(2)
        scatter = np.einsum("k,kij->ij", dh, A)
        assert scatter == pytest.approx(-0.5 * K * n * np.linalg.inv(M), rel=1e-8)
        terms = (K * (math.log(r) - digamma((2.0 * q + n * 2 - 2.0) / (2.0 * s))) / s,
                 np.sum(np.log(u)))
        assert abs(sum(terms)) <= 1e-8 * max(abs(t) for t in terms)
        deltas = np.linalg.eigvalsh(T) / beta
        _, g_slope, _ = log_gfactor_slope(deltas, n, 2)
        # the magnitudes of the G factor's terms, summed per observation
        g_scale = np.abs(log_gfactor_slope(deltas[:, None, :], n, 2)[1]).sum()
        terms = (g_slope, -0.5 * K * n * 2, dh * (beta * tI - tT / beta))
        assert abs(terms[0] + terms[1] + terms[2].sum()) <= 1e-8 * (
            g_scale - terms[1] + np.abs(terms[2]).sum())
        kernel = kotz_kernel(q, r, s, n, 2)
        for d in (-1e-3, 1e-3):
            assert loglik(T, n, beta * math.exp(d), res.xi, kernel) < res.loglik_max
            assert loglik(T, n, beta, res.xi, kotz_kernel(q + d, r, s, n, 2)) < res.loglik_max

    @pytest.mark.parametrize("s", [0.5, 1.5, 5.0])
    @pytest.mark.parametrize("batch,n", [
        *_profile_fixtures(),
        pytest.param(read_batch(DATA / "paper_k20_round1_popB.csv"), 6, id="popB")])
    def test_dense_beta_grid_never_higher(self, batch, n, s):
        # the profile over (M, q) has one mode in beta: no point of a dense
        # grid, each solved at its fixed beta, beats the fit
        from matrixbs import fit as fit_module

        T = batch.matrices
        res = fit_mle(batch, FitSpec(family="kotz", s=s), n)
        beta_max = fit_module._Prepared(T).beta_max
        betas = np.geomspace(beta_max / 1e6, beta_max, 200)
        profile, theta, q, converged, _ = _solve_at_betas(T, n, s, betas)
        assert converged.all()
        for beta, theta_b, q_b in zip(betas, theta, q):
            value = loglik(T, n, beta, _inv_sqrt(profile.matrix(theta_b)),
                           kotz_kernel(q_b, 0.5, s, n, T.shape[1]))
            assert value <= res.loglik_max + 1e-8

    def test_shape_at_floor_of_q(self):
        # at the smallest q above q_floor the Gamma shape (q - q_floor)/s
        # stays positive: the value is a number or -inf, never an error
        from matrixbs import fit as fit_module

        profile = fit_module._KotzProfile(fit_module._Prepared([[[2.0]], [[3.0]], [[5.0]]]), 1)
        q = np.nextafter(profile.q_floor, np.inf)
        value = profile.value(np.array([1.5]), np.array([0.0]), np.array([[1.0]]), np.array([q]))
        assert value[0] == -np.inf or np.isfinite(value[0])

    def test_small_power_not_below_reachable_maximum(self):
        # popB at s = 0.05 has a maximum of at least -358.7300 (at beta near
        # 94.1); a fit flagged converged may not stop below it
        batch = read_batch(DATA / "paper_k20_round1_popB.csv")
        res = fit_mle(batch, FitSpec(family="kotz", s=0.05), 6)
        assert not res.converged or res.loglik_max >= -358.7300

    @pytest.mark.parametrize("s", sorted(POP_B_MULTISTART))
    def test_at_least_multistart_paper_fixture(self, s):
        # population B of the K = 20 benchmark's round 1 (Kotz q = 2, r = 1/2,
        # s = 1.5), where a plain scatter fixed point stalls for s = 4 and 5
        batch = read_batch(DATA / "paper_k20_round1_popB.csv")
        res = fit_mle(batch, FitSpec(family="kotz", s=s), 6)
        assert res.converged
        assert res.loglik_max >= POP_B_MULTISTART[s] - 1e-8

    def test_at_least_multistart_bulk_fixture(self):
        batch = _bulk_batch()
        profile = profile_s_grid(batch, sorted(BULK_MULTISTART), 8)
        for row in profile.rows:
            assert row.fit.converged
            assert row.fit.loglik_max >= BULK_MULTISTART[row.s] - 1e-8

    def test_degrees_equal_order_support_cap(self):
        # n = m: the likelihood stays finite past the smallest eigenvalue, but
        # both families stop at the branch support the sampler draws from
        batch = make_batch(30, 4, n=2)
        cap = (1.0 - 1e-6) * np.linalg.eigvalsh(batch.matrices).min()
        gauss = fit_mle(batch, FitSpec(family="gaussian"), 2)
        assert gauss.beta == pytest.approx(101.9457, abs=1e-4)
        assert gauss.beta <= cap
        kotz = fit_mle(batch, FitSpec(family="kotz", s=1.0), 2)
        assert kotz.beta <= cap
        assert kotz.loglik_max >= gauss.loglik_max - 1e-8

    def test_flat_tail_not_converged(self):
        # m = 1: for q < (3 - n)/2 the likelihood rises without bound as beta
        # approaches the smallest observation, so a search that ends there
        # with such a q has found no maximum
        batch = sample_batch(GbsParams(n=2, xi=[[3.2]], beta=[[0.35]]),
                             kotz_kernel(0.3, 0.13, 2.5, 2, 1), 20, 1004)
        kotz = fit_mle(batch, FitSpec(family="kotz", s=3.0), 2)
        beta_max = (1.0 - 1e-6) * batch.matrices.min()
        assert kotz.beta == pytest.approx(beta_max, rel=1e-6)
        assert kotz.q < 0.5
        assert not kotz.converged

    def test_unit_order_above_threshold_converged(self):
        # the same flag leaves an m = 1 fit whose q is above (3 - n)/2 alone
        batch = per_draw_svd_batch(GbsParams(n=2, xi=[[0.5]], beta=[[1.0]]),
                                   kotz_kernel(2.0, 0.5, 1.0, 2, 1), 30, 6)
        kotz = fit_mle(batch, FitSpec(family="kotz", s=3.0), 2)
        assert 0.5 < kotz.q < 1.0
        assert kotz.converged


class TestLogBetaSearch:
    """The Newton solve for beta in ln beta, on the Gaussian's closed-form
    profile and within the Kotz solve."""

    def test_gaussian_profile_is_loglik(self):
        # the value is loglik at the closed-form Xi up to one constant, its
        # slope and curvature the central differences of the value, also
        # 1e-8 below beta_max, where log|G| bends sharply for n > m
        from matrixbs import fit as fit_module

        xi3 = np.array([[0.7, 0.1, 0.0], [0.1, 0.5, 0.05], [0.0, 0.05, 0.4]])
        for T, n in ((read_batch(DATA / "paper_k20_round1_popB.csv").matrices, 6),
                     (_boundary_batch(2).matrices, 2),
                     (make_batch(30, 33, xi=xi3, n=7).matrices, 7)):
            prep = fit_module._Prepared(T)
            K, m = T.shape[:2]

            def value(x):
                return fit_module._gaussian_profile(prep, n, x)[0]

            diffs = []
            for gap in (1e-8, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-4):
                x = math.log(prep.beta_max * (1.0 - gap))
                beta = math.exp(x)
                A = T / beta + beta * np.linalg.inv(T) - 2.0 * np.eye(m)
                xi = _sqrtm(A.sum(axis=0) / (K * n))
                diffs.append(value(x) - loglik(T, n, beta, xi, gaussian_kernel(n, m)))
                _, slope, curvature = fit_module._gaussian_profile(prep, n, x)
                # a power of two, so that x + h and x - h are exact, at most
                # 1/200 of the distance to the pole of log|G| at ln lambda_min:
                # there the value is good only to eps / (1 - beta / lambda_min)
                h = 2.0 ** math.floor(math.log2(5e-3 * min(math.log(prep.min_lam) - x, 1e-2)))
                assert slope == pytest.approx((value(x + h) - value(x - h)) / (2 * h),
                                              rel=1e-5, abs=1e-5)
                assert curvature == pytest.approx(
                    (value(x + h) - 2.0 * value(x) + value(x - h)) / h ** 2, rel=1e-4, abs=1e-3)
            assert np.ptp(diffs) <= 1e-9 * max(1.0, abs(diffs[0]))

    @pytest.mark.parametrize("root,end", [(-3.0, 0), (-0.01, 0), (0.5, 1), (-20.0, -1)])
    def test_zero_of_known_slope(self, root, end):
        # the profile -ln cosh(x - root) over x = ln beta in [-ln 1e6, 0]: its
        # maximum inside the range, or the end of the range the slope points
        # past; at root -20 tanh rounds to 1 and the curvature to 0, where
        # the step goes to the bound
        from matrixbs import fit as fit_module

        def profile(x):
            t = math.tanh(x - root)
            return -math.log(math.cosh(x - root)), -t, -(1.0 - t * t)

        x, evals, success = fit_module._newton_log_beta(profile, -0.1, -math.log(1e6), 0.0, 100)
        assert success and evals <= 31
        assert x == pytest.approx({0: root, 1: 0.0, -1: -math.log(1e6)}[end], abs=1e-10)

    @pytest.mark.parametrize("s", [0.5, 1.5, 4.0])
    def test_kotz_slope_is_profile_derivative(self, s):
        # the envelope theorem: at the joint (M, q) solution at fixed beta the
        # partial derivative in ln beta is the derivative of the profile itself
        T, n, beta, h = read_batch(DATA / "paper_k20_round1_popB.csv").matrices, 6, 95.0, 1e-4
        betas = beta * np.exp([-h, 0.0, h])
        profile, theta, q, converged, slope = _solve_at_betas(T, n, s, betas)
        assert converged.all()
        lower, _, upper = profile.value(np.full(3, s), np.log(betas), theta, q)
        assert slope[1] == pytest.approx((upper - lower) / (2 * h), rel=1e-5)

    @pytest.mark.parametrize("spec", [FitSpec(family="gaussian"), FitSpec(family="kotz", s=1.5),
                                      FitSpec(family="kotz", s=0.5)],
                             ids=["gaussian", "kotz s=1.5", "kotz s=0.5"])
    @pytest.mark.parametrize("batch,n", [
        pytest.param(read_batch(DATA / "paper_k20_round1_popB.csv"), 6, id="popB"),
        _profile_fixtures()[3]])
    def test_scaled_data_scale_beta(self, batch, n, spec):
        # 4 T is exact in floating point and has the optimum (4 beta, Xi, q):
        # the search pins beta to far below the width of its old bracket
        T = batch.matrices
        res = fit_mle(T, spec, n)
        scaled = fit_mle(4.0 * T, spec, n)
        assert scaled.beta == pytest.approx(4.0 * res.beta, rel=1e-10, abs=0.0)
        assert scaled.xi == pytest.approx(res.xi, rel=1e-10, abs=1e-10 * np.abs(res.xi).max())
        assert res.converged and scaled.converged

    def test_degrees_equal_order_ends_at_cap(self):
        # n = m: the slope is still positive at beta_max, so both fits end there
        batch = make_batch(30, 4, n=2)
        cap = (1.0 - 1e-6) * np.linalg.eigvalsh(batch.matrices).min()
        for spec in (FitSpec(family="gaussian"), FitSpec(family="kotz", s=1.0)):
            res = fit_mle(batch, spec, 2)
            assert res.beta == pytest.approx(cap, rel=1e-12)
            assert res.beta <= cap

    def test_kotz_solves_per_row(self):
        # the popB default grid took 19 to 25 profile solves per row by a
        # derivative-free search in ln beta
        batch = read_batch(DATA / "paper_k20_round1_popB.csv")
        rows = profile_s_grid(batch, n=6).rows
        assert all(row.fit.converged for row in rows)
        assert np.median([row.fit.iterations for row in rows]) <= 14

    @pytest.mark.parametrize("family", ["gaussian", "kotz"])
    def test_iteration_budget_caps_search(self, family):
        # the budget counts the Gaussian search's evaluations beyond its
        # start and the Kotz Newton steps; a fit that spends it is returned
        # flagged, not raised
        batch = read_batch(DATA / "paper_k20_round1_popB.csv")
        res = fit_mle(batch, FitSpec(family=family, max_iter=2), 6)
        assert not res.converged
        assert res.iterations == (3 if family == "gaussian" else 2)
        assert math.isfinite(res.loglik_max)


class TestFitSpec:
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_kotz_power_positive_finite(self, s):
        with pytest.raises(DomainError):
            FitSpec(family="kotz", s=s)

    def test_iteration_budget_positive(self):
        with pytest.raises(DomainError):
            FitSpec(max_iter=0)


class TestBicStar:
    def test_zero(self):
        assert bic_star(0.0, 0, 20) == 0.0

    def test_sample_size_twenty_factor(self):
        # per-parameter penalty ln(22) - ln(24)
        factor = math.log(22.0) - math.log(24.0)
        assert factor == pytest.approx(-0.08701, abs=5e-6)
        assert bic_star(0.0, 3, 20) == pytest.approx(3 * factor, abs=1e-12)

    def test_affine_in_arguments(self):
        assert (bic_star(-10.0, 4, 20) - bic_star(0.0, 4, 20)) == pytest.approx(20.0)
        assert (bic_star(0.0, 5, 20) - bic_star(0.0, 4, 20)) == pytest.approx(
            math.log(22.0) - math.log(24.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            bic_star(0.0, 1, 0)


class TestEvidenceGrade:
    @pytest.mark.parametrize("diff,expected", [
        (1.0, EvidenceGrade.WEAK),
        (4.0, EvidenceGrade.POSITIVE),
        (8.0, EvidenceGrade.STRONG),
        (11.31758, EvidenceGrade.VERY_STRONG),   # grading fixture
        (12.05738, EvidenceGrade.VERY_STRONG),
        (15.66898, EvidenceGrade.VERY_STRONG),
        (16.81938, EvidenceGrade.VERY_STRONG),
        (13.85258, EvidenceGrade.VERY_STRONG),
        (0.0, EvidenceGrade.WEAK),
        (2.0, EvidenceGrade.POSITIVE),
        (6.0, EvidenceGrade.STRONG),
        (10.0, EvidenceGrade.VERY_STRONG),
    ])
    def test_grades(self, diff, expected):
        assert evidence_grade(diff) is expected

    def test_monotone(self):
        order = [EvidenceGrade.WEAK, EvidenceGrade.POSITIVE, EvidenceGrade.STRONG,
                 EvidenceGrade.VERY_STRONG]
        grades = [order.index(evidence_grade(d)) for d in np.linspace(0.0, 15.0, 151)]
        assert grades == sorted(grades)

    def test_negative_rejected(self):
        with pytest.raises(NegativeDiffError):
            evidence_grade(-0.5)


class TestProfileGrid:
    def test_default_grid_shape(self):
        assert len(DEFAULT_S_GRID) == 10

    @pytest.mark.parametrize("grid", [DEFAULT_S_GRID, ()], ids=["default", "empty"])
    def test_one_observation_raises(self, grid):
        with pytest.raises(DomainError):
            profile_s_grid(make_batch(1, 11), grid, 6)

    def test_empty_grid(self):
        assert profile_s_grid(make_batch(20, 11), (), 6).rows == []

    def test_table_layout(self):
        batch = make_batch(20, 11)
        profile = profile_s_grid(batch, (0.5, 1.0, 2.0), 6,
                                 spec=FitSpec(seed=0))
        assert profile.column_names() == (
            "s", "beta", "alpha11", "alpha12", "alpha22", "r", "q", "bic_diff")
        assert len(profile.rows) == 3
        for row in profile.rows:
            values = profile.row_values(row)
            assert len(values) == 8
            assert values[0] == row.s

    def test_gaussian_data_mostly_weak(self):
        # on Gaussian-generated data the Kotz gain should be modest
        diffs = []
        for seed in range(20):
            batch = make_batch(20, 900 + seed)
            profile = profile_s_grid(batch, (1.0,), 6,
                                     spec=FitSpec(seed=seed))
            diffs.append(abs(profile.rows[0].bic_diff))
        assert np.median(diffs) < 10.0

    def test_kotz_data_detected(self):
        kernel = kotz_kernel(22.0, 7.5, 1.0, 6, 2)
        wins = 0
        for seed in range(20):
            batch = make_batch(20, 1000 + seed, kernel=kernel)
            profile = profile_s_grid(batch, (1.0,), 6,
                                     spec=FitSpec(seed=seed))
            row = profile.rows[0]
            # positive difference means the Kotz row beats the baseline
            if (profile.baseline.bic_star - row.fit.bic_star) > 6.0:
                wins += 1
        assert wins >= 16

    @staticmethod
    def _assert_same_fit(row, single):
        assert row.loglik_max == single.loglik_max
        assert row.beta == single.beta
        assert np.array_equal(row.xi, single.xi)
        assert row.q == single.q
        assert row.converged == single.converged
        assert row.iterations == single.iterations

    @pytest.mark.parametrize("batch,n,grid", [
        pytest.param(read_batch(DATA / "paper_k20_round1_popB.csv"), 6, DEFAULT_S_GRID,
                     id="popB default grid"),
        pytest.param(_bulk_batch(), 8, (1.0, 1.5), id="kotz m=3 K=2000")])
    def test_rows_equal_single_fits(self, batch, n, grid):
        # the powers are fitted in lockstep, each row as fit_mle fits it alone
        for row in profile_s_grid(batch, grid, n).rows:
            self._assert_same_fit(row.fit, fit_mle(batch, FitSpec(family="kotz", s=row.s), n))

    def test_rows_end_in_different_rounds(self):
        # s = 1 ends after 5 Newton steps and s = 0.3 after 8; s = 0.05, which
        # takes 111, spends the budget of 9: each row leaves at its own step
        batch = read_batch(DATA / "paper_k20_round1_popB.csv")
        rows = profile_s_grid(batch, (0.05, 0.3, 1.0), 6, spec=FitSpec(max_iter=9)).rows
        assert [(row.fit.iterations, row.fit.converged) for row in rows] == [
            (9, False), (8, True), (5, True)]
        for row in rows:
            single = fit_mle(batch, FitSpec(family="kotz", s=row.s, max_iter=9), 6)
            self._assert_same_fit(row.fit, single)

    def test_failed_solve_ends_its_row(self, monkeypatch):
        # a Newton step that is not finite leaves its row where the step
        # before left it, flagged not converged; the other rows go on unchanged
        from matrixbs import fit as fit_module

        batch = read_batch(DATA / "paper_k20_round1_popB.csv")
        digamma, newton, calls, solve = fit_module.digamma, fit_module._KotzProfile.newton, [], {}

        def fail_third_step_of_first_row(a):
            calls.append(len(a))
            value = digamma(a)
            if len(calls) == 3:
                value[0] = math.nan
            return value

        def recorded(self, *args):
            solve.update(profile=self, args=args)
            return newton(self, *args)

        monkeypatch.setattr(fit_module, "digamma", fail_third_step_of_first_row)
        monkeypatch.setattr(fit_module._KotzProfile, "newton", recorded)
        failed, other = profile_s_grid(batch, (0.5, 1.5), 6).rows
        monkeypatch.undo()
        assert calls[2] == 2
        assert not failed.fit.converged and failed.fit.iterations == 3
        # the first row alone, from the same start, for the two steps before
        s, x, theta, q, lo, hi, _ = (arg[:1] for arg in solve["args"])
        x, _, q, *_ = newton(solve["profile"], s, x, theta, q, lo, hi, np.array([2]))
        assert (failed.fit.beta, failed.fit.q) == (math.exp(x[0]), q[0])
        self._assert_same_fit(other.fit, fit_mle(batch, FitSpec(family="kotz", s=1.5), 6))

    @pytest.mark.parametrize("grid", [(1.0,), (0.5, 1.0, 2.0, 4.0)])
    def test_dataset_prepared_once(self, grid, monkeypatch):
        # the rows share one prepared dataset, moment guess and Gaussian fit
        from matrixbs import fit as fit_module

        counts = {}

        def counted(name):
            original = getattr(fit_module, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(fit_module, name, wrapper)

        for name in ("_Prepared", "init_guess", "_fit_gaussian"):
            counted(name)
        profile = profile_s_grid(make_batch(20, 11), grid, 6)
        assert len(profile.rows) == len(grid)
        assert counts == {"_Prepared": 1, "init_guess": 1, "_fit_gaussian": 1}

    def test_bad_grid(self):
        batch = make_batch(5, 1)
        with pytest.raises(DomainError):
            profile_s_grid(batch, (0.5, -1.0), 6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid(self, bad):
        batch = make_batch(5, 1)
        with pytest.raises(DomainError):
            profile_s_grid(batch, (0.5, bad), 6)


class TestProfiledStart:
    """Each power starts at its ray's maximum over (q, scale) in closed form."""

    @pytest.mark.parametrize("batch,n", [
        pytest.param(read_batch(DATA / "paper_k20_round1_popB.csv"), 6, id="popB"),
        pytest.param(_bulk_batch(), 8, id="kotz m=3 K=2000")])
    def test_start_is_ray_maximum(self, batch, n):
        # the closed-form value is the solver's value there, its derivatives
        # in q and ln c vanish, and it is never below the q = 1 start
        from matrixbs import fit as fit_module

        prep = fit_module._Prepared(batch.matrices)
        profile = fit_module._KotzProfile(prep, n)
        gauss = fit_mle(batch, FitSpec(), n)
        s = np.array(DEFAULT_S_GRID)
        q, theta, value = profile.start(s, np.log([gauss.beta]),
                                        profile.theta_of(gauss.xi)[None])
        x = np.full(len(s), math.log(gauss.beta))
        assert np.isfinite(value).all()
        assert (value[0] >= value[1] - 1e-12 * np.abs(value[1])).all()
        for kind in (0, 1):
            direct = profile.value(s, x, theta[kind, 0], q[kind, 0])
            assert direct == pytest.approx(value[kind, 0], rel=1e-12, abs=0.0)
        h = 1e-5
        for dq, dc in ((h, 0.0), (0.0, h)):   # steps in ln q and ln c
            up, down = (profile.value(s, x, theta[0, 0] * math.exp(sign * dc),
                                      q[0, 0] * math.exp(sign * dq)) for sign in (1, -1))
            assert (np.abs(up - down) / (2 * h) <= 1e-8 * np.abs(value[0, 0])).all(), (dq, dc)

    def test_gamma_shape_solves_its_equation(self):
        mpmath = pytest.importorskip("mpmath")
        from matrixbs import fit as fit_module

        g = np.geomspace(1e-12, 1e3, 151)
        a = fit_module._gamma_shape(g, np.full(g.shape, 1e300))
        mpmath.mp.dps = 50
        for a_k, g_k in zip(a, g):
            got = mpmath.log(a_k) - mpmath.digamma(a_k)
            assert abs(float((got - g_k) / g_k)) <= 1e-12, g_k

    def test_equal_variates_cap_q(self):
        # g = 0, all u equal: the shape runs to the cap, with no warning
        from matrixbs import fit as fit_module

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = fit_module._gamma_shape(np.array([0.0, -1e-17]), np.array([1e13, 1e13]))
        assert (a == 1e13).all()

    @pytest.mark.parametrize("family", ["gaussian", "kotz"])
    @pytest.mark.parametrize("batch,n,max_iter", [
        pytest.param(read_batch(DATA / "paper_k20_round1_popB.csv"), 6, 5000, id="popB"),
        pytest.param(read_batch(DATA / "paper_k20_round1_popB.csv"), 6, 2, id="budget spent"),
        pytest.param(make_batch(30, 4, n=2), 2, 5000, id="n=m cap"),
        *(pytest.param(*fixture.values, 5000, id=fixture.id) for fixture in _profile_fixtures())])
    def test_loglik_max_is_loglik(self, batch, n, max_iter, family):
        # the solvers' values plus the family's constant are the likelihood
        res = fit_mle(batch, FitSpec(family=family, s=1.5, max_iter=max_iter), n)
        m = batch.matrices.shape[1]
        kernel = (gaussian_kernel(n, m) if family == "gaussian"
                  else kotz_kernel(res.q, res.r, 1.5, n, m))
        assert res.loglik_max == pytest.approx(loglik(batch, n, res.beta, res.xi, kernel),
                                               rel=1e-12, abs=0.0)

    def test_start_traces_once_and_steps_evaluate_once(self, monkeypatch):
        # one trace per start point whatever the number of powers, and one
        # log|G| slope per trial evaluation: nothing is evaluated twice
        from matrixbs import fit as fit_module

        batch = read_batch(DATA / "paper_k20_round1_popB.csv")
        trace, slope, point = fit_module._Prepared.trace, fit_module.log_gfactor_slope, \
            fit_module._KotzProfile.point
        counts = {"trace": 0, "slope": 0, "point": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += len(args[1]) if name == "trace" else 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fit_module._Prepared, "trace", counted("trace", trace))
        monkeypatch.setattr(fit_module._KotzProfile, "point", counted("point", point))
        for grid in ((1.0,), DEFAULT_S_GRID):
            gauss_evals = fit_mle(batch, FitSpec(), 6).iterations
            monkeypatch.setattr(fit_module, "log_gfactor_slope", counted("slope", slope))
            counts.update(trace=0, slope=0, point=0)
            rows = profile_s_grid(batch, grid, 6).rows
            monkeypatch.setattr(fit_module, "log_gfactor_slope", slope)
            assert counts["trace"] == 2
            assert counts["slope"] - gauss_evals == counts["point"]
            assert counts["point"] >= 1 + max(row.fit.iterations for row in rows)

    @pytest.mark.parametrize("s,most,maximum", [(0.05, 120, -358.7299502247006),
                                                (0.1, 30, -358.71570518855515),
                                                (0.25, 12, -358.674428949756)])
    def test_small_power_steps(self, s, most, maximum):
        # the profiled start: 430, 150 and 33 steps from the q = 1 start, to
        # the same maxima; on the flat ridge at s = 0.05 the Newton decrement
        # of 1e-10 leaves 1.6e-12 of the value
        res = fit_mle(read_batch(DATA / "paper_k20_round1_popB.csv"),
                      FitSpec(family="kotz", s=s), 6)
        assert res.converged and res.iterations <= most
        assert res.loglik_max == pytest.approx(maximum, rel=2e-12, abs=0.0)
