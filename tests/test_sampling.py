import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from matrixbs import sampling
from matrixbs.density import Convention, logpdf_T
from matrixbs.errors import DomainError, OutsideSupportError
from matrixbs.kernels import gaussian_kernel, kotz_kernel, sample_symmetric
from matrixbs.sampling import SampleBatch, sample_T, sample_V, sample_batch
from matrixbs.transform import JACOBI_SWEEPS, JACOBI_TOL, ORTHO_TOL, GbsParams, forward_map

from conftest import rand_spd


def branch_pdf(t, params, kernel):
    try:
        return math.exp(logpdf_T(np.array([[t]]), params, kernel,
                                 Convention.BRANCH_NORMALIZED))
    except OutsideSupportError:
        return 0.0


class TestSampleV:
    def test_branch_support_scalar(self):
        params = GbsParams(n=1, xi=np.eye(1), beta=np.eye(1))
        kernel = gaussian_kernel(1, 1)
        rng = np.random.default_rng(0)
        ts = np.array([sample_V(params, kernel, rng)[0, 0] ** 2 for _ in range(2000)])
        assert (ts >= 1.0 - 1e-12).all()  # every draw lands at or above the scale

    def test_right_inverse_reproduces_z(self, rng):
        params = GbsParams(n=4, xi=rand_spd(2, rng), beta=rand_spd(2, rng))
        kernel = gaussian_kernel(4, 2)
        draw_rng = np.random.default_rng(31)
        z_rng = np.random.default_rng(31)
        for _ in range(25):
            V = sample_V(params, kernel, draw_rng)
            Z = sample_symmetric(kernel, z_rng)
            assert np.abs(forward_map(V, params) - Z).max() < 1e-10

    def test_dim_mismatch(self):
        params = GbsParams(n=4, xi=np.eye(2), beta=np.eye(2))
        with pytest.raises(DomainError):
            sample_V(params, gaussian_kernel(3, 2), np.random.default_rng(0))


class TestSampleT:
    def test_spd_and_eigenvalue_floor(self, rng):
        params = GbsParams(n=6, xi=rand_spd(2, rng), beta=rand_spd(2, rng))
        kernel = gaussian_kernel(6, 2)
        sample_rng = np.random.default_rng(7)
        dinv = np.linalg.inv(params.delta)
        for _ in range(500):
            T = sample_T(params, kernel, sample_rng)
            assert np.allclose(T, T.T)
            scaled = dinv @ T @ dinv
            w = np.linalg.eigvalsh(0.5 * (scaled + scaled.T))
            assert w.min() >= 1.0 - 1e-10

    def test_cdf_against_quadrature(self):
        # empirical P(t < q) within 3 sigma of the quadrature CDF
        params = GbsParams(n=2, xi=np.array([[0.9]]), beta=np.array([[1.4]]))
        kernel = gaussian_kernel(2, 1)
        rng = np.random.default_rng(13)
        ts = np.array([sample_T(params, kernel, rng)[0, 0] for _ in range(10_000)])
        for q in (2.0, 3.5, 6.0):
            expected, _ = quad(lambda t: branch_pdf(t, params, kernel), 1.4, q)
            observed = float(np.mean(ts < q))
            se = math.sqrt(expected * (1 - expected) / ts.size)
            assert abs(observed - expected) < 3.0 * se

    def test_histogram_matches_density(self):
        # chi-squared goodness of fit against the branch-normalised density
        params = GbsParams(n=2, xi=np.eye(1), beta=np.eye(1))
        kernel = gaussian_kernel(2, 1)
        rng = np.random.default_rng(29)
        ts = np.array([sample_T(params, kernel, rng)[0, 0] for _ in range(10_000)])

        grid = np.linspace(1.0, 40.0, 4001)
        dens = np.array([branch_pdf(t, params, kernel) for t in grid])
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2
                                               * np.diff(grid))])
        cdf /= cdf[-1]
        n_bins = 20
        edges = np.interp(np.linspace(0.0, 1.0, n_bins + 1), cdf, grid)
        edges[0], edges[-1] = 1.0, np.inf
        probs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            p_bin, _ = quad(lambda t: branch_pdf(t, params, kernel), lo,
                            min(hi, np.inf), limit=200)
            probs.append(p_bin)
        probs = np.array(probs)
        probs /= probs.sum()
        counts, _ = np.histogram(ts, bins=edges)
        expected = probs * ts.size
        stat = float(np.sum((counts - expected) ** 2 / expected))
        pvalue = float(chi2.sf(stat, df=n_bins - 1))
        assert pvalue > 0.01


class TestSampleBatch:
    def test_shape_mirrors_experiment(self):
        params = GbsParams(n=6, xi=np.array([[1.0, 0.3], [0.3, 0.8]]),
                           beta=100.0 * np.eye(2))
        batch = sample_batch(params, gaussian_kernel(6, 2), 20, 42)
        assert batch.count == 20 and batch.m == 2
        assert batch.matrices.shape == (20, 2, 2)
        assert batch.seed == 42
        assert batch.params is params

    def test_seed_determinism(self):
        params = GbsParams(n=6, xi=np.eye(2), beta=np.eye(2))
        kernel = gaussian_kernel(6, 2)
        a = sample_batch(params, kernel, 10, 5)
        b = sample_batch(params, kernel, 10, 5)
        assert np.array_equal(a.matrices, b.matrices)

    def test_generator_input_records_no_seed(self):
        params = GbsParams(n=3, xi=np.eye(1), beta=np.eye(1))
        batch = sample_batch(params, gaussian_kernel(3, 1), 4,
                             np.random.default_rng(1))
        assert batch.seed is None

    def test_count_validation(self):
        params = GbsParams(n=3, xi=np.eye(1), beta=np.eye(1))
        with pytest.raises(DomainError):
            sample_batch(params, gaussian_kernel(3, 1), 0, 1)

    def test_batch_shape_validation(self):
        with pytest.raises(DomainError):
            SampleBatch(m=2, count=3, matrices=np.zeros((3, 2, 3)))


def per_draw_factors(Y):
    """Y = H1 diag(d) Q' for one (n, m) matrix Y, as loops over rows and
    rotations: eigh of Y'Y, then, unless the columns of Y Q are orthogonal
    to ORTHO_TOL, one-sided Jacobi sweeps until one finds no cosine above
    JACOBI_TOL.  Returns H1', d and Q'."""
    Qt = np.linalg.eigh(Y.T @ Y)[1][:, ::-1].T.copy()
    P = Qt @ Y.T  # one row per column of Y Q, descending
    m = len(P)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    d = np.sqrt(np.einsum("mn,mn->m", P, P))
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = [abs(np.einsum("n,n->", P[i], P[j])) / (d[i] * d[j]) for i, j in pairs]
        swept = max(cosines, default=0.0) > ORTHO_TOL
        for _ in range(JACOBI_SWEEPS if swept else 0):
            top = 0.0
            for i, j in pairs:
                aa, bb, g = (np.einsum("n,n->", P[i], P[i]), np.einsum("n,n->", P[j], P[j]),
                             np.einsum("n,n->", P[i], P[j]))
                top = max(top, abs(g) / np.sqrt(aa * bb))
                zeta = (bb - aa) / (2.0 * g)
                t = 0.0 if g == 0.0 else np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                for A in (P, Qt):
                    A[i], A[j] = c * A[i] - c * t * A[j], c * t * A[i] + c * A[j]
            d = np.sqrt(np.einsum("mn,mn->m", P, P))
            if not top > JACOBI_TOL:
                break
    if swept:
        order = np.argsort(-d)
        d, P, Qt = d[order], P[order], Qt[order]
    return P / d[:, None], d, Qt


def per_draw_oracle(params, kernel, count, seed):
    """The sampler as a loop: per draw one Z, per_draw_factors of Z Xi and
    one T.  The Kotz variates come as the stream draws them, all gamma
    radii then all normal directions, and the radii are one array power,
    since numpy's vectorised power may round a last bit differently from
    the scalar one."""
    rng = np.random.default_rng(seed)
    n, m = kernel.n, kernel.m
    if kernel.family == "gaussian":
        Zs = [rng.standard_normal((n, m)) for _ in range(count)]
    else:
        W = rng.standard_gamma(kernel.gamma_shape(), count)
        G = rng.standard_normal((count, n * m))
        radius = (W / kernel.r) ** (1.0 / (2.0 * kernel.s))
        Zs = [((rad / math.sqrt(np.einsum("i,i->", g, g))) * g).reshape(n, m)
              for rad, g in zip(radius, G)]
    out = []
    for Z in Zs:
        Ht, d, Qt = per_draw_factors(Z @ params.xi)
        V = (Ht * (0.5 * (d + np.sqrt(d * d + 4.0)))[:, None]).T @ Qt @ params.delta
        S = V.T @ V
        out.append(0.5 * (S + S.T))
    return np.array(out)


class TestBatchedSampler:
    @pytest.mark.parametrize("count", [1, 257])
    @pytest.mark.parametrize("full_beta", [False, True])
    @pytest.mark.parametrize("family", ["gaussian", "kotz"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_bit_identical_to_per_draw_loop(self, m, family, full_beta, count):
        rng = np.random.default_rng(1000 * m + count)
        n = m + 2
        beta = rand_spd(m, rng, 50.0, 150.0) if full_beta else 100.0
        params = GbsParams(n=n, xi=rand_spd(m, rng), beta=beta)
        kernel = (gaussian_kernel(n, m) if family == "gaussian"
                  else kotz_kernel(2.0, 0.5, 1.5, n, m))
        batch = sample_batch(params, kernel, count, 3000 + m)
        assert np.array_equal(batch.matrices,
                              per_draw_oracle(params, kernel, count, 3000 + m))

    @pytest.mark.parametrize("family", ["gaussian", "kotz"])
    def test_one_draw_views_follow_the_batch(self, family):
        # sample_T and sample_V are the batch path at K = 1; a Gaussian stack
        # also equals K one-draw calls, a Kotz stack (all radii, then all
        # directions) does not
        params = GbsParams(n=5, xi=np.array([[1.0, 0.3], [0.3, 0.8]]), beta=3.0)
        kernel = (gaussian_kernel(5, 2) if family == "gaussian"
                  else kotz_kernel(0.7, 2.0, 0.8, 5, 2))
        rng = np.random.default_rng(21)
        singles = [sample_T(params, kernel, rng) for _ in range(4)]
        rng = np.random.default_rng(21)
        assert np.array_equal(singles, [sample_batch(params, kernel, 1, rng).matrices[0]
                                        for _ in range(4)])
        rng = np.random.default_rng(21)
        for T in singles:
            V = sample_V(params, kernel, rng)
            S = V.T @ V
            assert np.array_equal(T, 0.5 * (S + S.T))
        batch = sample_batch(params, kernel, 4, 21)
        assert np.array_equal(batch.matrices, singles) == (family == "gaussian")

    def test_kernel_stack_equals_one_draw_calls(self):
        # a Gaussian stack is count one-draw calls; a Kotz stack draws count
        # gamma radii r R^(2s), then count normal directions
        gauss, kotz = gaussian_kernel(4, 3), kotz_kernel(2.0, 0.5, 1.5, 4, 3)
        stack = sample_symmetric(gauss, np.random.default_rng(8), 5)
        rng = np.random.default_rng(8)
        assert stack.shape == (5, 4, 3)
        assert np.array_equal(stack, [sample_symmetric(gauss, rng) for _ in range(5)])
        stack = sample_symmetric(kotz, np.random.default_rng(8), 5)
        rng = np.random.default_rng(8)
        radius = (rng.standard_gamma(kotz.gamma_shape(), 5) / 0.5) ** (1.0 / 3.0)
        G = rng.standard_normal((5, 12))
        expected = radius[:, None] * G / np.linalg.norm(G, axis=1)[:, None]
        assert stack.shape == (5, 4, 3)
        assert np.allclose(stack.reshape(5, 12), expected, rtol=1e-15, atol=0.0)
        rng = np.random.default_rng(8)
        assert not np.array_equal(stack, [sample_symmetric(kotz, rng) for _ in range(5)])

    @pytest.mark.parametrize("count", [1, 300])
    def test_traced_layers_called_once_per_batch(self, monkeypatch, count):
        # the benchmark times these two functions at their sampling bindings;
        # a batch that stops calling either leaves its per-layer figure empty
        calls = {"sample_symmetric": 0, "inverse_map_branch": 0}
        for name in calls:
            original = getattr(sampling, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(sampling, name, counted)
        params = GbsParams(n=8, xi=np.eye(3), beta=np.diag([100.0, 120.0, 90.0]))
        for kernel in (gaussian_kernel(8, 3), kotz_kernel(2.0, 0.5, 1.5, 8, 3)):
            sampling.sample_batch(params, kernel, count, 1)
        assert calls == {"sample_symmetric": 2, "inverse_map_branch": 2}


class TestImportanceSampling:
    def test_branch_mass_m2(self):
        # mass of the branch-normalised T-density estimated from an
        # independent shifted-Wishart proposal must be 1 within 3 s.e.
        from scipy.stats import wishart

        n, m = 6, 2
        params = GbsParams(n=n, xi=0.8 * np.eye(2), beta=np.eye(2))
        kernel = gaussian_kernel(n, m)
        df, scale = n, 1.2
        prop = wishart(df=df, scale=scale * np.eye(m))
        rng = np.random.default_rng(101)
        draws = prop.rvs(size=4000, random_state=rng)
        weights = []
        for W in draws:
            T = np.eye(m) + W
            log_target = logpdf_T(T, params, kernel, Convention.BRANCH_NORMALIZED)
            weights.append(math.exp(log_target - prop.logpdf(W)))
        weights = np.array(weights)
        se = weights.std(ddof=1) / math.sqrt(weights.size)
        assert abs(weights.mean() - 1.0) < 3.0 * se
