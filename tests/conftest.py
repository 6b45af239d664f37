import numpy as np
import pytest

from matrixbs.sampling import SampleBatch


def rand_spd(m, rng, lo=0.5, hi=2.0):
    """Random SPD matrix with eigenvalues in [lo, hi]."""
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    S = Q @ np.diag(rng.uniform(lo, hi, size=m)) @ Q.T
    return 0.5 * (S + S.T)


def per_draw_svd_batch(params, kernel, count, seed):
    """count draws of T as the sampler made them before its Kotz draws were
    stacked: per draw, one gamma radius then one normal direction (Kotz) or
    one normal matrix (Gaussian), the branch inverse by a 2-D SVD of Z Xi,
    and T = V'V.  Fixtures whose constants were computed on those draws
    take their data from here, so their data stays bit for bit the same."""
    rng = np.random.default_rng(seed)
    n, m = kernel.n, kernel.m
    out = []
    for _ in range(count):
        if kernel.family == "gaussian":
            Z = rng.standard_normal((n, m))
        else:
            w = rng.standard_gamma(kernel.gamma_shape())
            radius = (w / kernel.r) ** (1.0 / (2.0 * kernel.s))
            g = rng.standard_normal(n * m)
            Z = (radius * (g / np.linalg.norm(g))).reshape(n, m)
        H1, d, Qt = np.linalg.svd(Z @ params.xi, full_matrices=False)
        V = (H1 * (0.5 * (d + np.sqrt(d * d + 4.0)))) @ Qt @ params.delta
        S = V.T @ V
        out.append(0.5 * (S + S.T))
    return SampleBatch(m=m, count=count, matrices=np.array(out), params=params,
                       kernel=kernel, seed=seed)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
