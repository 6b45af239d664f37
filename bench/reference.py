"""Reference computations for the benchmark's output checks.

Everything here is written from the model's closed forms with numpy and
scipy only; nothing is imported from ``matrixbs``, so a check compares the
program against a second derivation, never against itself.

Model: T = V'V with the branch inverse V = H diag(l) Q' Delta of
Z = (V Delta^{-1} - V'^+ Delta) Xi^{-1}, where Delta^2 = beta, Y = Z Xi has
singular values d and right singular vectors Q, and l = (d + sqrt(d^2+4))/2.
Hence T = Delta Q diag(l^2) Q' Delta, and only an eigen-decomposition of
Y'Y is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import gammaln

AS_PUBLISHED = "as-published"
BRANCH = "branch"


@dataclass(frozen=True)
class Model:
    """Degrees n, scale beta (m x m), shape xi (m x m) and a generator kernel.

    family is "gaussian" or "kotz"; q, r, s are the Kotz parameters of
    h(u) proportional to u^(q-1) exp(-r u^s).
    """

    n: int
    beta: np.ndarray
    xi: np.ndarray
    family: str = "gaussian"
    q: float = 1.0
    r: float = 0.5
    s: float = 1.0

    @property
    def m(self) -> int:
        return self.xi.shape[0]

    @property
    def n_params(self) -> int:
        """Free parameters of the scalar-scale model as the paper counts them."""
        return 1 + self.m * (self.m + 1) // 2 + (2 if self.family == "kotz" else 0)

    def gamma_shape(self) -> float:
        """Shape a of the Gamma law of r u^s (Gaussian: u/2 ~ Gamma(nm/2))."""
        nm = self.n * self.m
        if self.family == "gaussian":
            return nm / 2
        return (2 * self.q + nm - 2) / (2 * self.s)


def sym_sqrt(B: np.ndarray) -> np.ndarray:
    w, P = np.linalg.eigh(B)
    return (P * np.sqrt(w)) @ P.T


def _symmetrise(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def draw_z(model: Model, count: int, rng: np.random.Generator) -> np.ndarray:
    """count draws of the n x m elliptical matrix Z with identity scale."""
    n, m = model.n, model.m
    if model.family == "gaussian":
        return rng.standard_normal((count, n, m))
    radius = (rng.standard_gamma(model.gamma_shape(), size=count) / model.r) \
        ** (1.0 / (2.0 * model.s))
    g = rng.standard_normal((count, n * m))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return (radius[:, None] * g).reshape(count, n, m)


def generate(model: Model, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, m, m) stack of T drawn on the branch with l >= 1."""
    Y = draw_z(model, count, rng) @ model.xi
    d2, Q = np.linalg.eigh(np.swapaxes(Y, 1, 2) @ Y)
    d = np.sqrt(np.maximum(d2, 0.0))
    ell2 = (0.5 * (d + np.sqrt(d * d + 4.0))) ** 2
    delta = sym_sqrt(model.beta)
    return _symmetrise(delta @ ((Q * ell2[:, None, :]) @ np.swapaxes(Q, 1, 2)) @ delta)


def whitened(T: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """W = Delta^{-1} T Delta^{-1} for each matrix of the stack."""
    dinv = np.linalg.inv(sym_sqrt(beta))
    return _symmetrise(dinv @ T @ dinv)


def u_statistic(T: np.ndarray, model: Model) -> np.ndarray:
    """u = tr Xi^{-2} (W + W^{-1} - 2 I) per matrix; equals tr Z'Z on the branch."""
    W = whitened(T, model.beta)
    M = np.linalg.inv(model.xi @ model.xi)
    inner = W + np.linalg.inv(W) - 2.0 * np.eye(model.m)
    return np.maximum(np.einsum("ij,kji->k", M, inner), 0.0)


def _log_mv_gamma(m: int, a: float) -> float:
    return m * (m - 1) / 4 * math.log(math.pi) + sum(
        float(gammaln(a - j / 2)) for j in range(m))


def _log_h(model: Model, u: np.ndarray) -> np.ndarray:
    nm = model.n * model.m
    if model.family == "gaussian":
        return -0.5 * nm * math.log(2.0 * math.pi) - 0.5 * u
    q, r, s = model.q, model.r, model.s
    a = model.gamma_shape()
    const = (math.log(s) + a * math.log(r) + float(gammaln(nm / 2))
             - 0.5 * nm * math.log(math.pi) - float(gammaln(a)))
    return const + (q - 1.0) * np.log(u) - r * u**s


def logpdf_T(T: np.ndarray, model: Model, convention: str = BRANCH) -> np.ndarray:
    """Closed-form log T-density per matrix of a (K, m, m) stack, general beta.

    log f = nm/2 ln pi - m ln 2 - ln Gamma_m(n/2) - n/2 ln|beta| - n ln|Xi|
            + sum_i [(n-m) ln|1 - 1/d_i| + ln(1 + 1/d_i)]
            + sum_{i<j} ln|1 - 1/(d_i d_j)| + (n-m-1)/2 ln|T| + ln h(u),
    d the eigenvalues of Delta^{-1} T Delta^{-1}.  The branch convention adds
    m ln 2 and gives -inf off the branch region (some d_i <= 1).
    """
    T = np.asarray(T, dtype=float)
    n, m = model.n, model.m
    d = np.linalg.eigvalsh(whitened(T, model.beta))
    value = (0.5 * n * m * math.log(math.pi) - m * math.log(2.0)
             - _log_mv_gamma(m, n / 2)
             - 0.5 * n * np.linalg.slogdet(model.beta)[1]
             - n * np.linalg.slogdet(model.xi)[1])
    value = value + np.sum(np.log1p(1.0 / d), axis=1)
    if n > m:
        value = value + (n - m) * np.sum(np.log(np.abs(1.0 - 1.0 / d)), axis=1)
    iu, ju = np.triu_indices(m, k=1)
    value = value + np.sum(np.log(np.abs(1.0 - 1.0 / (d[:, iu] * d[:, ju]))), axis=1)
    value = value + 0.5 * (n - m - 1) * np.linalg.slogdet(T)[1]
    value = value + _log_h(model, u_statistic(T, model))
    if convention == BRANCH:
        value = np.where(d.min(axis=1) > 1.0, value + m * math.log(2.0), -np.inf)
    return value


def loglik(T: np.ndarray, model: Model, convention: str = BRANCH) -> float:
    return float(np.sum(logpdf_T(T, model, convention)))


def gaussian_shape(T: np.ndarray, n: int, beta: float) -> np.ndarray:
    """Closed-form Gaussian shape at fixed scalar beta: Xi^2 = sum A_k / (K n),
    A_k = T_k / beta + beta T_k^{-1} - 2 I."""
    K, m, _ = T.shape
    A = T / beta + beta * np.linalg.inv(T) - 2.0 * np.eye(m)
    return sym_sqrt(_symmetrise(A.sum(axis=0)) / (K * n))


def bic_star(loglik_max: float, n_params: int, K: int) -> float:
    """Sclove's sample-size-adjusted criterion used by the paper."""
    return -2.0 * loglik_max + n_params * (math.log(K + 2) - math.log(24.0))


def grade(diff: float) -> str:
    d = abs(diff)
    if d < 2.0:
        return "Weak"
    if d < 6.0:
        return "Positive"
    if d < 10.0:
        return "Strong"
    return "Very strong"


def radial_pvalue(T: np.ndarray, model: Model) -> float:
    """KS p-value of the radial law: u ~ chi2(nm) (Gaussian) or
    r u^s ~ Gamma(a) (Kotz), u computed from T under the model."""
    u = u_statistic(T, model)
    if model.family == "gaussian":
        return float(stats.kstest(u, "chi2", args=(model.n * model.m,)).pvalue)
    return float(stats.kstest(model.r * u**model.s, "gamma",
                              args=(model.gamma_shape(),)).pvalue)


def self_test() -> list[str]:
    """Checks of the references themselves; returns failure messages."""
    failures = []
    t = np.geomspace(5.0, 500.0, 41)
    for alpha, b in ((0.4, 50.0), (1.3, 80.0)):
        uni = Model(n=1, beta=np.array([[b]]), xi=np.array([[alpha]]))
        ours = logpdf_T(t[:, None, None], uni, AS_PUBLISHED)
        theirs = stats.fatiguelife.logpdf(t, alpha, scale=b)
        if not np.allclose(ours, theirs, rtol=1e-12, atol=1e-12):
            failures.append(f"n=m=1 density differs from fatiguelife (alpha {alpha})")
    rng = np.random.default_rng(12345)
    for model in (Model(n=6, beta=100.0 * np.eye(2), xi=np.array([[1.0, 0.3], [0.3, 0.8]])),
                  Model(n=8, beta=np.array([[100.0, 10, 0], [10, 120, 5], [0, 5, 90]]),
                        xi=np.diag([1.0, 0.7, 1.2]), family="kotz", q=2.0, r=0.5, s=1.5)):
        T = generate(model, 200, rng)
        gap = logpdf_T(T, model, BRANCH) - logpdf_T(T, model, AS_PUBLISHED)
        if not np.allclose(gap, model.m * math.log(2.0), rtol=0, atol=1e-12):
            failures.append(f"conventions differ by other than m ln 2 (m={model.m})")
        # on the branch W + W^{-1} - 2I = Xi Z'Z Xi, so u must equal tr Z'Z
        Z = draw_z(model, 200, np.random.default_rng(7))
        u = u_statistic(generate(model, 200, np.random.default_rng(7)), model)
        if not np.allclose(u, np.einsum("kij,kij->k", Z, Z), rtol=1e-9):
            failures.append(f"u statistic is not tr Z'Z on generated draws (m={model.m})")
    return failures


if __name__ == "__main__":
    problems = self_test()
    print("\n".join(problems) if problems else "reference self-test passed")
    raise SystemExit(1 if problems else 0)
