"""Maximum likelihood for Kotz-kernel Birnbaum-Saunders matrix models.

The model has a scalar scale beta (beta I_m), an SPD shape matrix Xi, and
for the Kotz family a fixed power s with (r, q).  The log-likelihood is
the T-density of density.log_t_density summed over the batch, from one
eigendecomposition T_k = P_k diag(lambda_k) P_k' per dataset (_Prepared).
A_k = T_k / beta + beta T_k^{-1} - 2 I shares T_k's eigenvectors p, so each
u_k = tr(Xi^{-2} A_k) sums the exact eigenvalues (lambda - beta)^2 /
(lambda beta) against p' Xi^{-2} p, with no cancellation as beta nears an
eigenvalue.  Both families search beta only up to beta_max = BETA_MARGIN *
min eigenvalue: every observation then lies in the branch region, the
support of the sampler's law, under either convention.  For n > m the
likelihood is -inf beyond it; for n = m it stays finite there, but that is
not the sampled law.

Gaussian: at fixed beta the shape is in closed form, Xi^2 = sum_k A_k / (K n),
so the fit maximises the profile likelihood over ln beta alone, by Newton
steps on its closed-form slope and curvature (_gaussian_profile,
_newton_log_beta), over [beta_max / 1e6, beta_max], below which the
likelihood is flat.

Kotz: the likelihood is invariant under (Xi, r) -> (c Xi, r c^(2s)), so r
is pinned at 1/2, which keeps the Gaussian nested at (q, s) = (1, 1).  One
Newton solve over (ln beta, M = Xi^{-2}, q), on the same range of beta, fits
every power of a grid in one batch (_KotzProfile), each from its closed-form
maximum over (q, scale) on a ray of M.  A fit held at the bottom of the range,
at the cap on q, or for m = 1 at beta_max with q < (3 - n)/2, where the
likelihood is unbounded, is not converged.

Model comparison uses the modified criterion

    BIC* = -2 loglik_max + n_p (ln(K + 2) - ln 24),

where K is the sample size and n_p the number of free parameters as the
paper counts them: 1 + m(m+1)/2, plus 2 for the Kotz family.  With r
pinned, the effective Kotz extra count is 1 (q).  Differences are graded
Weak / Positive / Strong / VeryStrong at thresholds 2, 6 and 10.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .density import Convention, log_t_density
from .errors import DegenerateDataWarning, DomainError, NegativeDiffError
from .kernels import GAUSSIAN, KOTZ, KernelSpec
from .linalg import (_spd_eigh, check_spd, digamma, log_minus_digamma, log_mv_gamma,
                     sym_part, trigamma)
from .sampling import SampleBatch
from .transform import log_abs_gfactor, log_gfactor_slope

__all__ = ["EvidenceGrade", "FitResult", "FitSpec", "InitialGuess", "ProfileRow",
           "ProfileResult", "bic_star", "evidence_grade", "fit_mle", "init_guess",
           "loglik", "profile_s_grid", "DEFAULT_S_GRID"]

DEFAULT_S_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0, 4.0, 5.0)

# beta stays below this fraction of the smallest observed eigenvalue so the
# branch-region logarithms stay defined.
BETA_MARGIN = 1.0 - 1e-6
# the search covers log beta in [beta_max / BETA_RANGE, beta_max]; below it
# the likelihood is flat, so a Kotz fit ending there is not converged
BETA_RANGE = 1e6
# the Gaussian fit starts STEP0 below ln beta_max, near where optima sit;
# a step of either fit snaps to ln beta_max within XATOL (_step_log_beta)
STEP0 = 0.1
XATOL = 1e-10
# Kotz rate, pinned: the likelihood is invariant under (Xi, r) -> (c Xi, r c^(2s)),
# and r = 1/2 keeps the Gaussian nested at (q, s) = (1, 1)
KOTZ_R = 0.5
# the Newton decrement that ends a solve, of either family
INNER_TOL = 1e-10
# the Kotz fit caps ln(q - (2 - nm)/2) here: at q near e^30 = 1e13 the
# terms of a K = 20 likelihood reach 1e15, and their rounding exceeds 0.1
LOG_Q_CAP = 30.0


def _as_stack(data, n: int | None = None) -> np.ndarray:
    """The (K, m, m) stack of data, checked against degrees n if given."""
    if isinstance(data, SampleBatch):
        mats = data.matrices
    else:
        mats = np.asarray(data, dtype=float)
    if mats.ndim == 2:
        mats = mats[None, :, :]
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DomainError(f"data must be a (K, m, m) stack, got shape {mats.shape}")
    if n is not None and n < mats.shape[1]:
        raise DomainError(f"need degrees n >= m, got n={n}, m={mats.shape[1]}")
    return mats


class _Prepared:
    """Per-dataset quantities that do not depend on the parameters, from the
    one batched eigh T_k = P_k diag(lambda_k) P_k' that validates the data."""

    def __init__(self, mats: np.ndarray):
        T, lam, P = _spd_eigh(mats, "T")
        self.K, self.m = K, m = T.shape[:2]
        # (K, m) view of an (m, K) array: the layout log_abs_gfactor works in
        self.lam = np.ascontiguousarray(lam.T).T
        self.sum_log_lam = float(np.sum(np.log(lam)))
        self.min_lam = float(lam.min())
        self.beta_max = BETA_MARGIN * self.min_lam
        # M is held as theta, its upper triangle: E[k m + i] @ theta = p_ki' M p_ki
        # for the (K m, p) stack E, column-major: one column per entry of theta
        self.triu = rows, cols = np.triu_indices(m)
        ev = np.swapaxes(P, 0, 1)   # (m, K, m): entry a of eigenvector i of T_k at [a, k, i]
        outer = ev[rows] * ev[cols] * (1.0 + (rows != cols))[:, None, None]
        self.E = outer.reshape(len(rows), K * m).T
        self.sum_T, self.sum_inv = T.sum(axis=0), np.tensordot(ev / lam, ev, ([1, 2], [1, 2]))

    def trace(self, theta, beta):
        """u_k = tr(M A_k) per row of theta, for beta a float or of shape (rows, 1, 1)."""
        w = (self.lam - beta) ** 2 / (self.lam * beta)   # the eigenvalues of A_k
        return np.einsum("...i,...i->...", (self.E @ theta[..., None]).reshape(w.shape), w)


def _prepare_fit(data, n: int) -> tuple[np.ndarray, _Prepared]:
    """The stack of data and its _Prepared, for a fit: at least two observations."""
    mats = _as_stack(data, n)
    prep = _Prepared(mats)
    if prep.K < 2:
        raise DomainError("fitting needs at least two observations")
    return mats, prep


@np.errstate(over="ignore", invalid="ignore")
def loglik(data, n: int, beta: float, xi, kernel: KernelSpec,
           convention: Convention = Convention.AS_PUBLISHED) -> float:
    """Sample log-likelihood of the scalar-scale model.

    Sums the T-density of density.log_t_density over the batch from the
    cached eigenvalues of the data, so it equals the sum of logpdf_T.  For
    degrees n > m, observations with an eigenvalue at or below beta are
    outside the branch support and pull the value to -inf.  A beta that is
    not finite raises DomainError.
    """
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    mats = _as_stack(data, n)
    prep = _Prepared(mats)
    xi = check_spd(xi, "xi")
    if xi.shape[0] != prep.m:
        raise DomainError(f"xi is {xi.shape[0]}x{xi.shape[0]}, data has m={prep.m}")
    kernel.check_dims(n, prep.m)
    beta = float(beta)
    # for n > m an eigenvalue at or below beta leaves log(1 - beta/lambda)
    # undefined: the observation is outside the branch support
    if beta <= 0.0 or (n > prep.m and beta >= prep.min_lam):
        return -math.inf
    w, P = np.linalg.eigh(xi)
    if w[0] <= 0.0:
        return -math.inf
    theta = ((P / (w * w)) @ P.T)[prep.triu]   # Xi^{-2}
    u = prep.trace(theta, beta)
    value = log_t_density(prep.lam / beta, u, prep.sum_log_lam, n, prep.m * math.log(beta),
                          float(np.log(w).sum()), kernel, convention, total=True)
    # a term overflows (nan or +inf) only at an extreme beta, where the
    # likelihood tends to -inf: u grows like beta or 1/beta, |G| polynomially
    return value if value < math.inf else -math.inf


@dataclass(frozen=True)
class InitialGuess:
    beta0: float
    xi0: np.ndarray


def init_guess(data, n: int) -> InitialGuess:
    """Moment-style starting point from arithmetic and harmonic means.

    Diagonal series t_ii give the classical univariate estimates
    beta_i = sqrt(am * hm) and alpha_i = sqrt(2 (sqrt(am/hm) - 1)); beta0
    is their geometric mean, and off-diagonal shape entries are scaled by
    the correlation of the sample mean matrix.  The shape seed is floored
    to an SPD matrix.  Degenerate series (am = hm) fall back to alpha = 0.5.
    """
    mats = _as_stack(data)
    K, m, _ = mats.shape
    if K < 2:
        raise DomainError("initialisation needs at least two observations")
    diag = np.einsum("kii->ki", mats)
    if diag.min() <= 0.0:
        raise DomainError("diagonal entries must be positive")
    am = diag.mean(axis=0)
    hm = 1.0 / np.mean(1.0 / diag, axis=0)
    betas = np.sqrt(am * hm)
    alphas = np.empty(m)
    for i in range(m):
        ratio = am[i] / hm[i]
        if ratio <= 1.0 + 1e-12:
            warnings.warn(f"degenerate diagonal series {i}: falling back to alpha=0.5",
                          DegenerateDataWarning, stacklevel=2)
            alphas[i] = 0.5
        else:
            alphas[i] = math.sqrt(2.0 * (math.sqrt(ratio) - 1.0))
    beta0 = float(np.exp(np.mean(np.log(betas))))

    mean_T = mats.mean(axis=0)
    denom = np.sqrt(np.outer(np.diag(mean_T), np.diag(mean_T)))
    rho = mean_T / denom
    xi0 = rho * np.sqrt(np.outer(alphas, alphas))
    np.fill_diagonal(xi0, alphas)
    w, P = np.linalg.eigh(sym_part(xi0))
    xi0 = sym_part((P * np.maximum(w, 1e-3)) @ P.T)
    return InitialGuess(beta0=beta0, xi0=xi0)


@dataclass(frozen=True)
class FitSpec:
    """Model family and optimiser options for fit_mle."""

    family: str = GAUSSIAN
    s: float = 1.0                      # fixed Kotz power; ignored for Gaussian
    max_iter: int = 5000
    seed: int = 0                       # recorded only: both fits are deterministic
    convention: Convention = Convention.AS_PUBLISHED

    def __post_init__(self):
        if self.family not in (GAUSSIAN, KOTZ):
            raise DomainError(f"unknown family {self.family!r}")
        if not math.isfinite(self.s) or (self.family == KOTZ and self.s <= 0.0):
            raise DomainError(f"fixed Kotz power s must be positive and finite, got {self.s}")
        if self.max_iter < 1:
            raise DomainError(f"iteration budget must be at least 1, got {self.max_iter}")


@dataclass
class FitResult:
    """Estimates and diagnostics from one maximum-likelihood fit."""

    family: str
    s: float | None
    beta: float
    xi: np.ndarray
    r: float | None
    q: float | None
    loglik_max: float
    n_params: int
    bic_star: float
    converged: bool
    iterations: int
    seed: int
    n: int
    m: int
    K: int
    convention: Convention = Convention.AS_PUBLISHED


def bic_star(loglik_max: float, n_p: int, K: int) -> float:
    """Modified information criterion -2 loglik + n_p (ln(K+2) - ln 24)."""
    if K < 1:
        raise DomainError(f"sample size must be at least 1, got {K}")
    return -2.0 * loglik_max + n_p * (math.log(K + 2) - math.log(24.0))


class EvidenceGrade(enum.Enum):
    WEAK = "Weak"
    POSITIVE = "Positive"
    STRONG = "Strong"
    VERY_STRONG = "Very strong"


def evidence_grade(diff: float) -> EvidenceGrade:
    """Grade an absolute BIC* difference: thresholds 2, 6, 10."""
    if diff < 0.0:
        raise NegativeDiffError(f"difference must be nonnegative, got {diff}")
    if diff < 2.0:
        return EvidenceGrade.WEAK
    if diff < 6.0:
        return EvidenceGrade.POSITIVE
    if diff < 10.0:
        return EvidenceGrade.STRONG
    return EvidenceGrade.VERY_STRONG


def _result(prep: _Prepared, spec: FitSpec, n: int, beta: float, xi: np.ndarray, value: float,
            converged: bool, iterations: int, q: float | None = None) -> FitResult:
    """The FitResult of spec's family at (beta, xi), and for Kotz (KOTZ_R, q), from
    its solver's value there, the log-likelihood up to terms free of the parameters."""
    K, m = prep.K, prep.m
    kotz = spec.family == KOTZ
    # the Gaussian's trace terms sum to -K n m / 2 at its closed-form shape
    value += ((n - m - 1) / 2 * prep.sum_log_lam - K * log_mv_gamma(m, n / 2)
              + K * (math.log(spec.s) + math.lgamma(n * m / 2) if kotz
                     else -n * m / 2 * (math.log(2.0) + 1.0))
              - K * m * math.log(2.0) * (spec.convention is Convention.AS_PUBLISHED))
    n_p = 1 + m * (m + 1) // 2 + (2 if kotz else 0)
    return FitResult(
        family=spec.family, s=spec.s if kotz else None,
        beta=beta, xi=xi, r=KOTZ_R if kotz else None, q=q,
        loglik_max=value, n_params=n_p, bic_star=bic_star(value, n_p, K),
        converged=converged, iterations=iterations,
        seed=spec.seed, n=n, m=m, K=K, convention=spec.convention,
    )


def _step_log_beta(x, step, lo, hi):
    """x + step in ln beta within [lo, hi], for floats or arrays.  It reaches hi
    only if it overshoots it by more than 8 times the remaining distance, else
    goes halfway, snapping to hi within XATOL: for m = 1 the likelihood can
    rise without bound towards beta_max past a maximum below it."""
    x_next = np.maximum(x + step, lo)
    top = (x_next >= hi) & ~(x_next - hi > 8.0 * (hi - x)) & (hi - x > XATOL)
    return np.where(top, 0.5 * (x + hi), np.minimum(x_next, hi))


def _newton_log_beta(profile, x: float, lo: float, hi: float, budget: int):
    """Maximise a profile likelihood, profile(x) = (value, slope, curvature),
    over x = ln beta in [lo, hi] from x, by steps of slope / |curvature| (to
    the bound the slope points at where the curvature is zero), moved by
    _step_log_beta and halved until the value rises.  Stops, converged, at a
    bound the slope points past or after the step from a Newton decrement of
    INNER_TOL or less, which need only stay finite; fails at a point that is
    not finite or beyond budget evaluations after the first.  Returns the
    last x, the evaluations and success."""
    (value, slope, curvature), evals = profile(x), 1
    while not ((x >= hi and slope > 0.0) or (x <= lo and slope < 0.0)):
        if evals > budget or not math.isfinite(value + slope + curvature):
            return x, evals, False
        step = (slope / abs(curvature) if curvature
                else math.copysign(math.inf, slope) if slope else 0.0)
        small = slope * step <= INNER_TOL
        floor = -math.inf if small else value - 1e-14 * max(1.0, abs(value))
        x_try = float(_step_log_beta(x, step, lo, hi))
        while True:
            point, evals = profile(x_try), evals + 1
            if point[0] > floor:
                break
            if evals > budget:
                return x, evals, False
            x_try = x + 0.5 * (x_try - x)
        x, (value, slope, curvature) = x_try, point
        if small:
            break
    return x, evals, True


def _gaussian_shape(prep: _Prepared, n: int, beta: float) -> np.ndarray:
    """The closed-form Gaussian Xi^2 = sum_k A_k / (K n) at beta."""
    return (sym_part(prep.sum_T / beta + beta * prep.sum_inv) / (prep.K * n)
            - (2.0 / n) * np.eye(prep.m))


def _gaussian_profile(prep: _Prepared, n: int, x: float):
    """The Gaussian log-likelihood at beta = e^x and the closed-form S = Xi^2,
    up to a constant, l = -(K n / 2)(ln|S| + m x) + sum_k log|G(lambda_k e^-x)|,
    and its slope and curvature in x: with S' = dS/dx and S'' = S + (2/n) I,
    l' = G' - (K n / 2)(m + tr S^-1 S') and
    l'' = G'' - (K n / 2)(m + (2/n) tr S^-1 - tr(S^-1 S' S^-1 S')).
    (-inf, nan, nan) where S is not positive definite.  At x = ln beta_max,
    beta is beta_max itself, as the fit reports it."""
    beta = prep.beta_max if x == math.log(prep.beta_max) else math.exp(x)
    half_kn, m = 0.5 * prep.K * n, prep.m
    w, P = np.linalg.eigh(_gaussian_shape(prep, n, beta))
    if w[0] <= 0.0:
        return -math.inf, math.nan, math.nan
    dS = P.T @ sym_part(beta * prep.sum_inv - prep.sum_T / beta) @ P / (prep.K * n)
    log_g, g_slope, g_curv = log_gfactor_slope(prep.lam / beta, n, m)
    inv = 1.0 / w
    return (float(log_g - half_kn * (np.log(w).sum() + m * x)),
            float(g_slope - half_kn * (m + np.diagonal(dS) @ inv)),
            float(g_curv - half_kn * (m + (2.0 / n) * inv.sum() - inv @ (dS * dS) @ inv)))


def _fit_gaussian(prep: _Prepared, spec: FitSpec, n: int) -> FitResult:
    """Newton in ln beta on the closed-form profile from STEP0 below
    ln beta_max; iterations counts its evaluations, the start included."""
    top, points = math.log(prep.beta_max), {}   # the profile at each x evaluated
    x, evals, success = _newton_log_beta(
        lambda x: points.setdefault(x, _gaussian_profile(prep, n, x)),
        top - STEP0, top - math.log(BETA_RANGE), top, spec.max_iter)
    beta = prep.beta_max if x == top else math.exp(x)
    w, P = np.linalg.eigh(_gaussian_shape(prep, n, beta))
    xi = sym_part((P * np.sqrt(np.maximum(w, 0.0))) @ P.T)
    return _result(prep, spec, n, beta, xi, points[x][0], success, evals)


class _KotzProfile:
    """The Kotz log-likelihood of one dataset over x = ln beta, M = Xi^{-2}
    and q, r pinned at KOTZ_R, for a fixed power s per row, and its maximum.

    M is held as theta, its upper triangle.  With A_k = e^-x T_k +
    e^x T_k^{-1} - 2 I, u_k = tr(M A_k) is linear in theta, and with
    a = (q - q_floor) / s, q_floor = (2 - nm)/2, the log-likelihood is, up to
    a constant,

        K [a ln r - lgamma(a)] + (K n / 2) ln|M| + sum_k [(q - 1) ln u_k - r u_k^s]
            - (K n m / 2) x + sum_k log|G(lambda_k e^-x)|

    for q_floor < q <= q_cap.  In M its maximum solves the elliptical
    scatter equations (Kent & Tyler 1991); in q it is concave.  All rows
    are stepped in one batch, each row's arithmetic its own.
    """

    def __init__(self, prep: _Prepared, n: int):
        m = prep.m
        rows, cols = prep.triu
        p = len(rows)
        # dup @ theta = vec(M), so tr(M A) = (vec(A) @ dup) @ theta
        dup = np.zeros((m * m, p))
        dup[rows * m + cols, np.arange(p)] = 1.0
        dup[cols * m + rows, np.arange(p)] = 1.0
        self.prep, self.n, self.dup, self.entry = prep, n, dup, dup.argmax(axis=1)
        self.eye = (rows == cols).astype(float)         # vec(I) @ dup
        self.half_kn = 0.5 * prep.K * n
        self.q_floor = (2.0 - n * m) / 2.0
        self.q_cap = self.q_floor + math.exp(LOG_Q_CAP)

    def theta_of(self, xi: np.ndarray) -> np.ndarray:
        return sym_part(np.linalg.inv(xi @ xi))[self.prep.triu]

    def matrix(self, theta: np.ndarray) -> np.ndarray:
        """M per row of theta; non-finite entries read 0 (the row is infeasible)."""
        M = theta[..., self.entry].reshape(theta.shape[:-1] + 2 * (self.prep.m,))
        return np.where(np.isfinite(M), M, 0.0)

    def stack(self, x):
        """e^x per row, as (rows, 1, 1), and the (rows, K, p) stacks of A_k and dA_k / dx."""
        beta, lam, m = np.exp(x)[:, None, None], self.prep.lam, self.prep.m
        weights = np.stack([(lam - beta) ** 2, (beta - lam) * (beta + lam)]) / (lam * beta)
        return (beta, *sum(weights[..., i, None] * self.prep.E[i::m] for i in range(m)))

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def start(self, s, x, theta):
        """Per (kind, point, power) q, theta and the value on the ray c M0 through each point
        (x, M0) of theta, c^s = K a / (r sum_k u_k^s): the ray's maximum, where r u^s is
        Gamma(a, 1) (_gamma_shape), then q = 1.  -inf where c M0 over- or underflows."""
        prep, K, m, beta = self.prep, self.prep.K, self.prep.m, np.exp(x)[:, None, None]
        log_u = np.log(prep.trace(theta, beta))
        sum_log_u = log_u.sum(axis=1)[:, None]
        sum_u_s = np.exp(s[:, None] * log_u[:, None, :]).sum(axis=2)
        a = _gamma_shape(np.log(sum_u_s / K) - s * sum_log_u / K, math.exp(LOG_Q_CAP) / s)
        q = np.stack([np.minimum(self.q_floor + s * a, self.q_cap), np.ones_like(a)])
        a = (q - self.q_floor) / s
        log_c = np.log(K * a / (KOTZ_R * sum_u_s)) / s
        log_det = np.log(np.linalg.eigvalsh(self.matrix(theta))).sum(axis=1)[:, None]
        log_g, _ = log_abs_gfactor(prep.lam / beta, self.n, m, total=True)
        # at c, sum_k r u_k^s = K a
        value = (K * (a * math.log(KOTZ_R) - _lgamma(a)) + self.half_kn * (m * log_c + log_det)
                 + (q - 1.0) * (K * log_c + sum_log_u) - K * a
                 + (log_g - self.half_kn * m * x)[:, None])
        theta = theta[:, None, :] * np.exp(log_c)[..., None]
        feasible = np.isfinite(theta).all(axis=-1) & (np.exp(log_c) > 0.0) & np.isfinite(value)
        return q, theta, np.where(feasible, value, -np.inf)

    def _value(self, s, x, q, u, w, log_g):
        """The log-likelihood per row up to a constant from u_k = tr(M A_k), the eigenvalues
        w of M and log|G|; -inf unless M is positive definite and q > q_floor."""
        a = (q - self.q_floor) / s
        feasible = (w[:, 0] > 0.0) & (a > 0.0)
        log_u = np.log(u)
        value = (self.prep.K * (a * math.log(KOTZ_R) - _lgamma(a))
                 + self.half_kn * np.log(w).sum(axis=1) + (q - 1.0) * log_u.sum(axis=1)
                 - KOTZ_R * np.exp(s[:, None] * log_u).sum(axis=1)
                 - self.half_kn * self.prep.m * x + log_g)
        return np.where(feasible & np.isfinite(value), value, -np.inf)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def point(self, s, x, theta, q):
        """The per-observation work at each row's point: A, dA/dx, u = A theta, du = dA theta,
        the eigensystem of M, log|G| with its slope and curvature in x; and the value."""
        beta, A, dA = self.stack(x)
        u, du = ((B @ theta[:, :, None])[:, :, 0] for B in (A, dA))
        w, P = np.linalg.eigh(self.matrix(theta))
        gfactor = log_gfactor_slope(self.prep.lam / beta, self.n, self.prep.m)
        return [A, dA, u, du, w, P, *gfactor], self._value(s, x, q, u, w, gfactor[0])

    def value(self, s, x, theta, q):
        """The log-likelihood per row up to a constant (_value)."""
        return self.point(s, x, theta, q)[1]

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def newton(self, s, x, theta, q, x_lo, x_hi, budget):
        """Maximise each row over (x, theta, q) from the given point, x within
        [x_lo, x_hi]; equal bounds give the profile at one beta.

        Each step rescales M along its ray in closed form, then takes a joint
        Newton step, its Hessian scaled to a unit diagonal and flipped to
        negative definite, halved until M stays SPD, q > q_floor and the
        value rises; q is clipped at q_cap, and x moves by _step_log_beta.
        x at a bound its slope points past is held there, out of the system.
        A row stops, converged, at a Newton decrement of INNER_TOL or less, or
        at a step that is not finite, once halving is spent or after budget
        steps.  Returns per row x, theta, q, the steps taken, converged, the
        slope in x at the last step and the value at the last point."""
        K, m, r, dup, p = self.prep.K, self.prep.m, KOTZ_R, self.dup, theta.shape[1]
        x, theta, q = x.copy(), theta.copy(), q.copy()
        steps, converged, slope = np.zeros(len(s), int), np.zeros(len(s), bool), np.zeros(len(s))
        live = np.arange(len(s))
        cache, value = self.point(s, x, theta, q)
        while live.size:
            s_l, x_l, q_l, lo, hi = s[live], x[live], q[live], x_lo[live], x_hi[live]
            A, dA, u, du, w, P, log_g, g_slope, g_curv = cache
            a = (q_l - self.q_floor) / s_l
            # M -> c M to its maximum on its ray, c^s = K a / (r sum_k u_k^s)
            c = (K * a / (r * np.exp(s_l[:, None] * np.log(u)).sum(axis=1))) ** (1.0 / s_l)
            th, u, du, w = (v * c[:, None] for v in (theta[live], u, du, w))
            value_l = self._value(s_l, x_l, q_l, u, w, log_g)
            d2u = u + 2.0 * (th * self.eye).sum(axis=1)[:, None]   # d^2 A / dx^2 = A + 2 I
            log_u = np.log(u)
            u_s = np.exp(s_l[:, None] * log_u)
            W = (P / w[:, None, :]) @ np.swapaxes(P, 1, 2)
            # first and second derivatives of (q - 1) ln u - r u^s in u
            d1 = (q_l - 1.0)[:, None] / u - (r * s_l)[:, None] * u_s / u
            d2 = -(q_l - 1.0)[:, None] / u ** 2 - (r * s_l * (s_l - 1.0))[:, None] * u_s / u ** 2
            grad = np.column_stack([
                self.half_kn * (W.reshape(-1, m * m) @ dup) + (d1[:, None, :] @ A)[:, 0],
                K * (math.log(r) - digamma(a)) / s_l + log_u.sum(axis=1),
                g_slope - self.half_kn * m + (d1 * du).sum(axis=1)])
            # d^2 ln|M| in directions E, F is -tr(W E W F): the Kronecker W x W
            kron = (W[:, :, None, :, None] * W[:, None, :, None, :]).reshape(-1, m * m, m * m)
            hess = np.empty((live.size, p + 2, p + 2))
            hess[:, :p, :p] = ((np.swapaxes(A, 1, 2) * d2[:, None, :]) @ A
                               - self.half_kn * (dup.T @ kron @ dup))
            hess[:, :p, p] = hess[:, p, :p] = ((1.0 / u)[:, None, :] @ A)[:, 0]
            hess[:, p, p] = -K * trigamma(a) / s_l ** 2
            hess[:, :p, p + 1] = hess[:, p + 1, :p] = ((d2 * du)[:, None, :] @ A
                                                       + d1[:, None, :] @ dA)[:, 0]
            hess[:, p, p + 1] = hess[:, p + 1, p] = (du / u).sum(axis=1)
            hess[:, p + 1, p + 1] = g_curv + (d2 * du ** 2 + d1 * d2u).sum(axis=1)
            held = np.where(grad[:, p + 1] > 0.0, x_l >= hi, x_l <= lo)
            slope[live] = grad[:, p + 1]
            grad[held, p + 1] = hess[held, p + 1, :] = hess[held, :, p + 1] = 0.0
            hess[held, p + 1, p + 1] = -1.0
            # scaled to a unit diagonal: at small beta theta is 1e12 times finer than q
            d = 1.0 / np.sqrt(np.abs(np.diagonal(hess, axis1=1, axis2=2)))
            hess = hess * (d[:, :, None] * d[:, None, :])
            finite = (np.isfinite(hess).all(axis=(1, 2)) & np.isfinite(grad * d).all(axis=1)
                      & np.isfinite(value_l))
            w, P = np.linalg.eigh(np.where(finite[:, None, None], hess, np.eye(p + 2)))
            w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max(axis=1, keepdims=True))
            step = d * (P @ (((grad * d)[:, None, :] @ P)[:, 0] / w)[:, :, None])[:, :, 0]
            decrement = np.where(finite, (grad * step).sum(axis=1), np.nan)
            step[held, p + 1] = 0.0
            x_next = _step_log_beta(x_l, step[:, p + 1], lo, hi)
            # a step cut short in x is cut short along its whole direction
            cut = np.where(step[:, p + 1] != 0.0, (x_next - x_l) / step[:, p + 1], 1.0)
            step = step * cut[:, None]
            step[:, p + 1] = x_next - x_l
            # a fall within rounding; a step whose predicted rise is itself
            # below INNER_TOL, within the value's rounding, needs only stay feasible
            small = decrement <= INNER_TOL
            floor = np.where(small, -np.inf, value_l - 1e-14 * np.maximum(1.0, np.abs(value_l)))
            trying = np.isfinite(decrement)
            for halvings in range(30):
                if not (rows := np.flatnonzero(trying)).size:
                    break
                q_next = np.minimum(q_l + step[:, p], self.q_cap)
                x_try = x_next if halvings == 0 else x_l + step[:, p + 1]
                th_try = th[rows] + step[rows, :p]
                trial, trial_value = self.point(s_l[rows], x_try[rows], th_try, q_next[rows])
                rose = trial_value > floor[rows]
                for kept, new in zip(cache, trial):
                    kept[rows[rose]] = new[rose]
                rows = rows[rose]
                th[rows], q_l[rows], x_l[rows] = th_try[rose], q_next[rows], x_try[rows]
                value_l[rows], trying[rows] = trial_value[rose], False
                step[trying] *= 0.5
            keep = live[finite]
            theta[keep], q[keep], x[keep], value[keep] = (th[finite], q_l[finite], x_l[finite],
                                                          value_l[finite])
            steps[live] += 1
            converged[live] = small
            going = finite & ~small & ~trying & (steps[live] < budget[live])
            live, cache = live[going], [kept[going] for kept in cache]
        return x, theta, q, steps, converged, slope, value


def _lgamma(a):
    """ln Gamma(a) elementwise, where a > 0; 0 elsewhere."""
    return np.array([math.lgamma(v) for v in np.where(a > 0.0, a, 1.0).flat]).reshape(np.shape(a))


def _gamma_shape(g, cap):
    """The shape a of a Gamma law whose variates v have ln mean(v) - mean(ln v)
    = g, the root of ln a - psi(a) = g, by Newton steps in 1/a from Minka's
    (2002) closed-form start, at most cap; for g <= 0 (equal variates), cap."""
    z = np.maximum(12.0 * g / (3.0 - g + np.sqrt((g - 3.0) ** 2 + 24.0 * g)), 1.0 / cap)
    for _ in range(4):
        value, slope = log_minus_digamma(1.0 / z)
        z = np.maximum(z + (value - g) * z * z / slope, 1.0 / cap)
    return 1.0 / z


def _fit_kotz(prep: _Prepared, specs: list[FitSpec], n: int, guess: InitialGuess,
              gauss: FitResult) -> list[FitResult]:
    """One Kotz fit per spec, all in one batched Newton solve over [beta_max /
    BETA_RANGE, beta_max].  Each power starts from the best of four points on the
    rays through the Gaussian optimum and the moment guess: each ray's maximum over
    (q, scale) in closed form, and its radial maximum at q = 1 (_KotzProfile.start);
    iterations counts its Newton steps.  A power whose fit has no finite
    log-likelihood, as from a start without one, raises DomainError."""
    profile, R = _KotzProfile(prep, n), len(specs)
    top = math.log(prep.beta_max)
    bottom = top - math.log(BETA_RANGE)
    starts = [(gauss.beta, gauss.xi), (min(guess.beta0, 0.9 * prep.beta_max), guess.xi0)]
    s = np.array([spec.s for spec in specs])
    x = np.log([beta for beta, _ in starts])
    q, theta, value = profile.start(s, x, np.array([profile.theta_of(xi) for _, xi in starts]))
    best = np.unravel_index(value.reshape(2 * len(starts), R).argmax(axis=0), value.shape[:2])
    x, theta, q, steps, converged, slope, value = profile.newton(
        s, x[best[1]], theta[(*best, np.arange(R))], q[(*best, np.arange(R))], np.full(R, bottom),
        np.full(R, top), np.array([spec.max_iter for spec in specs]))
    # none is a maximum: at the cap on q the likelihood still rose, at the
    # bottom it is flat, for m = 1 and q < (3 - n)/2 it is unbounded at the top
    converged &= (q < profile.q_cap) & ~((x <= bottom) & (slope < 0.0))
    converged &= ~((prep.m == 1) & (x == top) & (q < (3.0 - n) / 2.0))
    w, P = np.linalg.eigh(profile.matrix(theta))
    with np.errstate(divide="ignore", invalid="ignore"):  # a row with no finite fit raises below
        xis = sym_part((P / np.sqrt(w)[:, None, :]) @ np.swapaxes(P, 1, 2))
    fits = []
    for spec, x_r, xi, value_r, q_r, ok, k in zip(specs, x, xis, value, q, converged, steps):
        beta = prep.beta_max if x_r == top else math.exp(x_r)
        fits.append(_result(prep, spec, n, beta, xi, float(value_r), bool(ok), int(k), float(q_r)))
        if not math.isfinite(fits[-1].loglik_max):
            raise DomainError(f"Kotz power s={spec.s:g}: no finite likelihood from its start")
    return fits


def fit_mle(data, spec: FitSpec, n: int) -> FitResult:
    """Maximise the log-likelihood of one family: for the Gaussian a Newton
    solve in ln beta on the profile with the shape in closed form, for the
    Kotz with r pinned at 1/2 one Newton solve over (ln beta, M, q),
    M = Xi^{-2}.  Deterministic; max_iter caps the Gaussian's profile
    evaluations after its start and the Kotz Newton steps, and a fit that
    exhausts it is returned flagged, not raised."""
    mats, prep = _prepare_fit(data, n)
    gauss = _fit_gaussian(prep, replace(spec, family=GAUSSIAN), n)
    if spec.family == KOTZ:
        return _fit_kotz(prep, [spec], n, init_guess(mats, n), gauss)[0]
    return gauss


@dataclass
class ProfileRow:
    s: float
    fit: FitResult
    bic_diff: float          # BIC*_Kotz - BIC*_Gaussian
    grade: EvidenceGrade


@dataclass
class ProfileResult:
    baseline: FitResult
    rows: list[ProfileRow] = field(default_factory=list)

    def column_names(self) -> tuple[str, ...]:
        m = self.baseline.m
        names = ["s", "beta"]
        names += [f"alpha{i + 1}{j + 1}" for i in range(m) for j in range(i, m)]
        names += ["r", "q", "bic_diff"]
        return tuple(names)

    def row_values(self, row: ProfileRow) -> list[float]:
        m = row.fit.m
        upper = [row.fit.xi[i, j] for i in range(m) for j in range(i, m)]
        return [row.s, row.fit.beta, *upper, row.fit.r, row.fit.q, row.bic_diff]


def profile_s_grid(data, s_values=DEFAULT_S_GRID, n: int = 6, *,
                   spec: FitSpec | None = None) -> ProfileResult:
    """Fit the Gaussian baseline once, then one Kotz model per fixed s.

    The data, the moment guess and the Gaussian optimum are prepared once,
    and the powers are fitted in one batched solve (_fit_kotz): a row equals
    fit_mle at its power bit for bit.  Rows that spend the
    iteration budget are kept flagged; the table is always emitted in full.
    """
    mats, prep = _prepare_fit(data, n)
    base = spec if spec is not None else FitSpec()
    # FitSpec raises for a power that is not positive and finite
    specs = [replace(base, family=KOTZ, s=float(s)) for s in s_values]
    guess = init_guess(mats, n)
    gauss = _fit_gaussian(prep, replace(base, family=GAUSSIAN), n)
    fits = _fit_kotz(prep, specs, n, guess, gauss)
    return ProfileResult(baseline=gauss, rows=[
        ProfileRow(s=fit.s, fit=fit, bic_diff=diff, grade=evidence_grade(abs(diff)))
        for fit, diff in ((fit, fit.bic_star - gauss.bic_star) for fit in fits)])
