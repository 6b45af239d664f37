"""Maximum likelihood for Kotz-kernel Birnbaum-Saunders matrix models.

The model has a scalar scale beta (beta I_m), an SPD shape matrix Xi, and
for the Kotz family a fixed power s with (r, q).  The log-likelihood is
the T-density of density.log_t_density summed over the batch, from
per-observation eigenvalues cached once per dataset.  Both families search
beta only up to beta_max = BETA_MARGIN * min eigenvalue: every
observation then lies in the branch region, the support of the sampler's
law, under either convention.  For n > m the likelihood is -inf beyond
it; for n = m it stays finite there, but that is not the sampled law.

Both fits search beta alone, for the zero of the profile likelihood's
slope in ln beta over [beta_max / 1e6, beta_max], below which the
likelihood is flat (_search_log_beta).  By the envelope theorem that slope
is the partial derivative in ln beta at the maximising shape (and q), one
more pass over the cached traces.  Gaussian: at fixed beta the shape is in
closed form,

    Xi^2 = sum_k A_k(beta) / (K n),   A_k = T_k / beta + beta T_k^{-1} - 2 I.

Kotz: the likelihood is invariant under (Xi, r) -> (c Xi, r c^(2s)), so r
is pinned at 1/2, which keeps the Gaussian nested at (q, s) = (1, 1).  At
fixed beta a joint Newton solve maximises over M = Xi^{-2} and q (see
_KotzProfile), each from the previous solution; the first starts from the
better of the moment guess and the Gaussian optimum, both at q = 1.  A fit
that ends at the bottom of the range, at the cap on q, or for m = 1 at
beta_max with q < (3 - n)/2, where the likelihood is unbounded, is not
converged.  profile_s_grid computes the moment guess and the Gaussian
optimum once for every power.  Both fits are deterministic: the seed is
only recorded.

Model comparison uses the modified criterion

    BIC* = -2 loglik_max + n_p (ln(K + 2) - ln 24),

where K is the sample size and n_p the number of free parameters as the
paper counts them: 1 + m(m+1)/2, plus 2 for the Kotz family.  With r
pinned, the effective Kotz extra count is 1 (q).  Differences are graded
Weak / Positive / Strong / VeryStrong at thresholds 2, 6 and 10.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .density import Convention, log_t_density
from .errors import DegenerateDataWarning, DomainError, NegativeDiffError
from .kernels import GAUSSIAN, KOTZ, KernelSpec, gaussian_kernel, kotz_kernel
from .linalg import check_spd, digamma, sym_part, trigamma
from .sampling import SampleBatch
from .transform import log_gfactor_slope

__all__ = ["EvidenceGrade", "FitResult", "FitSpec", "InitialGuess", "ProfileRow",
           "ProfileResult", "bic_star", "evidence_grade", "fit_mle", "init_guess",
           "loglik", "outside_support", "profile_s_grid", "DEFAULT_S_GRID"]

DEFAULT_S_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0, 4.0, 5.0)

# beta stays below this fraction of the smallest observed eigenvalue so the
# branch-region logarithms stay defined.
BETA_MARGIN = 1.0 - 1e-6
# the search covers log beta in [beta_max / BETA_RANGE, beta_max]; below it
# the likelihood is flat, so a Kotz fit ending there is not converged
BETA_RANGE = 1e6
# the search's first step in ln beta, and where the Gaussian search starts
# below ln beta_max; it stops once its bracket is below XATOL wide or the
# profile's slope is below SLOPE_RTOL of the magnitudes of its terms
STEP0 = 0.1
XATOL = 1e-10
SLOPE_RTOL = 1e-13
# Kotz rate, pinned: the likelihood is invariant under (Xi, r) -> (c Xi, r c^(2s)),
# and r = 1/2 keeps the Gaussian nested at (q, s) = (1, 1)
KOTZ_R = 0.5
# Newton steps per Kotz profile point, and the Newton decrement that ends them
INNER_STEPS = 50
INNER_TOL = 1e-10
# the Kotz fit caps ln(q - (2 - nm)/2) here: at q near e^30 = 1e13 the
# terms of a K = 20 likelihood reach 1e15, and their rounding exceeds 0.1
LOG_Q_CAP = 30.0


def _as_stack(data) -> np.ndarray:
    if isinstance(data, SampleBatch):
        mats = data.matrices
    else:
        mats = np.asarray(data, dtype=float)
    if mats.ndim == 2:
        mats = mats[None, :, :]
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DomainError(f"data must be a (K, m, m) stack, got shape {mats.shape}")
    return mats


class _Prepared:
    """Per-dataset quantities that do not depend on the parameters."""

    def __init__(self, mats: np.ndarray):
        T = check_spd(mats, "T")
        self.K, self.m = T.shape[:2]
        lam = np.linalg.eigvalsh(T)
        # (K, m) view of an (m, K) array: the layout log_abs_gfactor works in
        self.lam = np.ascontiguousarray(lam.T).T
        self.sum_log_lam = float(np.sum(np.log(lam)))
        self.min_lam = float(lam.min())
        self.beta_max = BETA_MARGIN * self.min_lam
        # T and T^{-1} as (2, K, m*m): both traces are one matrix-vector product
        self.flat = np.stack([T, np.linalg.inv(T)]).reshape(2, self.K, -1)


def _loglik_prepared(prep: _Prepared, n: int, beta: float, xi: np.ndarray,
                     kernel: KernelSpec,
                     convention: Convention = Convention.AS_PUBLISHED) -> float:
    # for n > m an eigenvalue at or below beta leaves log(1 - beta/lambda)
    # undefined: the observation is outside the branch support
    if beta <= 0.0 or (n > prep.m and beta >= prep.min_lam):
        return -math.inf
    w, P = np.linalg.eigh(xi)
    if w[0] <= 0.0:
        return -math.inf
    inv_w2 = 1.0 / (w * w)
    tT, tI = prep.flat @ ((P * inv_w2) @ P.T).ravel()  # traces against Xi^{-2}
    u = np.maximum(tT / beta + beta * tI - 2.0 * inv_w2.sum(), 0.0)
    return log_t_density(prep.lam / beta, u, prep.sum_log_lam, n, prep.m * math.log(beta),
                         float(np.log(w).sum()), kernel, convention, total=True)


def loglik(data, n: int, beta: float, xi, kernel: KernelSpec,
           convention: Convention = Convention.AS_PUBLISHED) -> float:
    """Sample log-likelihood of the scalar-scale model.

    Sums the T-density of density.log_t_density over the batch from the
    cached eigenvalues of the data, so it equals the sum of logpdf_T.  For
    degrees n > m, observations with an eigenvalue at or below beta are
    outside the branch support and pull the value to -inf.
    """
    mats = _as_stack(data)
    prep = _Prepared(mats)
    xi = check_spd(xi, "xi")
    if xi.shape[0] != prep.m:
        raise DomainError(f"xi is {xi.shape[0]}x{xi.shape[0]}, data has m={prep.m}")
    if (kernel.n, kernel.m) != (n, prep.m):
        raise DomainError(
            f"kernel dims ({kernel.n}, {kernel.m}) do not match (n={n}, m={prep.m})")
    return _loglik_prepared(prep, n, float(beta), xi, kernel, convention)


def outside_support(data, beta: float) -> list[int]:
    """Indices of observations with an eigenvalue at or below beta.

    These are the observations outside the branch region; for degrees
    n > m they contribute -inf to the expanded log-likelihood.
    """
    mats = _as_stack(data)
    lam_min = np.linalg.eigvalsh(mats)[:, 0]
    return [int(k) for k in np.nonzero(lam_min <= beta)[0]]


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
    n_support_violations: int = 0


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


def _result(prep: _Prepared, spec: FitSpec, n: int, beta: float, xi: np.ndarray,
            converged: bool, iterations: int, q: float | None = None) -> FitResult:
    """The FitResult of spec's family at (beta, xi), and for Kotz (KOTZ_R, q)."""
    K, m = prep.K, prep.m
    kotz = spec.family == KOTZ
    kernel = kotz_kernel(q, KOTZ_R, spec.s, n, m) if kotz else gaussian_kernel(n, m)
    value = float(_loglik_prepared(prep, n, beta, xi, kernel, spec.convention))
    n_p = 1 + m * (m + 1) // 2 + (2 if kotz else 0)
    return FitResult(
        family=spec.family, s=spec.s if kotz else None,
        beta=beta, xi=xi, r=KOTZ_R if kotz else None, q=q,
        loglik_max=value, n_params=n_p, bic_star=bic_star(value, n_p, K),
        converged=converged, iterations=iterations,
        seed=spec.seed, n=n, m=m, K=K, convention=spec.convention,
        n_support_violations=int(np.count_nonzero(prep.lam[:, 0] <= beta)),
    )


def _log_beta_slope(prep: _Prepared, n: int, beta: float, tT, tI, dh) -> float:
    """d loglik / d ln beta at fixed (Xi, q), or 0.0 where it is below
    SLOPE_RTOL of the magnitudes of its terms, zero to rounding.

    tT and tI are tr(M T_k) and tr(M T_k^{-1}) for M = Xi^{-2}, per
    observation or summed, and dh is h'(u_k): u_k moves by
    beta tr(M T_k^{-1}) - tr(M T_k) / beta, the constant by -K n m / 2 and
    log|G| as transform.log_gfactor_slope says.  By the envelope theorem it
    is the profile's slope when (Xi, q) maximise the likelihood at beta."""
    const = 0.5 * prep.K * n * prep.m
    g_slope, g_scale = log_gfactor_slope(prep.lam / beta, n, prep.m)
    up, down = beta * tI, tT / beta
    slope = g_slope - const + float(np.sum(dh * (up - down)))
    scale = g_scale + const + float(np.sum(np.abs(dh) * (up + down)))
    return 0.0 if abs(slope) <= SLOPE_RTOL * scale else slope


def _search_log_beta(prep: _Prepared, slope_at, x: float, g: float, max_iter: int):
    """Find the maximum of a profile likelihood in x = ln beta as the zero of
    its slope, from x with slope g; slope_at(beta) gives the slope, 0.0
    where it is zero to rounding and nan where the profile is -inf, which
    counts as past the maximum.

    It steps uphill, by STEP0 and then by secant steps of at most four
    times the last, until the slope changes sign or a bound is reached.  A
    step reaches beta_max only if the slope rose over the last one or the
    secant puts its zero more than 8 times the remaining distance past the
    top; else it goes halfway there.  Inside the bracket it takes secant steps
    from the last two points, and bisects when one would leave the bracket
    or not halve the last step.  It stops at a zero slope or once the
    bracket is below XATOL wide.

    Returns the beta evaluated last (beta_max itself at the top), the
    number of evaluations, the end and success.  The end is 1 if the slope
    is still positive at beta_max, -1 if still negative at the bottom of
    the range (the flat tail), else 0.  Success is False once max_iter
    evaluations are spent."""
    top = math.log(prep.beta_max)
    bottom = top - math.log(BETA_RANGE)

    def beta_of(x):
        return prep.beta_max if x == top else math.exp(x)

    lo = hi = None          # points known below and above the zero of the slope
    x_prev = g_prev = None
    step = STEP0
    evals = 0
    while True:
        if not math.isfinite(g):
            g = -math.inf if x_prev is None or x > x_prev else math.inf
        if g > 0.0:
            lo = x
        elif g < 0.0:
            hi = x
        end = 1 if x == top and g > 0.0 else -1 if x == bottom and g < 0.0 else 0
        done = g == 0.0 or end != 0 or (lo is not None and hi is not None and hi - lo <= XATOL)
        if done or evals >= max_iter:
            return beta_of(x), evals, end, done
        secant = (-g * (x - x_prev) / (g - g_prev)
                  if x_prev is not None and math.isfinite(g - g_prev) and g != g_prev
                  else math.nan)
        if lo is None or hi is None:
            uphill = math.copysign(1.0, g) * secant  # > 0 while the slope falls
            step_next = uphill if uphill > 0.0 else 2.0 * step if x_prev is not None else STEP0
            x_next = max(x + math.copysign(min(step_next, 4.0 * step), g), bottom)
            if x_next >= top:
                # for m = 1 the likelihood can rise without bound towards
                # beta_max past a maximum below it: go only halfway there
                # unless the slope rose or its zero lies far past beta_max
                reach = x_prev is not None and not 0.0 < uphill <= 8.0 * (top - x)
                x_next = top if reach or top - x <= XATOL else 0.5 * (x + top)
        else:
            x_next = x + secant
            if not (lo < x_next < hi and abs(secant) <= 0.5 * step):
                x_next = 0.5 * (lo + hi)
        if x_next == x:  # a secant step below rounding: step over the zero
            x_next = min(max(x + math.copysign(0.5 * XATOL, g), bottom), top)
        step = max(abs(x_next - x), 0.5 * XATOL)
        x_prev, g_prev, x = x, g, x_next
        g = slope_at(beta_of(x))
        evals += 1


def _fit_gaussian(prep: _Prepared, spec: FitSpec, n: int) -> FitResult:
    """The closed-form shape at each beta; iterations counts its evaluations.
    The search starts STEP0 below ln beta_max, near where optima sit."""
    K, m = prep.K, prep.m
    sum_T, sum_inv = prep.flat.sum(axis=1).reshape(2, m, m)

    def spectrum(beta):
        """Eigenvalues and eigenvectors of Xi^2 at beta."""
        return np.linalg.eigh(sym_part(sum_T / beta + beta * sum_inv) / (K * n)
                              - (2.0 / n) * np.eye(m))

    def slope_at(beta):
        w, P = spectrum(beta)
        if w[0] <= 0.0:
            return math.nan
        M = (P / w) @ P.T
        return _log_beta_slope(prep, n, beta, float(np.vdot(M, sum_T)),
                               float(np.vdot(M, sum_inv)), -0.5)

    x = math.log(prep.beta_max) - STEP0
    beta, evals, _, success = _search_log_beta(prep, slope_at, x, slope_at(math.exp(x)),
                                               spec.max_iter)
    w, P = spectrum(beta)
    xi = sym_part((P * np.sqrt(np.maximum(w, 0.0))) @ P.T)
    return _result(prep, spec, n, beta, xi, success, evals + 1)


class _KotzProfile:
    """Kotz log-likelihood at fixed beta, maximised over M = Xi^{-2} and q.

    M is held as theta, its upper triangle.  With A_k = T_k / beta +
    beta T_k^{-1} - 2 I, u_k = tr(M A_k) is linear in theta, and with
    a = (2q + nm - 2) / (2s) the part of the log-likelihood that varies is

        K [a ln r - lgamma(a)] + (K n / 2) ln|M| + sum_k [(q - 1) ln u_k - r u_k^s]

    for q_floor = (2 - nm)/2 < q <= q_cap.  In M its maximum solves the
    elliptical scatter equations (Kent & Tyler 1991); in q it is concave.
    It keeps one solution, (beta, theta, q, converged); called with beta,
    it solves from that one, keeps the new one if finite and returns the
    profile's slope in ln beta there.
    """

    def __init__(self, prep: _Prepared, n: int, s: float):
        K, m = prep.K, prep.m
        rows, cols = np.triu_indices(m)
        p = len(rows)
        # dup @ theta = vec(M), so tr(M A) = (vec(A) @ dup) @ theta
        dup = np.zeros((m * m, p))
        dup[rows * m + cols, np.arange(p)] = 1.0
        dup[cols * m + rows, np.arange(p)] = 1.0
        self.prep, self.n, self.s, self.dup = prep, n, s, dup
        self.t_flat, self.inv_flat = prep.flat @ dup   # (K, p) each
        self.eye = (rows == cols).astype(float)         # vec(I) @ dup
        self.half_kn = 0.5 * K * n
        self.q_floor = (2.0 - n * m) / 2.0
        self.q_cap = self.q_floor + math.exp(LOG_Q_CAP)
        self.beta, self.converged = prep.beta_max, False
        self.theta, self.q = self.theta_of(np.eye(m)), 1.0

    def theta_of(self, xi: np.ndarray) -> np.ndarray:
        return sym_part(np.linalg.inv(xi @ xi))[np.triu_indices(self.prep.m)]

    def matrix(self, theta: np.ndarray) -> np.ndarray:
        m = self.prep.m
        return (self.dup @ theta).reshape(m, m)

    def _part(self, theta, q, A) -> float:
        """The varying part; -inf unless M is positive definite and q > q_floor."""
        if q <= self.q_floor:
            return -math.inf
        try:
            L = np.linalg.cholesky(self.matrix(theta))
        except np.linalg.LinAlgError:
            return -math.inf
        u = A @ theta
        a = (2.0 * q + self.n * self.prep.m - 2.0) / (2.0 * self.s)
        value = (self.prep.K * (a * math.log(KOTZ_R) - math.lgamma(a))
                 + 2.0 * self.half_kn * np.log(np.diag(L)).sum()
                 + (q - 1.0) * np.sum(np.log(u)) - KOTZ_R * np.sum(u ** self.s))
        return float(value) if math.isfinite(value) else -math.inf

    def __call__(self, beta: float) -> float:
        """Solve at beta from the kept solution, keep the new one if finite,
        and return the profile's slope in ln beta there."""
        value, theta, q, converged = self.solve(beta, self.q, self.theta)
        if value == -math.inf:
            return math.nan
        self.beta, self.theta, self.q, self.converged = beta, theta, q, converged
        return self.slope()

    def slope(self) -> float:
        """The slope in ln beta at the kept solution."""
        beta, theta, q, s = self.beta, self.theta, self.q, self.s
        tT, tI = self.t_flat @ theta, self.inv_flat @ theta
        u = tT / beta + beta * tI - 2.0 * (self.eye @ theta)
        dh = (q - 1.0) / u - KOTZ_R * s * u ** (s - 1.0)
        return _log_beta_slope(self.prep, self.n, beta, tT, tI, dh)

    def solve(self, beta: float, q: float, theta: np.ndarray):
        """Maximise over (M, q) from (theta, q).  Returns (log-likelihood,
        theta, q, converged)."""
        m, s = self.prep.m, self.s
        A = self.t_flat / beta + beta * self.inv_flat - 2.0 * self.eye
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            theta, q, converged = self._newton(A, q, theta)
        value = log_t_density(self.prep.lam / beta, np.maximum(A @ theta, 0.0),
                              self.prep.sum_log_lam, self.n, m * math.log(beta),
                              -0.5 * float(np.linalg.slogdet(self.matrix(theta))[1]),
                              kotz_kernel(q, KOTZ_R, s, self.n, m),
                              Convention.AS_PUBLISHED, total=True)
        return (value if math.isfinite(value) else -math.inf), theta, q, converged

    def _newton(self, A, q, theta):
        """Each step rescales M along its ray in closed form, then takes a
        joint Newton step over (theta, q) with the Hessian flipped to
        negative definite, halved until M stays SPD, q stays above q_floor
        and the value rises (the last step only needs the first two); q is
        clipped at q_cap."""
        K, m, s, r = self.prep.K, self.prep.m, self.s, KOTZ_R
        dup, p = self.dup, len(theta)
        hess = np.empty((p + 1, p + 1))
        for _ in range(INNER_STEPS):
            a = (2.0 * q + self.n * m - 2.0) / (2.0 * s)
            # along M -> c M the maximum is at c^s = K a / (r sum_k u_k^s)
            theta = theta * (K * a / (r * np.sum((A @ theta) ** s))) ** (1.0 / s)
            u = A @ theta
            W = np.linalg.inv(self.matrix(theta))
            # first and second derivatives of (q - 1) ln u - r u^s in u
            d1 = (q - 1.0) / u - r * s * u ** (s - 1.0)
            d2 = -(q - 1.0) / u ** 2 - r * s * (s - 1.0) * u ** (s - 2.0)
            grad = np.append(self.half_kn * (W.ravel() @ dup) + d1 @ A,
                             K * (math.log(r) - digamma(a)) / s + np.sum(np.log(u)))
            # d^2 ln|M| in directions E, F is -tr(W E W F): the Kronecker W x W
            kron = np.multiply.outer(W, W).transpose(0, 2, 1, 3).reshape(m * m, m * m)
            hess[:p, :p] = (A.T * d2) @ A - self.half_kn * (dup.T @ kron @ dup)
            hess[:p, p] = hess[p, :p] = (1.0 / u) @ A
            hess[p, p] = -K * trigamma(a) / s ** 2
            # scaled to a unit diagonal: at small beta theta is 1e12 times finer than q
            d = 1.0 / np.sqrt(np.abs(np.diag(hess)))
            w, P = np.linalg.eigh(hess * np.outer(d, d))
            w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max())
            step = d * (P @ ((grad * d @ P) / w))
            decrement = float(grad @ step)
            if not math.isfinite(decrement):
                return theta, q, False
            value = self._part(theta, q, A)
            # a fall within rounding; a step whose predicted rise is itself
            # below INNER_TOL, within the value's rounding, needs only stay feasible
            floor = (-math.inf if decrement <= INNER_TOL
                     else value - 1e-14 * max(1.0, abs(value)))
            for _ in range(30):
                q_next = min(q + step[p], self.q_cap)
                if self._part(theta + step[:p], q_next, A) > floor:
                    theta, q = theta + step[:p], q_next
                    break
                step = 0.5 * step
            else:
                return theta, q, decrement <= INNER_TOL
            if decrement <= INNER_TOL:
                return theta, q, True
        return theta, q, False


def _fit_kotz(prep: _Prepared, spec: FitSpec, n: int, guess: InitialGuess,
              gauss: FitResult) -> FitResult:
    """The slope search in ln beta, a joint Newton solve over (M, q) at each
    beta, with r pinned at KOTZ_R; iterations counts the (M, q) solves, the
    two starts included."""
    profile = _KotzProfile(prep, n, spec.s)
    # the better of two starts at q = 1 seeds the search
    starts = [(beta0, *profile.solve(beta0, 1.0, profile.theta_of(xi0)))
              for beta0, xi0 in ((min(guess.beta0, 0.9 * prep.beta_max), guess.xi0),
                                 (gauss.beta, gauss.xi))]
    profile.beta, _, profile.theta, profile.q, profile.converged = max(
        starts, key=lambda start: start[1])
    _, evals, end, success = _search_log_beta(prep, profile, math.log(profile.beta),
                                              profile.slope(), spec.max_iter)
    # the search ends at its last solve; if that one failed, at the last finite one
    beta, q = profile.beta, profile.q
    w, P = np.linalg.eigh(profile.matrix(profile.theta))
    xi = sym_part((P / np.sqrt(w)) @ P.T)
    # none is a maximum: at the cap on q the likelihood still rose, at the
    # bottom it is flat, for m = 1 and q < (3 - n)/2 it is unbounded at the top
    unbounded = prep.m == 1 and end == 1 and q < (3.0 - n) / 2.0
    converged = bool(success and profile.converged and q < profile.q_cap
                     and end != -1 and not unbounded)
    # profile solves: the two starts and the search's
    return _result(prep, spec, n, beta, xi, converged, len(starts) + evals, q)


def fit_mle(data, spec: FitSpec, n: int) -> FitResult:
    """Maximise the log-likelihood of one family: a search for the zero of
    the profile's slope in ln beta, with the Gaussian shape in closed form
    and, for the Kotz with r pinned at 1/2, a joint Newton solve over
    (M, q), M = Xi^{-2}, at each beta.  Deterministic; max_iter caps the
    search's evaluations after its start, and a fit that exhausts it is
    returned flagged, not raised."""
    mats = _as_stack(data)
    prep = _Prepared(mats)
    if prep.K < 2:
        raise DomainError("fitting needs at least two observations")
    gauss = _fit_gaussian(prep, replace(spec, family=GAUSSIAN), n)
    if spec.family == KOTZ:
        return _fit_kotz(prep, spec, n, init_guess(mats, n), gauss)
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
                   spec: FitSpec | None = None, jobs: int = 1) -> ProfileResult:
    """Fit the Gaussian baseline once, then one Kotz model per fixed s.

    The data are prepared, and the moment guess and the Gaussian optimum
    computed, once; every Kotz search starts from the better of the two,
    both at q = 1.  Rows that hit the iteration budget are kept with their
    converged flag down; the table is always emitted in full.  jobs > 1
    fits the rows in up to that many worker processes, never more than
    there are rows or CPUs.
    """
    mats = _as_stack(data)
    s_values = [float(s) for s in s_values]
    if not all(0.0 < s < math.inf for s in s_values):
        raise DomainError("all grid powers must be positive and finite")
    base = spec if spec is not None else FitSpec()
    prep = _Prepared(mats)
    guess = init_guess(mats, n)  # raises for fewer than two observations
    gauss = _fit_gaussian(prep, replace(base, family=GAUSSIAN), n)
    row = functools.partial(_fit_kotz, prep, n=n, guess=guess, gauss=gauss)
    specs = [replace(base, family=KOTZ, s=s) for s in s_values]
    workers = min(jobs, len(specs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fits = list(pool.map(row, specs))
    else:
        fits = list(map(row, specs))
    rows = []
    for s, fit in zip(s_values, fits):
        diff = fit.bic_star - gauss.bic_star
        rows.append(ProfileRow(s=s, fit=fit, bic_diff=diff,
                               grade=evidence_grade(abs(diff))))
    return ProfileResult(baseline=gauss, rows=rows)
