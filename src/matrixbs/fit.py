"""Maximum likelihood for Kotz-kernel Birnbaum-Saunders matrix models.

The model has a scalar scale beta (beta I_m), an SPD shape matrix Xi, and
for the Kotz family a fixed power s with free (r, q).  The log-likelihood
is the T-density of density.log_t_density summed over the batch, from
per-observation eigenvalues cached once per dataset.

Gaussian: at fixed beta the shape has the closed form

    Xi^2 = sum_k A_k(beta) / (K n),   A_k = T_k / beta + beta T_k^{-1} - 2 I,

which needs only the batch sums of T_k and T_k^{-1}.  The MLE is then a
bounded scalar search of this profile likelihood in log beta over
[beta_max / 1e6, beta_max], beta_max = BETA_MARGIN * min eigenvalue; below
that range the profile is flat to a constant.  The result does not depend
on the seed, restarts, jitter or warm start.

Kotz: a derivative-free simplex search in an unconstrained
reparameterisation, from a moment-style starting point, an optional warm
start and seeded jittered restarts.

Model comparison uses the modified criterion

    BIC* = -2 loglik_max + n_p (ln(K + 2) - ln 24),

where K is the sample size and n_p the number of free parameters
(1 + m(m+1)/2, plus 2 for the Kotz family).  Differences are graded
Weak / Positive / Strong / VeryStrong at thresholds 2, 6 and 10.
"""

from __future__ import annotations

import enum
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit

from .density import Convention, log_t_density
from .errors import DegenerateDataWarning, DomainError, NegativeDiffError
from .kernels import GAUSSIAN, KOTZ, KernelSpec, gaussian_kernel, kotz_kernel
from .linalg import check_spd, sym_part
from .sampling import SampleBatch

__all__ = ["EvidenceGrade", "FitResult", "FitSpec", "InitialGuess", "ProfileRow",
           "ProfileResult", "bic_star", "evidence_grade", "fit_mle", "init_guess",
           "loglik", "outside_support", "profile_s_grid", "DEFAULT_S_GRID"]

DEFAULT_S_GRID = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0, 4.0, 5.0)

# beta stays below this fraction of the smallest observed eigenvalue so the
# branch-region logarithms stay defined.
BETA_MARGIN = 1.0 - 1e-6
# the Gaussian profile search covers beta in [beta_max / BETA_RANGE, beta_max]
BETA_RANGE = 1e6


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
    r0: float = 0.5
    q0: float = 1.0


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
    # restarts, jitter, seed and warm_start steer the Kotz search only
    restarts: int = 5
    max_iter: int = 5000
    rel_ftol: float = 1e-10
    jitter: float = 0.25
    seed: int = 0
    convention: Convention = Convention.AS_PUBLISHED
    warm_start: dict | None = None      # {"beta":, "xi":, "r":, "q":} overrides

    def __post_init__(self):
        if self.family not in (GAUSSIAN, KOTZ):
            raise DomainError(f"unknown family {self.family!r}")
        if not math.isfinite(self.s) or (self.family == KOTZ and self.s <= 0.0):
            raise DomainError(f"fixed Kotz power s must be positive and finite, got {self.s}")
        if self.restarts < 1:
            raise DomainError("need at least one start")
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

    def kernel(self) -> KernelSpec:
        if self.family == GAUSSIAN:
            return gaussian_kernel(self.n, self.m)
        return kotz_kernel(self.q, self.r, self.s, self.n, self.m)


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


class _Packer:
    """Map Kotz parameters to and from the unconstrained search vector.

    beta = beta_max * sigmoid(x0) keeps the scale below the smallest
    observed eigenvalue (log-scale behaviour far from the cap); Xi is a
    Cholesky factor with logged diagonal; then ln r and ln(q - (2 - nm)/2).
    """

    def __init__(self, m: int, n: int, beta_max: float):
        self.m = m
        self.beta_max = beta_max
        self.q_floor = (2.0 - n * m) / 2.0
        self.tril = [(i, j) for i in range(m) for j in range(i + 1)]
        self.dim = 1 + len(self.tril) + 2

    def pack(self, beta: float, xi: np.ndarray, r: float, q: float) -> np.ndarray:
        x = np.empty(self.dim)
        frac = min(max(beta / self.beta_max, 1e-12), 1.0 - 1e-9)
        x[0] = logit(frac)
        L = np.linalg.cholesky(check_spd(xi, "xi"))
        for idx, (i, j) in enumerate(self.tril, start=1):
            x[idx] = math.log(L[i, i]) if i == j else L[i, j]
        x[-2] = math.log(r)
        x[-1] = math.log(max(q - self.q_floor, 1e-12))
        return x

    def unpack(self, x: np.ndarray):
        beta = float(self.beta_max * expit(x[0]))
        L = np.zeros((self.m, self.m))
        for idx, (i, j) in enumerate(self.tril, start=1):
            L[i, j] = math.exp(min(x[idx], 200.0)) if i == j else x[idx]
        r = math.exp(min(x[-2], 200.0))
        q = self.q_floor + math.exp(min(x[-1], 200.0))
        return beta, sym_part(L @ L.T), r, q


def _fit_gaussian(prep: _Prepared, spec: FitSpec, n: int, beta_max: float):
    """Profile-likelihood search: the closed-form shape at each beta, Brent's
    bounded method in log beta.  Returns (beta, xi, converged, evaluations)."""
    from scipy.optimize import minimize_scalar

    K, m = prep.K, prep.m
    sum_T, sum_inv = prep.flat.sum(axis=1).reshape(2, m, m)
    kernel = gaussian_kernel(n, m)

    def shape(beta):
        w, P = np.linalg.eigh(sym_part(sum_T / beta + beta * sum_inv) / (K * n)
                              - (2.0 / n) * np.eye(m))
        return sym_part((P * np.sqrt(np.maximum(w, 0.0))) @ P.T)

    def objective(log_beta):
        beta = math.exp(log_beta)
        value = _loglik_prepared(prep, n, beta, shape(beta), kernel)
        return -value if math.isfinite(value) else math.inf

    top = math.log(beta_max)
    res = minimize_scalar(objective, bounds=(top - math.log(BETA_RANGE), top),
                          method="bounded",
                          options={"xatol": 1e-10, "maxiter": spec.max_iter})
    beta = math.exp(res.x)
    return beta, shape(beta), bool(res.success), int(res.nfev)


def _fit_kotz(mats: np.ndarray, prep: _Prepared, spec: FitSpec, n: int,
              beta_max: float):
    """Multi-start simplex search.  Returns (beta, xi, r, q, converged,
    iterations summed over the starts)."""
    from scipy.optimize import minimize

    m = prep.m
    packer = _Packer(m, n, beta_max)
    guess = init_guess(mats, n)
    starts = [packer.pack(min(guess.beta0, 0.9 * beta_max), guess.xi0,
                          guess.r0, guess.q0)]
    if spec.warm_start is not None:
        w = spec.warm_start
        starts.append(packer.pack(min(float(w["beta"]), 0.999 * beta_max),
                                  np.asarray(w["xi"], dtype=float),
                                  float(w.get("r", 0.5)), float(w.get("q", 1.0))))
    rng = np.random.default_rng(spec.seed)
    while len(starts) < spec.restarts:
        starts.append(starts[0] + rng.normal(0.0, spec.jitter, size=packer.dim))

    def objective(x):
        beta, xi, r, q = packer.unpack(x)
        try:
            kernel = kotz_kernel(q, r, spec.s, n, m)
        except DomainError:
            return math.inf
        value = _loglik_prepared(prep, n, beta, xi, kernel)
        return -value if math.isfinite(value) else math.inf

    best = None
    total_iters = 0
    for x0 in starts:
        f0 = objective(x0)
        fatol = spec.rel_ftol * max(1.0, abs(f0) if math.isfinite(f0) else 1.0)
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxiter": spec.max_iter, "maxfev": 2 * spec.max_iter,
                                "fatol": fatol, "xatol": 1e-8})
        total_iters += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
    return (*packer.unpack(best.x), bool(best.success), total_iters)


def fit_mle(data, spec: FitSpec, n: int) -> FitResult:
    """Maximise the log-likelihood of one family.

    Gaussian: a bounded scalar search of the profile likelihood in log
    beta, with the shape in closed form.  Kotz: the best local optimum of a
    simplex search from the moment-style guess, an optional warm start and
    seeded jittered copies of the guess.  A fit that exhausts the
    iteration budget is returned flagged, not raised.
    """
    mats = _as_stack(data)
    prep = _Prepared(mats)
    K, m = prep.K, prep.m
    if K < 2:
        raise DomainError("fitting needs at least two observations")
    kotz = spec.family == KOTZ
    beta_max = BETA_MARGIN * prep.min_lam
    if kotz:
        beta, xi, r, q, converged, iterations = _fit_kotz(mats, prep, spec, n, beta_max)
        kernel = kotz_kernel(q, r, spec.s, n, m)
    else:
        beta, xi, converged, iterations = _fit_gaussian(prep, spec, n, beta_max)
        r = q = None
        kernel = gaussian_kernel(n, m)
    value = _loglik_prepared(prep, n, beta, xi, kernel, spec.convention)
    n_p = 1 + m * (m + 1) // 2 + (2 if kotz else 0)
    return FitResult(
        family=spec.family, s=spec.s if kotz else None,
        beta=beta, xi=xi, r=r, q=q,
        loglik_max=float(value), n_params=n_p,
        bic_star=bic_star(float(value), n_p, K),
        converged=converged, iterations=iterations,
        seed=spec.seed, n=n, m=m, K=K, convention=spec.convention,
        n_support_violations=int(np.count_nonzero(prep.lam[:, 0] <= beta)),
    )


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


def _fit_row(mats, n, s, base_spec: FitSpec, warm: dict, row_seed: int) -> FitResult:
    spec = FitSpec(family=KOTZ, s=s, restarts=base_spec.restarts,
                   max_iter=base_spec.max_iter, rel_ftol=base_spec.rel_ftol,
                   jitter=base_spec.jitter, seed=row_seed,
                   convention=base_spec.convention, warm_start=warm)
    return fit_mle(mats, spec, n)


def profile_s_grid(data, s_values=DEFAULT_S_GRID, n: int = 6, *,
                   spec: FitSpec | None = None, jobs: int = 1) -> ProfileResult:
    """Fit the Gaussian baseline once, then one Kotz model per fixed s.

    Each Kotz fit is warm-started from the Gaussian optimum at (r, q) =
    (1/2, 1).  Rows that hit the iteration budget are kept with their
    converged flag down; the table is always emitted in full.
    """
    mats = _as_stack(data)
    s_values = [float(s) for s in s_values]
    if not all(0.0 < s < math.inf for s in s_values):
        raise DomainError("all grid powers must be positive and finite")
    base = spec if spec is not None else FitSpec()
    gauss = fit_mle(mats, FitSpec(family=GAUSSIAN, max_iter=base.max_iter,
                                  seed=base.seed, convention=base.convention), n)
    warm = {"beta": gauss.beta, "xi": gauss.xi, "r": 0.5, "q": 1.0}
    tasks = [(mats, n, s, base, warm, base.seed + 1 + i)
             for i, s in enumerate(s_values)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fits = list(pool.map(_fit_row_star, tasks))
    else:
        fits = [_fit_row(*t) for t in tasks]
    rows = []
    for s, fit in zip(s_values, fits):
        diff = fit.bic_star - gauss.bic_star
        rows.append(ProfileRow(s=s, fit=fit, bic_diff=diff,
                               grade=evidence_grade(abs(diff))))
    return ProfileResult(baseline=gauss, rows=rows)


def _fit_row_star(args):
    return _fit_row(*args)
