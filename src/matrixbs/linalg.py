"""Dense matrix kernels and special functions used throughout the package.

Everything here is a thin, deterministic layer over LAPACK (via numpy)
with explicit rank/symmetry gates, so that downstream branch inversions
and golden tests are reproducible.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, NotSpdError, NotSymmetricError, RankDeficientError

# Relative threshold below which a singular value counts as zero.
RANK_TOL = 1e-12
# Relative symmetry tolerance for symmetric/SPD inputs.
SYM_TOL = 1e-12
# A symmetric matrix of order m is numerically positive definite when
# lambda_min > m (m + 1) EPS lambda_max.  In floating point a Cholesky
# factorisation breaks down only below about half that ratio (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, Thm 10.7, after
# Demmel 1989), so every matrix it refuses is below the floor.
EPS = np.finfo(float).eps
# digamma and trigamma recur up to this argument, then sum their asymptotic
# series in the Bernoulli numbers B_2, ..., B_16: the first term left out is
# below 3e-17 of either function there
PSI_SERIES_FROM = 8.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)

__all__ = [
    "as_matrix",
    "check_spd",
    "commutation",
    "digamma",
    "log_mv_gamma",
    "pinv",
    "spd_sqrt",
    "sym_part",
    "trigamma",
    "vec",
]


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array with finite entries."""
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise DomainError(f"{name} must be 2-dimensional, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{name} contains non-finite entries")
    return A


def sym_part(S: np.ndarray) -> np.ndarray:
    """Symmetric part of a square matrix or of each matrix in a (K, m, m) stack."""
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def check_spd(S, name: str = "matrix") -> np.ndarray:
    """Validate an SPD matrix or a (K, m, m) stack of them; returns the symmetrised copy.

    Each matrix must be finite, symmetric within SYM_TOL, and numerically
    positive definite by its eigenvalues (_require_floor).  For a stack, the
    error names the first failing matrix as name[k] and carries k as ``row``.
    """
    return _spd_eigh(S, name)[0]


def _fail(error, k: int, stack: bool, name: str, detail: str):
    """Raise error for matrix k of a stack, named name[k] with k as ``row``,
    or for the one matrix, named name."""
    raise error(f"{name}[{k}] {detail}" if stack else f"{name} {detail}",
                row=k if stack else None)


def _symmetrised(S, name: str):
    """check_spd's finiteness and symmetry gates.  Returns the symmetrised
    (K, m, m) stack and whether S was one."""
    S = np.asarray(S, dtype=float)
    stack = S.ndim == 3
    if not stack:
        S = as_matrix(S, name)[None]
    if S.shape[1] != S.shape[2]:
        raise NotSymmetricError(f"{name} must be square, got shape {S.shape[1:]}")
    St = np.swapaxes(S, 1, 2)
    # a finite, exactly symmetric stack passes on two whole-stack tests; the
    # per-matrix reductions run only otherwise, to apply SYM_TOL and name a row
    if not (np.isfinite(S).all() and np.array_equal(S, St)):
        finite = np.isfinite(S).all(axis=(1, 2))
        if not finite.all():
            _fail(DomainError, int(np.argmin(finite)), stack, name, "contains non-finite entries")
        scale = np.maximum(np.abs(S).max(axis=(1, 2)), 1.0)
        asym = np.abs(S - St).max(axis=(1, 2)) > SYM_TOL * scale
        if asym.any():
            _fail(NotSymmetricError, int(np.argmax(asym)), stack, name,
                  f"is not symmetric within {SYM_TOL:g} relative")
    return 0.5 * (S + St), stack


def _require_floor(w: np.ndarray, name: str, stack: bool) -> None:
    """The package's one test of positive definiteness, on the eigenvalues
    w, (K, m) and sorted along the last axis either way, of K symmetric
    matrices: each needs lambda_min > m (m + 1) EPS lambda_max, else
    NotSpdError names the first that fails as name[k] with k as ``row`` for
    a stack, or as name for one matrix (K = 1, stack False)."""
    m = w.shape[1]
    # the end columns: a min or max over the short last axis is the slow part
    lo, hi = np.minimum(w[:, 0], w[:, -1]), np.maximum(w[:, 0], w[:, -1])
    bad = ~(lo > m * (m + 1) * EPS * hi)
    if bad.any():
        k = int(np.argmax(bad))
        _fail(NotSpdError, k, stack, name,
              f"is not numerically positive definite (eigenvalues {lo[k]:g} to {hi[k]:g})")


def _spd_eigh(S, name: str = "matrix"):
    """check_spd, returning also the ascending eigenvalues, (m,) or (K, m) for
    a stack, and the eigenvectors as columns of the symmetrised copy."""
    S, stack = _symmetrised(S, name)
    w, P = np.linalg.eigh(S)
    _require_floor(w, name, stack)
    return (S, w, P) if stack else (S[0], w[0], P[0])


def _spd_cholesky(S, name: str = "matrix"):
    """check_spd's finiteness and symmetry gates, then the lower Cholesky
    factor L of the symmetrised copy, S = L L'; returns both.

    The factorisation refuses only matrices below the eigenvalue floor, so
    for a stack it refuses, one eigvalsh names the first of them.  A matrix
    on which it completes can still be below the floor: the caller applies
    _require_floor to the spectrum it computes from L.
    """
    S, stack = _symmetrised(S, name)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        _require_floor(np.linalg.eigvalsh(S), name, stack)
        raise NotSpdError(f"{name} is not numerically positive definite") from None
    return (S, L) if stack else (S[0], L[0])


def _sqrt_from_eigh(w: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The SPD square root P diag(sqrt(w)) P' from _spd_eigh's eigen-system."""
    # descending order: the product below rounds differently in ascending order
    w, P = w[::-1].copy(), P[:, ::-1].copy()
    return sym_part((P * np.sqrt(w)) @ P.T)


def spd_sqrt(B) -> np.ndarray:
    """Symmetric positive definite square root of an SPD matrix."""
    return _sqrt_from_eigh(*_spd_eigh(B, "B")[1:])


def pinv(A) -> np.ndarray:
    """Moore-Penrose inverse of a full-column-rank matrix: (A'A)^{-1} A'."""
    A = as_matrix(A, "A")
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise RankDeficientError(
            f"smallest singular value {s[-1]:g} below {RANK_TOL:g} of largest {s[0]:g}"
        )
    return np.linalg.solve(A.T @ A, A.T)


def commutation(n: int, m: int) -> np.ndarray:
    """Permutation matrix K with K @ vec(A) = vec(A') for every n x m matrix A.

    vec stacks columns (column-major order).
    """
    if n < 1 or m < 1:
        raise DomainError(f"dimensions must be positive, got ({n}, {m})")
    K = np.zeros((n * m, n * m))
    rows = np.add.outer(m * np.arange(n), np.arange(m)).ravel()   # j + m*i
    cols = np.add.outer(np.arange(n), n * np.arange(m)).ravel()   # i + n*j
    K[rows, cols] = 1.0
    return K


def vec(A) -> np.ndarray:
    """Column-stacking vectorisation."""
    return np.asarray(A, dtype=float).flatten(order="F")


@functools.lru_cache(maxsize=None)
def log_mv_gamma(m: int, a: float) -> float:
    """log of the multivariate gamma: (m(m-1)/4) ln pi + sum_i ln Gamma(a - (i-1)/2)."""
    if m < 1:
        raise DomainError(f"dimension must be positive, got {m}")
    if a <= (m - 1) / 2:
        raise DomainError(f"need a > (m-1)/2 = {(m - 1) / 2:g}, got a = {a:g}")
    return float(m * (m - 1) / 4 * np.log(np.pi)
                 + sum(math.lgamma(a - (i - 1) / 2) for i in range(1, m + 1)))


def _recurrence(x, power):
    """x > 0 stepped up by ones to PSI_SERIES_FROM, and the sum of x^-power on the way."""
    shifted = np.asarray(x, dtype=float)[..., None] + np.arange(PSI_SERIES_FROM)
    passed = shifted < PSI_SERIES_FROM
    return (shifted[..., 0] + passed.sum(axis=-1),
            np.where(passed, 1.0 / shifted ** power, 0.0).sum(axis=-1))


@np.errstate(divide="ignore")
def digamma(x):
    """psi(x) = d ln Gamma(x) / dx for x > 0, elementwise, to about
    1e-14 relative away from its zero near 1.4616."""
    x, shift = _recurrence(x, 1)   # psi(x) = psi(x + 1) - 1/x
    inv2 = 1.0 / (x * x)
    series = sum(b / (2 * k) * inv2 ** k for k, b in enumerate(_BERNOULLI, 1))
    return np.log(x) - 0.5 / x - series - shift


@np.errstate(divide="ignore")
def trigamma(x):
    """psi'(x) = d^2 ln Gamma(x) / dx^2 for x > 0, elementwise, to about
    1e-14 relative."""
    x, shift = _recurrence(x, 2)   # psi'(x) = psi'(x + 1) + 1/x^2
    inv2 = 1.0 / (x * x)
    series = sum(b * inv2 ** k for k, b in enumerate(_BERNOULLI, 1)) / x
    return shift + 1.0 / x + 0.5 * inv2 + series


@np.errstate(divide="ignore")
def log_minus_digamma(x):
    """ln x - psi(x) and its derivative 1/x - psi'(x) for x > 0, elementwise,
    each summed without the cancellation of either difference at large x."""
    (y, shift), (_, shift2) = _recurrence(x, 1), _recurrence(x, 2)
    steps, inv2 = y - x, 1.0 / (y * y)
    value = sum(b / (2 * k) * inv2 ** k for k, b in enumerate(_BERNOULLI, 1)) + 0.5 / y
    slope = -sum(b * inv2 ** k for k, b in enumerate(_BERNOULLI, 1)) / y - 0.5 * inv2
    return value + shift - np.log1p(steps / x), slope + steps / (x * y) - shift2
