"""Log densities of the generalised Birnbaum-Saunders family.

Covers the univariate and square-root laws, the element-wise matrix
construction, and the matrix-transformation laws for the rectangular
factor V and the positive definite matrix T = V'V, together with the
inverse and congruence transformation properties of T.

Two normalisation conventions ship for the V- and T-densities.
AS_PUBLISHED evaluates the product-form constant verbatim; for m >= 1 its
T-density integrates to 2^{-m} over the branch region (all eigenvalues of
beta^{-1} T above 1).  BRANCH_NORMALIZED multiplies by 2^m and restricts
support to the branch region, which makes the T-density the exact law of
the shipped sampler; it is the default.  The choice shifts log values by
the parameter-free constant m ln 2, so likelihood maximisers and model
comparisons are unaffected.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutsideSupportError, SingularMatrixError
from .kernels import KernelSpec, log_h
from .linalg import _require_floor, _spd_cholesky, as_matrix, log_mv_gamma
from .transform import (
    GbsParams,
    _whitened_spectrum,
    branch_eigs,
    log_abs_gfactor,
    log_jacobian_sv,
)

__all__ = ["Convention", "ElementwiseParams", "gfactor_sign", "logpdf_T",
           "log_t_density", "logpdf_T_congruence", "logpdf_T_inverse", "logpdf_V",
           "logpdf_elementwise", "logpdf_sqrt_gbs", "logpdf_uni_gbs"]


class Convention(enum.Enum):
    """Normalisation convention for the V- and T-densities."""

    AS_PUBLISHED = "as-published"
    BRANCH_NORMALIZED = "branch"


@dataclass(frozen=True)
class ElementwiseParams:
    """Entry-wise shape and scale matrices for the element-by-element law."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = as_matrix(self.alpha, "alpha")
        beta = as_matrix(self.beta, "beta")
        if alpha.shape != beta.shape:
            raise DomainError(f"alpha {alpha.shape} and beta {beta.shape} differ in shape")
        if alpha.min() <= 0.0 or beta.min() <= 0.0:
            raise DomainError("alpha and beta entries must be strictly positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def _uni_u(t: float, alpha: float, beta: float) -> float:
    # t/beta + beta/t - 2 in the exact form, with no cancellation near t = beta
    return (t - beta) ** 2 / (t * beta) / alpha**2


def logpdf_uni_gbs(t: float, alpha: float, beta: float, kernel: KernelSpec) -> float:
    """Univariate generalised Birnbaum-Saunders log density at t > 0."""
    if t <= 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError("alpha and beta must be positive")
    kernel.check_dims(1, 1)
    prefactor = (-1.5 * math.log(t) + math.log(t + beta)
                 - math.log(2.0) - math.log(alpha) - 0.5 * math.log(beta))
    return prefactor + log_h(kernel, _uni_u(t, alpha, beta))


def logpdf_sqrt_gbs(v: float, alpha: float, beta: float, kernel: KernelSpec) -> float:
    """Square-root variant: law of v = sqrt(t) on v > 0."""
    if v <= 0.0:
        raise DomainError(f"v must be positive, got {v}")
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError("alpha and beta must be positive")
    kernel.check_dims(1, 1)
    prefactor = (math.log1p(beta / v**2) - math.log(alpha) - 0.5 * math.log(beta))
    return prefactor + log_h(kernel, _uni_u(v * v, alpha, beta))


def logpdf_elementwise(T, params: ElementwiseParams, kernel: KernelSpec) -> float:
    """Element-by-element matrix law: entry-wise transforms with a joint kernel."""
    T = as_matrix(T, "T")
    if T.shape != params.alpha.shape:
        raise DomainError(f"T {T.shape} does not match parameters {params.alpha.shape}")
    if T.min() <= 0.0:
        raise DomainError("all entries of T must be strictly positive")
    kernel.check_dims(*T.shape)
    A, B = params.alpha, params.beta
    prefactor = float(np.sum(-1.5 * np.log(T) + np.log(T + B)
                             - math.log(2.0) - np.log(A) - 0.5 * np.log(B)))
    u = float(np.sum((T - B) ** 2 / (T * B) / A**2))
    return prefactor + log_h(kernel, u)


def _trace_argument_spectral(w: np.ndarray, P: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """tr Xi^{-2} (W + W^{-1} - 2 I) from the eigenvalues w (..., m) and
    eigenvectors P (..., m, m) of SPD W: the sum of p' Xi^{-2} p (w - 1)^2 / w
    over the eigenpairs, each term >= 0, zero exactly at W = I.  Invariant
    under W -> W^{-1}."""
    M = np.linalg.inv(xi @ xi)
    return np.einsum("...ai,...ai,...i->...", P, M @ P, (w - 1.0) ** 2 / w)


def log_t_density(deltas, u, logdet_T, n: int, logdet_beta: float, logdet_xi: float,
                  kernel: KernelSpec, convention: Convention):
    """The log T-density from its spectral ingredients, for one matrix or a batch.

    deltas, (m,) or (K, m), are the eigenvalues of beta^{-1} T, u the trace
    argument and logdet_T log|T|, one per matrix; the value per matrix is

        log c(n, beta, Xi) + log|G(deltas)| + (n - m - 1)/2 log|T| + log h(u).

    Every T-density law of the package is evaluated here, and the
    likelihood sums its values.  A zero of the product factor gives -inf.
    """
    m = np.shape(deltas)[-1]
    const = (0.5 * n * m * math.log(math.pi) - log_mv_gamma(m, n / 2)
             - 0.5 * n * logdet_beta - n * logdet_xi)
    if convention is Convention.AS_PUBLISHED:
        const -= m * math.log(2.0)
    log_g, _ = log_abs_gfactor(deltas, n, m)
    # at a zero of G the density vanishes whatever the kernel gives there
    zero = log_g == -math.inf
    value = (const + log_g + (n - m - 1) / 2 * logdet_T
             + log_h(kernel, np.where(zero, 1.0, u)))
    return np.where(zero, -np.inf, value)


def logpdf_V(V, params: GbsParams, kernel: KernelSpec,
             convention: Convention = Convention.BRANCH_NORMALIZED) -> float:
    """Log density of the rectangular factor V (n x m, full column rank).

    The Jacobian is the singular-value product form; the explicit
    determinant transform.jacobian_det_form is its test oracle.  It and the
    trace argument take the one eigen-system of branch_eigs, as logpdf_T
    takes the one of _whitened_spectrum.
    """
    V = as_matrix(V, "V")
    kernel.check_dims(params.n, params.m)
    deltas, vecs = branch_eigs(V, params)
    _check_branch_support(deltas, convention, "V")
    log_j, _ = log_jacobian_sv(deltas, params, "first")
    value = log_j + log_h(kernel, _trace_argument_spectral(deltas, vecs, params.xi))
    if convention is Convention.BRANCH_NORMALIZED:
        value += params.m * math.log(2.0)
    return float(value)


def _check_branch_support(deltas: np.ndarray, convention: Convention, name: str):
    """Under the branch convention every scaled eigenvalue (descending along
    the last axis) must exceed 1; for a stack the error names name[k]."""
    outside = deltas[..., -1] <= 1.0
    if convention is Convention.BRANCH_NORMALIZED and outside.any():
        k = int(np.argmax(outside)) if outside.ndim else None
        label = name if k is None else f"{name}[{k}]"
        raise OutsideSupportError(f"{label}: smallest scaled eigenvalue"
                                  f" {deltas[..., -1].min():g} not above 1", row=k)


def _slogdet(A: np.ndarray) -> float:
    return float(np.linalg.slogdet(A)[1])


def _logpdf_scaled(L, A: np.ndarray, logdet_scale: float, params: GbsParams,
                   kernel: KernelSpec, convention: Convention, name: str):
    """Log T-density of SPD Y = L L' (one matrix or a stack) under the scale
    A'A, with logdet_scale = log|A'A|; A = Delta gives the law of T itself."""
    deltas, vecs = _whitened_spectrum(L, A)
    _require_floor(np.atleast_2d(deltas), name, deltas.ndim == 2)
    _check_branch_support(deltas, convention, name)
    u = _trace_argument_spectral(deltas, vecs, params.xi)
    return log_t_density(deltas, u, np.log(deltas).sum(axis=-1) + logdet_scale, params.n,
                         logdet_scale, _slogdet(params.xi), kernel, convention)


def logpdf_T(T, params: GbsParams, kernel: KernelSpec,
             convention: Convention = Convention.BRANCH_NORMALIZED):
    """Log density of the SPD matrix T = V'V.

    T is one m x m matrix, giving a float, or a (K, m, m) stack, giving an
    array of K values, one per matrix.  Every scale beta takes the same
    route: the eigenvalues of beta^{-1} T are the squared singular values of
    L' Delta^{-1}, with T = L L' the one Cholesky factorisation of T
    (_whitened_spectrum), and they are held to the positive-definiteness
    floor of linalg._require_floor; for a scalar beta their ratio is T's.
    Under the branch convention a matrix outside the branch region raises
    OutsideSupportError; for a stack either error names the matrix as T[k]
    and carries k as ``row``.
    """
    T, L = _spd_cholesky(T, "T")
    kernel.check_dims(params.n, params.m)
    if T.shape[-1] != params.m:
        raise DomainError(f"T is {T.shape[-1]}x{T.shape[-1]}, expected m={params.m}")
    value = _logpdf_scaled(L, params.delta, _slogdet(params.beta), params, kernel,
                           convention, "T")
    return float(value) if T.ndim == 2 else value


def gfactor_sign(T, params: GbsParams) -> int:
    """Sign of the as-published product factor at T: +1, -1, or 0 on its zero set.

    Negative values occur outside the branch region when n - m is odd; the
    log densities always use the magnitude, so this is the diagnostic for
    points where the as-published formula goes negative.
    """
    deltas, _ = _whitened_spectrum(_spd_cholesky(T, "T")[1], params.delta)
    _require_floor(np.atleast_2d(deltas), "T", deltas.ndim == 2)
    _, sign = log_abs_gfactor(deltas, params.n, params.m, form="first")
    return sign


def logpdf_T_inverse(S, params: GbsParams, kernel: KernelSpec,
                     convention: Convention = Convention.BRANCH_NORMALIZED) -> float:
    """Log density of S = T^{-1}.

    Agrees with logpdf_T(S^{-1}) - (m+1) log|det S| by the change of
    variables (dT) = |det S|^{-(m+1)} (dS), and is evaluated so: S = L L'
    gives S^{-1} = L^{-T} L^{-1}, whitened as logpdf_T whitens T.
    """
    S, L = _spd_cholesky(S, "S")
    kernel.check_dims(params.n, params.m)
    m = params.m
    if S.shape[0] != m:
        raise DomainError(f"S is {S.shape[0]}x{S.shape[0]}, expected m={m}")
    value = _logpdf_scaled(np.linalg.inv(L).T, params.delta, _slogdet(params.beta), params,
                           kernel, convention, "S")
    return float(value - (m + 1) * _slogdet(S))


def logpdf_T_congruence(Y, C, params: GbsParams, kernel: KernelSpec,
                        convention: Convention = Convention.BRANCH_NORMALIZED) -> float:
    """Log density of Y = C' T C for an invertible m x m matrix C.

    Agrees with logpdf_T(C'^{-1} Y C^{-1}) - (m+1) log|det C|.
    """
    Y, L = _spd_cholesky(Y, "Y")
    C = as_matrix(C, "C")
    kernel.check_dims(params.n, params.m)
    m = params.m
    if Y.shape[0] != m or C.shape != (m, m):
        raise DomainError(f"Y and C must be {m}x{m}")
    sign_c, logdet_C = np.linalg.slogdet(C)
    if sign_c == 0:
        raise SingularMatrixError("C is singular")
    # Y has the T-law with scale C' beta C: log|C' beta C| = log|beta| + 2 log|det C|
    return float(_logpdf_scaled(L, params.delta @ C, _slogdet(params.beta) + 2.0 * logdet_C,
                                params, kernel, convention, "Y"))
