"""The matrix square-root transformation, its branch inverse, and its Jacobian.

The forward map sends a full-column-rank n x m matrix V to

    Z = (V Delta^{-1} - V'^+ Delta) Xi^{-1},

with Delta the SPD square root of the scale matrix beta and Xi the SPD
shape matrix.  The map is 2^m-to-one; the shipped inverse always selects
the branch on which every singular value of V Delta^{-1} is >= 1.

Three independent Jacobian computations are provided: an explicit
nm x nm determinant assembly, two equivalent singular-value product
forms, and a central-difference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import (_require_floor, _spd_eigh, _sqrt_from_eigh, as_matrix, check_spd,
                     commutation, pinv, vec)

# Distance from the unit singular value at which product-form Jacobians
# are treated as sitting on the zero boundary.
BOUNDARY_TOL = 1e-12
# Relative size below which a cosine between two columns of Z Xi Q counts
# as rounding, and a column's norm against the largest as rounding noise
# with no reliable direction.
ORTHO_TOL = 64 * np.finfo(float).eps
# A slice leaves the one-sided Jacobi sweeps after a sweep that found no
# cosine above JACOBI_TOL: convergence is quadratic, so its columns are
# then orthogonal to rounding.  The cap only ends a slice that never
# settles.
JACOBI_TOL = 1e-8
JACOBI_SWEEPS = 30

__all__ = ["GbsParams", "JacobianReport", "forward_map", "inverse_map_branch",
           "jacobian_det_form", "jacobian_fd_oracle", "jacobian_report",
           "jacobian_sv_form", "log_abs_gfactor", "log_gfactor_slope"]


@dataclass(frozen=True)
class GbsParams:
    """Degrees n, SPD shape Xi, SPD scale beta, with Delta = beta^{1/2} cached."""

    n: int
    xi: np.ndarray
    beta: np.ndarray
    delta: np.ndarray = None

    def __post_init__(self):
        xi = check_spd(self.xi, "xi")
        m = xi.shape[0]
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim == 0:
            beta = float(beta) * np.eye(m)
        beta, w, P = _spd_eigh(beta, "beta")
        if beta.shape[0] != m:
            raise DomainError(f"xi is {m}x{m} but beta is {beta.shape[0]}x{beta.shape[0]}")
        if self.n < m:
            raise DomainError(f"need degrees n >= m, got n={self.n}, m={m}")
        if self.delta is None:
            delta = _sqrt_from_eigh(w, P)
        else:
            delta = np.asarray(self.delta, dtype=float)
            if np.abs(delta @ delta - beta).max() > 1e-10 * max(np.abs(beta).max(), 1.0):
                raise DomainError("supplied delta is not the square root of beta")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def from_delta(cls, n: int, xi, delta) -> "GbsParams":
        delta = check_spd(delta, "delta")
        return cls(n=n, xi=np.asarray(xi, dtype=float), beta=delta @ delta, delta=delta)

    @property
    def m(self) -> int:
        return self.xi.shape[0]


@dataclass(frozen=True)
class JacobianReport:
    """Cross-validated Jacobian values for one (V, params) instance."""

    det_form: float
    sv_form: float
    fd_form: float
    rel_disagreement: float
    sign: int  # sign of the product-form factor before taking absolute value


def _validate_v(V, params: GbsParams) -> np.ndarray:
    V = as_matrix(V, "V")
    n, m = V.shape
    if (n, m) != (params.n, params.m):
        raise DomainError(f"V has shape {V.shape}, params expect ({params.n}, {params.m})")
    return V


def forward_map(V, params: GbsParams) -> np.ndarray:
    """Z = (V Delta^{-1} - V'^+ Delta) Xi^{-1} for full-column-rank V."""
    V = _validate_v(V, params)
    vtp = pinv(V).T  # V'^+ = (V^+)' = V (V'V)^{-1}
    core = V @ np.linalg.inv(params.delta) - vtp @ params.delta
    return core @ np.linalg.inv(params.xi)


def _cosines(P: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per slice of a (K, m, n) stack of rows P with norms d, the largest
    |cosine| between two rows (0 for m = 1; nan where a row is zero)."""
    m = P.shape[1]
    top = np.zeros(P.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(m):
            for j in range(i + 1, m):
                g = np.einsum("kn,kn->k", P[:, i], P[:, j])
                top = np.maximum(top, np.abs(g) / (d[:, i] * d[:, j]))
    return top


def _jacobi_sweep(P: np.ndarray, Qt: np.ndarray) -> np.ndarray:
    """One cyclic sweep of one-sided Jacobi rotations over the rows of each
    (m, n) slice of P, in place: each rotation makes a pair of rows
    orthogonal and turns the same pair of rows of Qt.  Returns per slice
    the largest |cosine| between two rows before their rotation."""
    K, m = P.shape[:2]
    top = np.zeros(K)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(m):
            for j in range(i + 1, m):
                a, b = P[:, i], P[:, j]
                aa, bb, g = (np.einsum("kn,kn->k", a, a), np.einsum("kn,kn->k", b, b),
                             np.einsum("kn,kn->k", a, b))
                top = np.maximum(top, np.abs(g) / np.sqrt(aa * bb))
                zeta = (bb - aa) / (2.0 * g)
                t = np.where(g == 0.0, 0.0, np.sign(zeta) / (np.abs(zeta) + np.hypot(1.0, zeta)))
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = c * t[:, None]
                for A in (P, Qt):
                    A[:, i], A[:, j] = c * A[:, i] - s * A[:, j], s * A[:, i] + c * A[:, j]
    return top


def _branch_factors(Y: np.ndarray):
    """Y = H1 diag(d) Q' for a (K, n, m) stack Y, with d in descending order;
    returns H1' as (K, m, n), d as (K, m) and Q' as (K, m, m).

    One batched eigh of the Gram matrix Y'Y gives Q.  eigh fixes the
    directions of Y's small singular vectors only to eps |Y|^2 over the
    gaps of Y'Y, so where the columns of Y Q are not orthogonal to
    ORTHO_TOL, one-sided Jacobi sweeps over them, each rotation applied to
    Q as well, make them orthogonal from the columns themselves.  H1 is
    the columns over their norms d.  A column with no part above
    ORTHO_TOL of the largest is rounding noise with no reliable direction;
    it is replaced by the canonical vector least in the span of the
    columns before it, so H1 stays orthonormal when Y is rank deficient.
    """
    n = Y.shape[1]
    Qt = np.linalg.eigh(np.swapaxes(Y, 1, 2) @ Y)[1][:, :, ::-1].transpose(0, 2, 1)
    P = Qt @ np.swapaxes(Y, 1, 2)  # one row per column of Y Q, descending
    d = np.sqrt(np.einsum("kmn,kmn->km", P, P))
    swept = live = np.flatnonzero(_cosines(P, d) > ORTHO_TOL)
    for _ in range(JACOBI_SWEEPS):
        if not live.size:
            break
        part, turn = P[live], Qt[live]
        top = _jacobi_sweep(part, turn)
        P[live], Qt[live] = part, turn
        d[live] = np.sqrt(np.einsum("kmn,kmn->km", part, part))
        live = live[top > JACOBI_TOL]
    if swept.size:  # a rotation may reorder the norms
        order = np.argsort(-d[swept], axis=1)
        d[swept] = np.take_along_axis(d[swept], order, axis=1)
        P[swept] = np.take_along_axis(P[swept], order[:, :, None], axis=1)
        Qt[swept] = np.take_along_axis(Qt[swept], order[:, :, None], axis=1)
    weak = ~(d > ORTHO_TOL * d[:, :1])
    P /= np.where(weak, 1.0, d)[:, :, None]
    for k, j in zip(*np.nonzero(weak)):
        rest = np.eye(n) - P[k, :j].T @ P[k, :j]
        e = rest[np.argmax(np.einsum("ij,ij->i", rest, rest))]
        P[k, j] = e / math.sqrt(e @ e)
    return P, d, Qt


def _whitened_spectrum(L: np.ndarray, A: np.ndarray):
    """Eigen-system of W = A^{-T} Y A^{-1} for SPD Y = L L', from a factor L
    (m x p, or a (K, m, p) stack) of Y: the Cholesky factor of T, or V' for
    Y = V'V.

    The eigenvalues are the squared singular values of G = L' A^{-1}, so
    the conditioning of A enters only linearly.  G is factored as the
    sampler factors Z Xi (_branch_factors): eigh of W = G'G, then one-sided
    Jacobi sweeps where the columns of G Q are not orthogonal.  Where every
    eigenvalue is at least 1.001 (m = 1 to 5, singular values up to 1e12
    apart), the eigenvalues and the trace argument are within 1e-12
    relative of numpy's SVD of G, or of 50-digit values where that SVD
    strays further; near a tied eigenvalue at 1 both routes are good only
    to about eps / (delta - 1).  Returns (eigenvalues descending,
    eigenvectors as columns).
    """
    G = np.swapaxes(L, -1, -2) @ np.linalg.inv(A)
    _, d, Qt = _branch_factors(G if G.ndim == 3 else G[None])
    deltas, vecs = d * d, np.swapaxes(Qt, 1, 2)
    return (deltas, vecs) if L.ndim == 3 else (deltas[0], vecs[0])


def inverse_map_branch(Z, params: GbsParams) -> np.ndarray:
    """Right inverse of forward_map on the branch with singular values >= 1.

    Z is one (n, m) matrix, giving one (n, m) V, or a (K, n, m) stack,
    giving a (K, n, m) stack mapped slice by slice.  Factors Y = Z Xi as
    H1 diag(d) Q' from one batched eigh of the Gram matrix Y'Y, which gives
    Q, with H1 and the singular values d from the columns of Y Q
    (_branch_factors).  Each d maps through l = (d + sqrt(d^2 + 4)) / 2
    >= 1, returning V = H1 diag(l) Q' Delta.  Z = 0 returns the canonical
    fixed point [I_m; 0] Delta.  V is a spectral function of Z Xi, so tied
    singular values invert like any others: within a tied block H1 and Q
    are not unique, but H1 diag(l) Q' is.
    """
    Z = np.asarray(Z, dtype=float)
    stack = Z.ndim == 3
    if stack:
        if not np.isfinite(Z).all():
            raise DomainError("Z contains non-finite entries")
    else:
        Z = as_matrix(Z, "Z")[None]
    n, m = Z.shape[1:]
    if (n, m) != (params.n, params.m):
        raise DomainError(f"Z has shape {Z.shape[1:]}, params expect ({params.n}, {params.m})")
    zero = ~Z.any(axis=(1, 2))
    Ht, d, Qt = _branch_factors(Z @ params.xi)
    ell = 0.5 * (d + np.sqrt(d * d + 4.0))
    V = np.swapaxes(Ht * ell[:, :, None], 1, 2) @ Qt @ params.delta
    if zero.any():
        V[zero] = np.eye(n, m) @ params.delta
    return V if stack else V[0]


def branch_eigs(V, params: GbsParams):
    """Eigenvalues (descending) and eigenvectors of Delta^{-1} V'V Delta^{-1},
    the squared singular values of V Delta^{-1} from its one factorisation
    (_whitened_spectrum), held to the floor of linalg._require_floor: a
    rank-deficient V raises NotSpdError.  The branch region is where every
    eigenvalue exceeds 1."""
    V = _validate_v(V, params)
    deltas, vecs = _whitened_spectrum(V.T, params.delta)
    _require_floor(deltas[None], "V'V", False)
    return deltas, vecs


def _gfactor_pairs(n: int, m: int):
    """Weights and index pairs (i, j) of the product form's pair factors.

    One factor per pair i <= j, F_ij = 1 - x_i x_j in the first form
    (x = 1/d), so that 1 - x_i = F_ii / (1 + x_i); the diagonal counts only
    for n > m, where the factor (1 - x_i)^(n-m) is present.
    """
    pairs = [(i, j) for i in range(m) for j in range(i if n > m else i + 1, m)]
    weights = np.array([n - m if i == j else 1 for i, j in pairs], dtype=int)
    return weights, np.array(pairs, dtype=np.intp).reshape(-1, 2)


@np.errstate(divide="ignore")
def log_abs_gfactor(deltas, n: int, m: int, form: str = "first"):
    """log|G| and sign of the product-form Jacobian factor at eigenvalues deltas.

    first:   prod (1 - 1/d_i)^(n-m) (1 + 1/d_i) prod_{i<j} (1 - 1/(d_i d_j))
    second:  prod d_i^(-n) (d_i - 1)^(n-m) (1 + d_i) prod_{i<j} (d_i d_j - 1)

    deltas is one set of m eigenvalues or a (K, m) batch, giving one value
    per set.  Returns (log_abs, sign); sign = 0 with log_abs = -inf on the
    zero set, anything within BOUNDARY_TOL of d_i = 1 (for n > m) or
    d_i d_j = 1.
    """
    d = np.moveaxis(np.asarray(deltas, dtype=float), -1, 0)  # one row per eigenvalue
    if form == "first":
        x = np.divide(1.0, d, order="C")
    elif form == "second":
        x = np.array(d, order="C")
    else:
        raise DomainError(f"form must be 'first' or 'second', got {form!r}")
    weights, rows = _gfactor_pairs(n, m)
    F = x[rows[:, 0]] * x[rows[:, 1]]
    F = 1.0 - F if form == "first" else F - 1.0
    a = np.abs(F)
    zero = a.min(axis=0, initial=np.inf) < BOUNDARY_TOL
    # summed factor by factor, so each value's rounding is its own
    log_abs = ((weights.reshape((-1,) + (1,) * (a.ndim - 1)) * np.log(a)).sum(axis=0)
               + (1 - max(n - m, 0)) * np.log1p(x).sum(axis=0))
    if form == "second":
        log_abs -= n * np.log(x).sum(axis=0)
    log_abs = np.where(zero, -np.inf, log_abs)
    sign = np.where(zero, 0, 1 - 2 * (weights @ (F < 0.0) % 2)).astype(int)
    if log_abs.ndim == 0:
        return float(log_abs), int(sign)
    return log_abs, sign


def log_gfactor_slope(deltas, n: int, m: int):
    """log|G| as log_abs_gfactor gives it, d log|G| / d ln beta and
    d^2 log|G| / d (ln beta)^2, each summed over the K axis of a (..., K, m)
    array of deltas, the eigenvalues of beta^{-1} T: one value per leading index.

    In the first form every x = 1/d is proportional to beta, so each pair
    factor F = x_i x_j contributes -2 w F / (1 - F) to the slope and
    -4 w F / (1 - F)^2 to the curvature, and each eigenvalue c x / (1 + x)
    and c x / (1 + x)^2, c = 1 - max(n - m, 0), off log_abs_gfactor's zero set.
    """
    x = np.divide(1.0, np.moveaxis(np.asarray(deltas, dtype=float), -1, 0), order="C")
    weights, rows = _gfactor_pairs(n, m)
    weights = weights.reshape((-1,) + (1,) * (x.ndim - 1))
    F = x[rows[:, 0]] * x[rows[:, 1]]
    gap, c = 1.0 - F, 1 - max(n - m, 0)
    log_abs = (weights * np.log(np.abs(gap))).sum(axis=0) + c * np.log1p(x).sum(axis=0)
    log_abs = np.where(np.abs(gap).min(axis=0, initial=np.inf) < BOUNDARY_TOL, -np.inf, log_abs)
    pair = -2.0 * weights * F / gap
    single = c * x / (1.0 + x)
    curvature = (2.0 * pair / gap).sum(axis=0) + (single / (1.0 + x)).sum(axis=0)
    return (log_abs.sum(axis=-1), (pair.sum(axis=0) + single.sum(axis=0)).sum(axis=-1),
            curvature.sum(axis=-1))


def jacobian_det_form(V, params: GbsParams) -> float:
    """|Jacobian| of forward_map from the explicit nm x nm determinant.

    Assembles |Xi|^{-n} |Delta^{-1} x I_n + (Delta x I_n)(K_{mn}(V'^+ x V^+)
    - (V'V)^{-1} x (I_n - V V^+))| with column-major vec conventions.
    """
    V = _validate_v(V, params)
    n, m = V.shape
    eye_n = np.eye(n)
    vp = pinv(V)                       # (V'V)^{-1} V'
    vtp = vp.T                         # V'^+ = V (V'V)^{-1}
    vtv_inv = vp @ vtp                 # (V'V)^{-1}
    dinv = np.linalg.inv(params.delta)
    inner = (np.kron(dinv, eye_n)
             + np.kron(params.delta, eye_n)
             @ (commutation(m, n) @ np.kron(vtp, vp) - np.kron(vtv_inv, eye_n - V @ vp)))
    sign_xi, logdet_xi = np.linalg.slogdet(params.xi)
    sign_in, logdet_in = np.linalg.slogdet(inner)
    if sign_in == 0:
        return 0.0
    return float(math.exp(-n * logdet_xi + logdet_in))


def log_jacobian_sv(g2, params: GbsParams, form: str):
    """log|Jacobian| of forward_map by the product form, and the factor's sign,
    at the eigenvalues g2, the first of branch_eigs(V, params).  The form has
    no 1/(d_i - d_j) term, so tied eigenvalues need no care; on the unit
    boundary it gives -inf and sign 0, as the determinant form gives 0."""
    n, m = params.n, params.m
    log_g, sign = log_abs_gfactor(g2, n, m, form=form)
    _, logdet_xi = np.linalg.slogdet(params.xi)
    _, logdet_beta = np.linalg.slogdet(params.beta)
    return -n * logdet_xi - 0.5 * n * logdet_beta + log_g, sign


def jacobian_sv_form(V, params: GbsParams, variant: str = "first") -> float:
    """|Jacobian| of forward_map via the singular-value product form."""
    log_j, _ = log_jacobian_sv(branch_eigs(V, params)[0], params, variant)
    return float(math.exp(log_j))


def jacobian_fd_oracle(V, params: GbsParams, step: float = 1e-5) -> float:
    """|Jacobian| by central differences of forward_map; independent check."""
    if not 1e-6 <= step <= 1e-4:
        raise DomainError(f"step must lie in [1e-6, 1e-4], got {step}")
    V = _validate_v(V, params)
    n, m = V.shape
    M = np.empty((n * m, n * m))
    for b in range(n * m):
        bump = np.zeros(n * m)
        bump[b] = step
        bump = bump.reshape((n, m), order="F")
        M[:, b] = (vec(forward_map(V + bump, params))
                   - vec(forward_map(V - bump, params))) / (2.0 * step)
    sign, logdet = np.linalg.slogdet(M)
    return 0.0 if sign == 0 else float(math.exp(logdet))


def jacobian_report(V, params: GbsParams) -> JacobianReport:
    """All Jacobian routes plus their worst pairwise relative disagreement."""
    det_val = abs(jacobian_det_form(V, params))
    log_sv, sign = log_jacobian_sv(branch_eigs(V, params)[0], params, "first")
    sv_val = float(math.exp(log_sv))
    fd_val = jacobian_fd_oracle(V, params)
    values = [det_val, sv_val, jacobian_sv_form(V, params, "second"), fd_val]
    hi, lo = max(values), min(values)
    rel = 0.0 if hi == 0.0 else (hi - lo) / hi
    return JacobianReport(det_form=det_val, sv_form=sv_val, fd_form=fd_val,
                          rel_disagreement=float(rel), sign=sign)
