"""Self-contained oracle suite behind the ``validate`` CLI command.

Cross-checks that do not depend on any dataset: agreement of the three
Jacobian routes, radial quadrature of kernel normalising constants,
the Gaussian/Kotz kernel identity, univariate reduction of the matrix
density, transformation round-trips, branch-region normalisation, and
the inverse/congruence transformation identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Convention, logpdf_T, logpdf_T_congruence, logpdf_T_inverse, logpdf_uni_gbs
from .kernels import KernelSpec, gaussian_kernel, kotz_kernel, log_h
from .linalg import sym_part
from .transform import GbsParams, forward_map, inverse_map_branch, jacobian_report

__all__ = ["CheckResult", "run_validation", "format_report"]


# one composite Gauss-Legendre rule over (0, inf): 16 panels of 64 nodes, rho = t / (1 - t)
_X, _W = np.polynomial.legendre.leggauss(64)
_T = ((np.arange(16)[:, None] + 0.5 * (_X + 1.0)) / 16.0).ravel()
_RHO, _RHO_WEIGHTS = _T / (1.0 - _T), np.tile(_W, 16) / 32.0 / (1.0 - _T) ** 2


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rand_spd(m, rng, lo=0.5, hi=2.0):
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    return sym_part(Q @ np.diag(rng.uniform(lo, hi, size=m)) @ Q.T)


def _check_jacobians(rng, trials=40):
    worst_sv, worst_fd = 0.0, 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        params = GbsParams(n=n, xi=_rand_spd(m, rng), beta=_rand_spd(m, rng))
        V = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0)
        rep = jacobian_report(V, params)
        closed = [rep.det_form, rep.sv_form]
        worst_sv = max(worst_sv, abs(closed[0] - closed[1]) / max(closed))
        worst_fd = max(worst_fd, abs(rep.fd_form - rep.det_form) / rep.det_form)
    ok = worst_sv < 1e-6 and worst_fd < 1e-4
    return CheckResult("jacobian-triple-agreement", ok,
                       f"max closed-form rel diff {worst_sv:.2e}, vs FD {worst_fd:.2e}"
                       f" over {trials} instances")


def _radial_norm(kernel: KernelSpec) -> float:
    nm = kernel.nm
    log_surface = math.log(2.0) + 0.5 * nm * math.log(math.pi) - math.lgamma(nm / 2)
    log_f = log_surface + (nm - 1) * np.log(_RHO) + log_h(kernel, _RHO * _RHO)
    return float(_RHO_WEIGHTS @ np.exp(log_f))


def _check_radial_normalization():
    worst = 0.0
    cases = []
    for (n, m) in ((1, 1), (2, 1), (2, 2), (6, 2)):
        for kernel in (gaussian_kernel(n, m),
                       kotz_kernel(2.0, 1.0, 1.0, n, m),
                       kotz_kernel(1.0, 0.5, 1.0, n, m),
                       kotz_kernel(1.5, 0.8, 1.25, n, m)):
            err = abs(_radial_norm(kernel) - 1.0)
            worst = max(worst, err)
            cases.append(err)
    return CheckResult("kernel-radial-normalization", worst < 1e-8,
                       f"max |integral - 1| = {worst:.2e} over {len(cases)} kernels")


def _check_kernel_identity(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, min(n, 3) + 1))
        u = float(rng.uniform(0.0, 30.0))
        worst = max(worst, abs(log_h(gaussian_kernel(n, m), u)
                               - log_h(kotz_kernel(1.0, 0.5, 1.0, n, m), u)))
    return CheckResult("gaussian-kotz-identity", worst < 1e-10,
                       f"max |log h difference| = {worst:.2e}")


def _check_univariate_reduction():
    worst = 0.0
    kernels = (gaussian_kernel(1, 1), kotz_kernel(2.0, 1.0, 1.0, 1, 1))
    for kernel in kernels:
        for alpha, beta in ((0.5, 1.0), (1.0, 2.0), (2.0, 5.0)):
            params = GbsParams(n=1, xi=np.array([[alpha]]), beta=np.array([[beta]]))
            for t in np.linspace(0.2 * beta, 4.0 * beta, 25):
                a = logpdf_T(np.array([[t]]), params, kernel, Convention.AS_PUBLISHED)
                b = logpdf_uni_gbs(float(t), alpha, beta, kernel)
                worst = max(worst, abs(a - b))
    return CheckResult("univariate-reduction", worst < 1e-12,
                       f"max |difference| = {worst:.2e} on the evaluation grid")


def _check_round_trips(rng, trials=25):
    worst_right, worst_left = 0.0, 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        params = GbsParams(n=n, xi=_rand_spd(m, rng), beta=_rand_spd(m, rng))
        Z = rng.normal(size=(n, m))
        V = inverse_map_branch(Z, params)
        worst_right = max(worst_right, np.abs(forward_map(V, params) - Z).max())
        V2 = inverse_map_branch(forward_map(V, params), params)
        worst_left = max(worst_left, np.abs(V2 - V).max())
    ok = worst_right < 1e-10 and worst_left < 1e-10
    return CheckResult("transform-round-trips", ok,
                       f"max right-inverse error {worst_right:.2e},"
                       f" left-inverse error {worst_left:.2e}")


def _check_branch_normalization():
    worst = 0.0
    for n in (1, 2, 3):
        params = GbsParams(n=n, xi=np.array([[0.8]]), beta=np.array([[1.5]]))
        t = (1.5 + _RHO)[:, None, None]
        density = logpdf_T(t, params, gaussian_kernel(n, 1), Convention.BRANCH_NORMALIZED)
        worst = max(worst, abs(_RHO_WEIGHTS @ np.exp(density) - 1.0))
    return CheckResult("branch-normalization", worst < 1e-6,
                       f"max |mass - 1| = {worst:.2e} for scalar data, n in (1,2,3)")


def _check_transform_identities(rng, trials=20):
    worst = 0.0
    n, m = 6, 2
    kernel = gaussian_kernel(n, m)
    for _ in range(trials):
        params = GbsParams(n=n, xi=_rand_spd(m, rng), beta=_rand_spd(m, rng, 0.8, 2.5))
        T = _rand_spd(m, rng, 1.0, 6.0)
        S = np.linalg.inv(T)
        _, logdet_S = np.linalg.slogdet(S)
        a = logpdf_T_inverse(S, params, kernel, Convention.AS_PUBLISHED)
        b = logpdf_T(T, params, kernel, Convention.AS_PUBLISHED) - (m + 1) * logdet_S
        worst = max(worst, abs(a - b))
        C = rng.normal(size=(m, m)) + 0.5 * np.eye(m)
        Y = sym_part(C.T @ T @ C)
        _, logdet_C = np.linalg.slogdet(C)
        a = logpdf_T_congruence(Y, C, params, kernel, Convention.AS_PUBLISHED)
        b = logpdf_T(T, params, kernel, Convention.AS_PUBLISHED) - (m + 1) * logdet_C
        worst = max(worst, abs(a - b))
    return CheckResult("transformation-identities", worst < 1e-10,
                       f"max |formula - change of variables| = {worst:.2e}")


def run_validation(seed: int = 0) -> list[CheckResult]:
    """Run every oracle check; returns one result per check."""
    rng = np.random.default_rng(seed)
    suite = [
        ("jacobian-triple-agreement", lambda: _check_jacobians(rng)),
        ("kernel-radial-normalization", _check_radial_normalization),
        ("gaussian-kotz-identity", lambda: _check_kernel_identity(rng)),
        ("univariate-reduction", _check_univariate_reduction),
        ("transform-round-trips", lambda: _check_round_trips(rng)),
        ("branch-normalization", _check_branch_normalization),
        ("transformation-identities", lambda: _check_transform_identities(rng)),
    ]
    checks = []
    for name, fn in suite:
        try:
            checks.append(fn())
        except Exception as err:  # a crash is a failed check, not a crash of the suite
            checks.append(CheckResult(name, False, f"raised {err!r}"))
    return checks


def format_report(checks: list[CheckResult]) -> str:
    lines = []
    for c in checks:
        lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n"
