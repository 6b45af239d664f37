"""Elliptical generator kernels with exact normalising constants.

Two families ship: the Gaussian kernel and the Kotz type kernel
h(u) proportional to u^(q-1) exp(-r u^s).  Each kernel carries its full
normalising constant for the ambient n x m matrix space, so that
exp(log_h(tr Z'Z)) is a probability density on R^(n x m).  Everything is
evaluated in the log domain; h itself is only exponentiated by callers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularKernelWarning

GAUSSIAN = "gaussian"
KOTZ = "kotz"

__all__ = ["KernelSpec", "gaussian_kernel", "kotz_kernel", "kernel_from_json",
           "kernel_to_json", "log_h", "sample_symmetric"]


@dataclass(frozen=True)
class KernelSpec:
    """Generator kernel family plus the ambient dimensions it normalises over."""

    family: str
    n: int
    m: int
    q: float | None = None
    r: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DomainError(f"ambient dimensions must be positive, got ({self.n}, {self.m})")
        if self.family == GAUSSIAN:
            if any(p is not None for p in (self.q, self.r, self.s)):
                raise DomainError("gaussian kernel takes no shape parameters")
        elif self.family == KOTZ:
            if any(p is None for p in (self.q, self.r, self.s)):
                raise DomainError("kotz kernel needs q, r, s")
            if self.r <= 0.0:
                raise DomainError(f"kotz r must be positive, got {self.r}")
            if self.s <= 0.0:
                raise DomainError(f"kotz s must be positive, got {self.s}")
            if 2 * self.q + self.m * self.n <= 2:
                raise DomainError(
                    f"kotz requires 2q + mn > 2, got q={self.q}, nm={self.n * self.m}")
        else:
            raise DomainError(f"unknown kernel family {self.family!r}")

    def check_dims(self, n: int, m: int) -> None:
        """Raise DomainError unless the kernel is normalised for n x m matrices."""
        if (self.n, self.m) != (n, m):
            raise DomainError(f"kernel normalised for dims ({self.n}, {self.m}),"
                              f" expected ({n}, {m})")

    @property
    def nm(self) -> int:
        return self.n * self.m

    def gamma_shape(self) -> float:
        """Shape of the Gamma radial transform W = r (tr Z'Z)^s."""
        if self.family == GAUSSIAN:
            return self.nm / 2
        return (2 * self.q + self.nm - 2) / (2 * self.s)


def gaussian_kernel(n: int, m: int) -> KernelSpec:
    return KernelSpec(family=GAUSSIAN, n=n, m=m)


def kotz_kernel(q: float, r: float, s: float, n: int, m: int) -> KernelSpec:
    return KernelSpec(family=KOTZ, n=n, m=m, q=q, r=r, s=s)


def log_h(kernel: KernelSpec, u):
    """log generator at u >= 0, normalising constant included.

    u may be a scalar (float result) or an array (element-wise array
    result).  Kotz at u = 0 with q != 1 is degenerate: the density is 0
    for q > 1 (returns -inf) and diverges for q < 1 (returns +inf with a
    SingularKernelWarning).
    """
    u_arr = np.asarray(u, dtype=float)
    lowest = u_arr.min(initial=np.inf)
    if lowest < 0.0:
        raise DomainError(f"generator argument must be nonnegative, got {lowest}")
    nm = kernel.nm
    if kernel.family == GAUSSIAN:
        value = -0.5 * nm * math.log(2 * math.pi) - 0.5 * u_arr
    else:
        q, r, s = kernel.q, kernel.r, kernel.s
        a = (2 * q + nm - 2) / (2 * s)
        const = (math.log(s) + a * math.log(r) + math.lgamma(nm / 2)
                 - 0.5 * nm * math.log(math.pi) - math.lgamma(a))
        value = const - r * u_arr**s
        if q != 1.0:
            if q < 1.0 and lowest == 0.0:
                warnings.warn("kotz kernel diverges at u = 0 for q < 1",
                              SingularKernelWarning, stacklevel=2)
            with np.errstate(divide="ignore"):
                value = value + (q - 1.0) * np.log(u_arr)
    return float(value) if np.ndim(value) == 0 else value


def sample_symmetric(kernel: KernelSpec, rng: np.random.Generator,
                     count: int | None = None) -> np.ndarray:
    """Draw n x m matrices from the zero-mean, identity-scale elliptical family.

    Returns one (n, m) draw, or a (count, n, m) stack of count draws.
    Gaussian: i.i.d. standard normal entries, so a stack equals count
    one-draw calls bit for bit.  Kotz: radius R with r R^(2s) ~ Gamma(shape,
    rate 1) times a uniform direction on the unit sphere in R^(nm) (Fang,
    Kotz and Ng), drawn as all count gamma variates, then all count normal
    vectors: a fixed seed gives a fixed stack, but not the draws of count
    one-draw calls.
    """
    n, m = kernel.n, kernel.m
    size = 1 if count is None else count
    if kernel.family == GAUSSIAN:
        Z = rng.standard_normal((size, n, m))
    else:
        W = rng.standard_gamma(kernel.gamma_shape(), size)
        G = rng.standard_normal((size, n * m))
        with np.errstate(over="ignore"):
            radius = (W / kernel.r) ** (1.0 / (2.0 * kernel.s))
        if not np.isfinite(radius).all():
            raise DomainError(f"the radius overflows at kotz power s={kernel.s:g}")
        Z = ((radius / np.sqrt(np.einsum("ki,ki->k", G, G)))[:, None] * G).reshape(size, n, m)
    return Z[0] if count is None else Z


def kernel_to_json(kernel: KernelSpec) -> dict:
    """Wire form: {"family": "gaussian"} or {"family": "kotz", "q":, "r":, "s":}."""
    if kernel.family == GAUSSIAN:
        return {"family": GAUSSIAN}
    return {"family": KOTZ, "q": kernel.q, "r": kernel.r, "s": kernel.s}


def kernel_from_json(obj: dict, n: int, m: int) -> KernelSpec:
    try:
        family = obj["family"]
    except (TypeError, KeyError):
        raise DomainError("kernel JSON must be an object with a 'family' key")
    if family == GAUSSIAN:
        return gaussian_kernel(n, m)
    if family == KOTZ:
        try:
            return kotz_kernel(float(obj["q"]), float(obj["r"]), float(obj["s"]), n, m)
        except KeyError as missing:
            raise DomainError(f"kotz kernel JSON missing {missing}")
    raise DomainError(f"unknown kernel family {family!r}")
