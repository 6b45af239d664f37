"""Samplers for the matrix square-root law and for T = V'V.

The sampler draws Z from the elliptical kernel and applies the branch
inverse of the matrix transformation, so every draw lands in the branch
region (all eigenvalues of beta^{-1} T at least 1).  This is exactly the
population described by the BRANCH_NORMALIZED density convention; the
as-published constant describes the same shape at 2^{-m} of the mass.

A batch of K draws is one computation on stacks: a (K, n, m) stack of Z
from one kernel call, one batched branch inverse giving the (K, n, m)
stack of V, and the (K, m, m) stack of T.  sample_V and sample_T are the
same path at K = 1.  A Kotz kernel draws all K radii before all K
directions, so K one-draw calls give other Kotz draws than one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import KernelSpec, sample_symmetric
from .linalg import sym_part
from .transform import GbsParams, inverse_map_branch

__all__ = ["SampleBatch", "sample_T", "sample_V", "sample_batch"]


@dataclass
class SampleBatch:
    """K observed matrices of order m plus generation provenance.  The fit or
    density that factors them checks that they are SPD."""

    m: int
    count: int
    matrices: np.ndarray  # (count, m, m)
    params: GbsParams | None = None
    kernel: KernelSpec | None = None
    seed: int | None = None

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape != (self.count, self.m, self.m):
            raise DomainError(
                f"matrices must have shape ({self.count}, {self.m}, {self.m}),"
                f" got {mats.shape}")
        if self.count < 1:
            raise DomainError("a batch holds at least one matrix")
        self.matrices = mats

    def __len__(self) -> int:
        return self.count


def _draw_V(params: GbsParams, kernel: KernelSpec, rng: np.random.Generator,
            count: int) -> np.ndarray:
    """A (count, n, m) stack of branch draws V: one stacked kernel draw
    mapped by one batched branch inverse."""
    kernel.check_dims(params.n, params.m)
    Z = sample_symmetric(kernel, rng, count)
    with np.errstate(over="ignore", invalid="ignore"):
        V = inverse_map_branch(Z, params)
        # tr V'V bounds every entry of T = V'V
        finite = np.isfinite(np.einsum("kij,kij->k", V, V)).all()
    if not finite:
        power = f" at kotz power s={kernel.s:g}" if kernel.s is not None else ""
        raise DomainError(f"the draws overflow{power}")
    return V


def sample_V(params: GbsParams, kernel: KernelSpec,
             rng: np.random.Generator) -> np.ndarray:
    """One (n, m) draw of the rectangular factor V on the branch with
    singular values of V Delta^{-1} at least 1."""
    return _draw_V(params, kernel, rng, 1)[0]


def sample_T(params: GbsParams, kernel: KernelSpec,
             rng: np.random.Generator) -> np.ndarray:
    """One (m, m) SPD draw T = V'V with all eigenvalues of beta^{-1} T at least 1."""
    return sample_batch(params, kernel, 1, rng).matrices[0]


def sample_batch(params: GbsParams, kernel: KernelSpec, count: int,
                 rng: np.random.Generator | int) -> SampleBatch:
    """K independent draws of T, with provenance recorded for reproducibility.

    The draws are computed as one (K, n, m) stack of V and its (K, m, m)
    stack of T = V'V, so a fixed seed gives a fixed batch.  For the
    Gaussian kernel they equal K successive sample_T calls on the same
    generator bit for bit; the Kotz kernel's stacked stream draws all radii
    first, so its batch differs from K one-draw calls.  Passing an integer
    uses it as the seed of a fresh generator and records it in the batch;
    passing a generator records no seed.
    """
    if count < 1:
        raise DomainError(f"count must be at least 1, got {count}")
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    V = _draw_V(params, kernel, rng, count)
    return SampleBatch(m=params.m, count=count,
                       matrices=sym_part(np.swapaxes(V, 1, 2) @ V),
                       params=params, kernel=kernel, seed=seed)
