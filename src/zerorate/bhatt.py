"""Output kernels per feasible state pair and the Bhattacharyya matrix.

Distances are in nats per channel use: d(i, j) = -ln sum_y sqrt(p_i p_j)
for discrete rows, (mu_i - mu_j)^2 / (8 sigma^2) for a shared-variance
Gaussian family. Disjoint-support rows get +inf with a flag; the
optimization layer refuses to run over them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fsm import FeasiblePairSet

PMF_TOL = 1e-12  # rows are renormalized below this deviation, rejected above

DISCRETE = "discrete"
GAUSSIAN = "gaussian"


@dataclass(frozen=True, eq=False)
class ChannelKernel:
    """One output law per feasible pair: either a pmf row over a finite
    output alphabet or a Gaussian mean with a shared variance."""

    kind: str
    outputs: tuple | None = None
    pmf: np.ndarray | None = None
    means: np.ndarray | None = None
    variance: float | None = None

    @property
    def n_rows(self) -> int:
        return len(self.pmf) if self.kind == DISCRETE else len(self.means)


def discrete_kernel(outputs, pmf) -> ChannelKernel:
    pmf = np.array(pmf, dtype=float)
    if pmf.ndim != 2 or pmf.shape[1] != len(tuple(outputs)):
        raise ValidationError("pmf must be (n_pairs, n_outputs)")
    if not (np.isfinite(pmf) & (pmf >= 0)).all():
        raise ValidationError("pmf entries must be finite and nonnegative")
    sums = pmf.sum(axis=1)
    off = np.abs(sums - 1.0)
    if (off > PMF_TOL).any():
        i = int(np.argmax(off))
        raise ValidationError(f"pmf row {i} sums to {sums[i]!r}, not 1")
    pmf /= sums[:, None]
    pmf.setflags(write=False)
    return ChannelKernel(kind=DISCRETE, outputs=tuple(outputs), pmf=pmf)


def gaussian_kernel(means, variance) -> ChannelKernel:
    means = np.array(means, dtype=float)
    if means.ndim != 1 or not np.isfinite(means).all():
        raise ValidationError("means must be a finite vector indexed by pair")
    variance = float(variance)
    if not 0 < variance < np.inf:
        raise ValidationError("variance must be strictly positive and finite")
    means.setflags(write=False)
    return ChannelKernel(kind=GAUSSIAN, means=means, variance=variance)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative L x L matrix, zero diagonal, +inf allowed."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValidationError("distance matrix must be square")
        object.__setattr__(self, "d", d)
        d.setflags(write=False)

    def __len__(self) -> int:
        return len(self.d)

    @property
    def has_infinite(self) -> bool:
        return bool(np.isinf(self.d).any())


def bhattacharyya(kernel: ChannelKernel, pairs: FeasiblePairSet) -> DistanceMatrix:
    """The pairwise distance matrix over feasible pairs.

    Symmetry is exact: a discrete pair is computed once and mirrored, and
    a Gaussian (mu_i - mu_j)^2 equals (mu_j - mu_i)^2 bit for bit (the
    kernel's means are finite, so the diagonal is 0). A zero Bhattacharyya
    coefficient (disjoint supports) is recorded as +inf.
    """
    L = len(pairs)
    if kernel.n_rows != L:
        raise ValidationError(f"kernel has {kernel.n_rows} rows, expected {L}")
    if kernel.kind == GAUSSIAN:
        mu = kernel.means
        diff = mu[:, None] - mu[None, :]
        return DistanceMatrix(diff * diff / (8.0 * kernel.variance))
    root = np.sqrt(kernel.pmf)
    bc = root @ root.T
    d = np.zeros((L, L))
    iu = np.triu_indices(L, 1)
    with np.errstate(divide="ignore"):
        vals = -np.log(bc[iu])
    d[iu] = np.maximum(vals, 0.0)  # clip tiny negative roundoff for identical rows
    d = d + d.T
    return DistanceMatrix(d)


def log_pmf(kernel: ChannelKernel) -> np.ndarray:
    """Dense (L, |Y|) table of ln p(y|pair); -inf where p = 0."""
    with np.errstate(divide="ignore"):
        return np.log(kernel.pmf)
