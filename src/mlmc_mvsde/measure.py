"""Empirical measures and the metric layer on top of them.

A particle cloud doubles as the uniform empirical measure over its rows.
Only equal-size, equal-weight clouds are compared, which keeps the optimal
coupling a square assignment problem: sorted matching on the line, exact
linear assignment in higher dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, NumericError, ShapeError

#: largest cloud size for the exact d>1 assignment (cubic-time Hungarian)
ASSIGNMENT_CAP = 256


@dataclass(frozen=True)
class ParticleCloud:
    """M particle states in d dimensions with implied uniform weights 1/M."""

    positions: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.positions, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ShapeError(f"positions must be an (M, d) array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"positions must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("particle positions must all be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "positions", arr)

    @property
    def m(self) -> int:
        return self.positions.shape[-2]

    @property
    def d(self) -> int:
        return self.positions.shape[-1]

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "ParticleCloud":
        """Cloud over a fresh (M, d) float array, or a (..., M, d) stack of
        independent systems, that its caller has already checked and no one
        else references: frozen in place, not copied."""
        arr.setflags(write=False)
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "positions", arr)
        return cloud

    @classmethod
    def at(cls, point: np.ndarray, m: int) -> "ParticleCloud":
        """Cloud with all m particles at one point (empirical Dirac mass)."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(np.tile(p, (m, 1)))


def sorted_mean(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Mean with summands in canonical (sorted, contiguous) order.

    Sorting fixes the summation order so reductions over the particle axis
    are bit-for-bit invariant under particle permutations; reducing over the
    last axis of a contiguous copy keeps the summation blocking identical
    whether states are evaluated one at a time or as a stacked batch.
    """
    arr = np.asarray(values, dtype=float)
    order = list(range(arr.ndim))
    order.append(order.pop(axis))
    arr = arr.transpose(order).copy()
    arr.sort(axis=-1)
    return np.add.reduce(arr, axis=-1) / arr.shape[-1]


def empirical_mean(mu: ParticleCloud) -> np.ndarray:
    """Componentwise mean of the cloud, permutation invariant.

    Shape (d,) for one cloud. A (..., M, d) stack of systems keeps its
    particle axis with length 1, (..., 1, d), so that ``empirical_mean(mu) - x``
    broadcasts per system.
    """
    return particle_mean(mu.positions)


def particle_mean(values: np.ndarray) -> np.ndarray:
    """``sorted_mean`` over the particle axis -2 of (M, d) or (..., M, d) values,
    keeping that axis for stacks as ``empirical_mean`` does."""
    mean = sorted_mean(values, axis=-2)
    return mean if mean.ndim == 1 else mean[..., None, :]


def moment_w2(mu: ParticleCloud) -> float:
    """Root second moment ((1/M) sum_j |x_j|^2)^(1/2) of the cloud."""
    return float(np.sqrt(np.mean(np.sum(mu.positions**2, axis=1))))


def w2_to_dirac(mu: ParticleCloud, point: np.ndarray) -> float:
    """Quadratic transport distance from the cloud to a point mass.

    With ``point = 0`` this equals ``moment_w2(mu)`` exactly.
    """
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != (mu.d,):
        raise ShapeError(f"point has dimension {p.shape}, cloud has d={mu.d}")
    return float(np.sqrt(np.mean(np.sum((mu.positions - p) ** 2, axis=1))))


def wasserstein2(mu: ParticleCloud, nu: ParticleCloud) -> float:
    """Quadratic Wasserstein distance between two equal-size uniform clouds.

    In one dimension the optimal coupling matches sorted samples. In higher
    dimension the exact optimal assignment is solved, capped at
    ``ASSIGNMENT_CAP`` particles.
    """
    if mu.d != nu.d:
        raise ShapeError(f"dimension mismatch: {mu.d} vs {nu.d}")
    if mu.m != nu.m:
        raise ShapeError(f"cloud sizes differ: {mu.m} vs {nu.m} (equal-size clouds only)")
    if mu.d == 1:
        xs = np.sort(mu.positions[:, 0])
        ys = np.sort(nu.positions[:, 0])
        return float(np.sqrt(np.mean((xs - ys) ** 2)))
    if mu.m > ASSIGNMENT_CAP:
        raise CapabilityError(
            f"exact assignment limited to {ASSIGNMENT_CAP} particles in d>1, got M={mu.m}"
        )
    from scipy.optimize import linear_sum_assignment

    diff = mu.positions[:, None, :] - nu.positions[None, :, :]
    cost = np.sum(diff**2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))
