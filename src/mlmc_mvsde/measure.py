"""Empirical measures and the metric layer on top of them.

An (M, d) state array doubles as the uniform empirical measure over its
rows. Only equal-size, equal-weight measures are compared, which keeps the
optimal coupling a square assignment problem: sorted matching on the line,
exact linear assignment in higher dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, NumericError, ShapeError

#: largest cloud size for the exact d>1 assignment (cubic-time Hungarian)
ASSIGNMENT_CAP = 256


def checked_states(positions) -> np.ndarray:
    """``positions`` as a float (M, d) array, a 1-D one read as M particles
    in one dimension; a ``ShapeError`` unless it is 2-D and non-empty, a
    ``NumericError`` unless every entry is finite."""
    arr = np.asarray(positions, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ShapeError(f"positions must be an (M, d) array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"positions must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError("particle positions must all be finite")
    return arr


@dataclass(frozen=True)
class ParticleCloud:
    """M particle states in d dimensions: the argument and result of ``em_step``."""

    positions: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = checked_states(self.positions).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "positions", arr)

    @property
    def m(self) -> int:
        return self.positions.shape[-2]

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "ParticleCloud":
        """Cloud over a float (M, d) array that its caller has already checked
        and that no one writes to while the cloud lives: not copied."""
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "positions", arr)
        return cloud


def sorted_mean(values: np.ndarray) -> np.ndarray:
    """Mean over the last axis with summands in canonical (sorted, contiguous) order.

    Sorting fixes the summation order so reductions over the particle axis
    are bit-for-bit invariant under particle permutations; reducing a C-order
    copy keeps the summation blocking identical whether states are evaluated
    one at a time or as a stacked batch.
    """
    arr = np.array(values, dtype=float, order="C")
    arr.sort(axis=-1)
    return np.add.reduce(arr, axis=-1) / arr.shape[-1]


def particle_mean(values: np.ndarray) -> np.ndarray:
    """Componentwise mean over the particle axis -2, permutation invariant.

    Shape (..., 1, d) for (..., M, d) values: (1, d) for one system and
    (K, 1, d) for a stack of K, so that ``particle_mean(mu) - x`` broadcasts
    per system.
    """
    return sorted_mean(values.swapaxes(-1, -2))[..., None, :]


def moment_w2(mu: np.ndarray) -> float:
    """Root second moment ((1/M) sum_j |x_j|^2)^(1/2) of the (M, d) states ``mu``."""
    mu = checked_states(mu)
    return float(np.sqrt(np.mean(np.sum(mu**2, axis=1))))


def w2_to_dirac(mu: np.ndarray, point: np.ndarray) -> float:
    """Quadratic transport distance from the (M, d) states ``mu`` to a point mass.

    With ``point = 0`` this equals ``moment_w2(mu)`` exactly.
    """
    mu = checked_states(mu)
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != mu.shape[1:]:
        raise ShapeError(f"point has dimension {p.shape}, cloud has d={mu.shape[1]}")
    return float(np.sqrt(np.mean(np.sum((mu - p) ** 2, axis=1))))


def wasserstein2(mu: np.ndarray, nu: np.ndarray) -> float:
    """Quadratic Wasserstein distance between the uniform measures of two
    equal-size (M, d) state arrays.

    In one dimension the optimal coupling matches sorted samples. In higher
    dimension the exact optimal assignment is solved, capped at
    ``ASSIGNMENT_CAP`` particles.
    """
    mu, nu = checked_states(mu), checked_states(nu)
    (m, d), (m_nu, d_nu) = mu.shape, nu.shape
    if d != d_nu:
        raise ShapeError(f"dimension mismatch: {d} vs {d_nu}")
    if m != m_nu:
        raise ShapeError(f"cloud sizes differ: {m} vs {m_nu} (equal-size clouds only)")
    if d == 1:
        xs = np.sort(mu[:, 0])
        ys = np.sort(nu[:, 0])
        return float(np.sqrt(np.mean((xs - ys) ** 2)))
    if m > ASSIGNMENT_CAP:
        raise CapabilityError(
            f"exact assignment limited to {ASSIGNMENT_CAP} particles in d>1, got M={m}"
        )
    from scipy.optimize import linear_sum_assignment

    diff = mu[:, None, :] - nu[None, :, :]
    cost = np.sum(diff**2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))
