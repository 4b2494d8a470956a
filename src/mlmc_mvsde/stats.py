"""Log-log rate fits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, DomainError


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def loglog_fit(points: Sequence[tuple[float, float]]) -> RateFit:
    """Ordinary least squares on (log x, log y) of points with positive finite
    coordinates."""
    pts = [(float(x), float(y)) for x, y in points]
    for x, y in pts:
        if not (0 < x < np.inf and 0 < y < np.inf):
            raise DomainError(f"loglog_fit requires positive finite coordinates, got ({x}, {y})")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if len(set(xs.tolist())) < 2:
        raise DegeneracyError("loglog_fit needs at least two distinct x values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(float(slope), float(intercept), r2)
