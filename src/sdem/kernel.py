"""Transition-density estimation and the Gaussian upper-bound check.

The comparison kernel is the unnormalized heat kernel
K_s(x, y) = s^{-n/2} exp(-|x-y|^2 / (2 s)); probability densities carry an
extra (2 pi)^{-n/2} relative to it, which is why the fitted bound constant
for Brownian motion sits at the bottom of the search grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import FieldError

__all__ = [
    "DensityQuery",
    "gaussian_kernel",
    "silverman_bandwidth",
    "density_estimate",
    "kernel_bound_fit",
    "KernelBoundFit",
    "gaussian_bound",
    "density_floor",
    "MIN_SAMPLES",
]

MIN_SAMPLES = 10_000
# sample rows per partial sum of the KDE: each column is summed row after row
# over a chunk and the chunk's partial is then added to the total, so this
# sets how the sums associate, and with it every bit of the estimate
_CHUNK = 262144
# elements of one tile of the KDE workspace, which holds _TILE // Q sample rows
_TILE = 1 << 15
# exp(x) is exactly +0 at and below this; it underflows below -745.14
_EXP_FLOOR = -746.0
# C1 values the bound fit scans, smallest first
_C1_GRID = np.geomspace(1.0, 20.0, 200)
# standard errors taken off each density before a bound is checked against it
_SE_MARGIN = 3.0


@dataclass(frozen=True)
class DensityQuery:
    """Where and at which scale to interrogate a transition density."""

    t: float
    x: np.ndarray
    query_points: np.ndarray       # (Q, n)
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        q = np.asarray(self.query_points, dtype=float)
        if q.ndim == 1:
            q = q[:, None]
        object.__setattr__(self, "query_points", q)
        if not (math.isfinite(self.t) and self.t > 0):
            raise FieldError(f"DensityQuery: time must be finite and positive, got {self.t}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise FieldError("DensityQuery: bandwidth must be finite and positive, "
                             f"got {self.bandwidth}")
        if not np.all(np.isfinite(q)):
            raise FieldError("DensityQuery: query points must be finite")

    @property
    def n(self) -> int:
        return self.query_points.shape[1]


def gaussian_kernel(s: float, x, y: np.ndarray) -> np.ndarray:
    """The unnormalized heat kernel s^{-n/2} exp(-|x-y|^2 / (2s)) from the
    point x, n numbers, to each point of the (N, n) batch y: shape (N,)."""
    if s <= 0:
        raise FieldError("gaussian_kernel: s must be positive")
    r2 = np.sum((y - np.asarray(x, dtype=float)) ** 2, axis=-1)
    return s ** (-y.shape[1] / 2.0) * np.exp(-r2 / (2.0 * s))


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Per-axis rule h = 1.06 sigma_hat N^{-1/5}, averaged over axes."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] < 2:
        raise FieldError("bandwidth rule needs at least two samples")
    sig = samples.std(axis=0, ddof=1).mean()
    if sig == 0.0:
        raise FieldError("degenerate sample: zero spread")
    return float(1.06 * sig * samples.shape[0] ** (-0.2))


def density_estimate(samples, query: DensityQuery) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel KDE at the query points with jackknife standard errors.

    The KDE is a sample mean of kernel evaluations, for which the delete-one
    jackknife variance coincides with the usual variance of the mean; it is
    computed that way.  Returns (densities, se), each of shape (Q,).

    The kernels are computed in place, a tile of _TILE // Q sample rows at a
    time, in one workspace that every tile reuses.  Row 0 of a tile carries
    the running column sums of its chunk, so each column is still summed row
    after row over the _CHUNK rows.  `exp` runs only where its argument lies
    above _EXP_FLOOR; below it the kernel is exactly +0, which leaves the
    non-negative sums unchanged.  Samples must be finite.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    N, n = pts.shape
    if N < MIN_SAMPLES:
        raise FieldError("density_estimate: need at least 1e4 samples")
    if n != query.n:
        raise FieldError("sample dimension does not match query points")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FieldError(f"density_estimate: sample {i} is not finite: {pts[i].tolist()}")
    h = query.bandwidth
    norm = 1.0 / ((2.0 * math.pi) ** (n / 2.0) * h ** n)
    q = query.query_points
    Q = len(q)
    rows = max(1, _TILE // max(1, Q))
    diff = np.empty((rows, Q, n))
    live = np.empty((rows, Q), dtype=bool)
    k = np.empty((rows + 1, Q))
    k_sq = np.empty((rows + 1, Q))
    part = np.empty(Q)
    part_sq = np.empty(Q)
    total = np.zeros(Q)
    total_sq = np.zeros(Q)
    for lo in range(0, N, _CHUNK):
        hi = min(lo + _CHUNK, N)
        part.fill(0.0)
        part_sq.fill(0.0)
        for a in range(lo, hi, rows):
            r = min(rows, hi - a)
            # exp's argument sits in k_sq's rows until k * k overwrites it
            d, kt, arg = diff[:r], k[1:r + 1], k_sq[1:r + 1]
            np.subtract(pts[a:a + r, None, :], q[None, :, :], out=d)
            np.square(d, out=d)
            np.sum(d, axis=-1, out=arg)
            np.negative(arg, out=arg)
            np.divide(arg, 2.0 * h * h, out=arg)
            np.greater(arg, _EXP_FLOOR, out=live[:r])
            kt.fill(0.0)
            np.exp(arg, out=kt, where=live[:r])
            np.multiply(kt, norm, out=kt)
            np.multiply(kt, kt, out=arg)
            k[0] = part
            k_sq[0] = part_sq
            np.sum(k[:r + 1], axis=0, out=part)
            np.sum(k_sq[:r + 1], axis=0, out=part_sq)
        total += part
        total_sq += part_sq
    mean = total / N
    var = np.maximum(total_sq / N - mean ** 2, 0.0)
    se = np.sqrt(var / (N - 1))
    return mean, se


@dataclass(frozen=True)
class KernelBoundFit:
    c1_min: float
    satisfied: bool
    max_violation: float


def gaussian_bound(c1: float, query: DensityQuery) -> np.ndarray:
    """The bound C1 t^{-n/2} exp(-|x-y|^2/(2 C1 t)) at each query point y."""
    t, n = query.t, query.n
    r2 = np.sum((query.query_points - query.x) ** 2, axis=-1)
    return c1 * t ** (-n / 2.0) * np.exp(-r2 / (2.0 * c1 * t))


def density_floor(densities, se: Optional[Sequence[float]] = None) -> np.ndarray:
    """Each density less _SE_MARGIN standard errors when ``se`` is given,
    floored at 0: what a bound must dominate at every query point."""
    p = np.asarray(densities, dtype=float)
    if se is not None:
        p = p - _SE_MARGIN * np.asarray(se, dtype=float)
    return np.maximum(p, 0.0)


def kernel_bound_fit(densities, query: DensityQuery, *,
                     se: Optional[Sequence[float]] = None) -> KernelBoundFit:
    """Fit the smallest C1 with p(y) <= C1 t^{-n/2} exp(-|x-y|^2/(2 C1 t)).

    The densities are first lowered by ``density_floor``, so noise above the
    true density does not inflate the constant.  The scan runs over a
    logarithmic grid (1 to 20, 200 points); if no grid value satisfies the
    bound at every query point the flag is false and the worst log-violation
    at the top of the grid is reported.
    """
    p = density_floor(densities, se)
    for c1 in _C1_GRID:
        if np.all(p <= gaussian_bound(c1, query)):
            return KernelBoundFit(float(c1), True, 0.0)
    c1 = _C1_GRID[-1]
    with np.errstate(divide="ignore"):
        violation = float(np.max(np.log(np.where(p > 0, p, 1e-300))
                                 - np.log(gaussian_bound(c1, query))))
    return KernelBoundFit(float(c1), False, violation)
