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
    "MIN_SAMPLES",
]

MIN_SAMPLES = 10_000
# sample rows per KDE pass; bounds the (rows, Q) kernel matrix in memory
_CHUNK = 262144
# C1 values the bound fit scans, smallest first
_C1_GRID = np.geomspace(1.0, 20.0, 200)


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
        if self.t <= 0:
            raise FieldError("DensityQuery: time must be positive")
        if self.bandwidth <= 0:
            raise FieldError("DensityQuery: bandwidth must be positive")
        if not np.all(np.isfinite(q)):
            raise FieldError("DensityQuery: query points must be finite")

    @property
    def n(self) -> int:
        return self.query_points.shape[1]


def gaussian_kernel(s: float, x, y) -> np.ndarray | float:
    """The unnormalized heat kernel s^{-n/2} exp(-|x-y|^2 / (2s))."""
    if s <= 0:
        raise FieldError("gaussian_kernel: s must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    single = y.ndim <= 1
    ypts = np.atleast_2d(y)
    n = ypts.shape[-1]
    r2 = np.sum((ypts - x) ** 2, axis=-1)
    vals = s ** (-n / 2.0) * np.exp(-r2 / (2.0 * s))
    return float(vals[0]) if single else vals.reshape(y.shape[:-1])


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
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    N, n = pts.shape
    if N < MIN_SAMPLES:
        raise FieldError("density_estimate: need at least 1e4 samples")
    if n != query.n:
        raise FieldError("sample dimension does not match query points")
    h = query.bandwidth
    norm = 1.0 / ((2.0 * math.pi) ** (n / 2.0) * h ** n)
    q = query.query_points
    total = np.zeros(len(q))
    total_sq = np.zeros(len(q))
    for lo in range(0, N, _CHUNK):
        block = pts[lo:lo + _CHUNK]
        d2 = np.sum((block[:, None, :] - q[None, :, :]) ** 2, axis=-1)
        k = norm * np.exp(-d2 / (2.0 * h * h))
        total += k.sum(axis=0)
        total_sq += (k * k).sum(axis=0)
    mean = total / N
    var = np.maximum(total_sq / N - mean ** 2, 0.0)
    se = np.sqrt(var / (N - 1))
    return mean, se


@dataclass(frozen=True)
class KernelBoundFit:
    c1_min: float
    satisfied: bool
    max_violation: float


def kernel_bound_fit(densities, query: DensityQuery, *,
                     se: Optional[Sequence[float]] = None,
                     se_margin: float = 3.0) -> KernelBoundFit:
    """Fit the smallest C1 with p(y) <= C1 t^{-n/2} exp(-|x-y|^2/(2 C1 t)).

    Each density is first reduced by ``se_margin`` standard errors when
    ``se`` is given, so noise above the true density does not inflate the
    constant.  The scan runs over a logarithmic grid (1 to 20, 200
    points); if no grid value satisfies the bound at every query point the
    flag is false and the worst log-violation at the top of the grid is
    reported.
    """
    p = np.asarray(densities, dtype=float).copy()
    if se is not None:
        p = p - se_margin * np.asarray(se, dtype=float)
    p = np.maximum(p, 0.0)
    t, n = query.t, query.n
    r2 = np.sum((query.query_points - query.x) ** 2, axis=-1)
    for c1 in _C1_GRID:
        bound = c1 * t ** (-n / 2.0) * np.exp(-r2 / (2.0 * c1 * t))
        if np.all(p <= bound):
            return KernelBoundFit(float(c1), True, 0.0)
    c1 = _C1_GRID[-1]
    bound = c1 * t ** (-n / 2.0) * np.exp(-r2 / (2.0 * c1 * t))
    with np.errstate(divide="ignore"):
        violation = float(np.max(np.log(np.where(p > 0, p, 1e-300)) - np.log(bound)))
    return KernelBoundFit(float(c1), False, violation)
