"""Transition-density estimation and the Gaussian upper-bound check.

The comparison kernel is the unnormalized heat kernel
K_s(x, y) = s^{-n/2} exp(-|x-y|^2 / (2 s)); probability densities carry an
extra (2 pi)^{-n/2} relative to it, which is why the fitted bound constant
for Brownian motion sits at the bottom of the search grid.

The density estimate sums its samples in chunks of _CHUNK rows.  The chunks
go over ``workers`` threads, a count that is 1 unless the caller gives
another, each reduced by one tile loop into its own partial sums, and the
partials are added in ascending chunk order, so the estimate and its
standard errors are bit for bit the same at every worker count.  Each
worker's tiles live in a workspace of its own.  The sample floor,
MIN_SAMPLES, is the one the fields module states for every estimate.
"""

from __future__ import annotations

import math
from concurrent import futures
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import (_COUNT, _POSITIVE, FieldError, _enough, _points, _read, _vector,
                     _Workspace)

__all__ = [
    "DensityQuery",
    "silverman_bandwidth",
    "density_estimate",
    "kernel_bound_fit",
    "KernelBoundFit",
    "gaussian_bound",
    "density_floor",
]

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
        q = _points(self.query_points, None, "DensityQuery: query points")
        object.__setattr__(self, "query_points", q)
        object.__setattr__(self, "x", _vector(self.x, "DensityQuery: point x", q.shape[1]))
        object.__setattr__(self, "t", _read("DensityQuery: time t", self.t, _POSITIVE))
        object.__setattr__(self, "bandwidth",
                           _read("DensityQuery: bandwidth", self.bandwidth, _POSITIVE))
        if not np.all(np.isfinite(q)):
            raise FieldError("DensityQuery: query points must be finite")

    @property
    def n(self) -> int:
        return self.query_points.shape[1]


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Per-axis rule h = 1.06 sigma_hat N^{-1/5}, averaged over axes, for
    a float (N, n) batch of samples."""
    samples = _points(samples, None, "silverman_bandwidth")
    if samples.shape[0] < 2:
        raise FieldError("bandwidth rule needs at least two samples")
    sig = samples.std(axis=0, ddof=1).mean()
    if sig == 0.0:
        raise FieldError("degenerate sample: zero spread")
    return float(1.06 * sig * samples.shape[0] ** (-0.2))


def density_estimate(samples, query: DensityQuery, *,
                     workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel KDE at the query points with jackknife standard errors.

    The KDE is a sample mean of kernel evaluations, for which the delete-one
    jackknife variance coincides with the usual variance of the mean; it is
    computed that way.  Returns (densities, se), each of shape (Q,).

    The samples are summed in chunks of _CHUNK rows.  With w = ``workers``
    >= 2 and two or more chunks, the chunks go over a pool of min(w, chunks)
    threads; otherwise they run in turn on the calling thread.  Each chunk
    is reduced into its own partial sums, and the partials are added in
    ascending chunk order, so no bit of the result depends on w.

    A chunk's kernels are computed in place, a tile of _TILE // Q sample rows
    at a time.  Each worker keeps its tiles (the differences, the kernels and
    their squares, and the mask of live exponents) in a workspace of its own
    that every tile it reduces reuses, freed with the call.  Row 0 of a tile
    carries the running column sums of its chunk, so each column is still
    summed row after row over the _CHUNK rows.  `exp` runs only where its
    argument lies above _EXP_FLOOR; below it the kernel is exactly +0, which
    leaves the non-negative sums unchanged.  The samples are a float
    (N, n) batch, n the query's, of at least MIN_SAMPLES rows, and must be
    finite.
    """
    pts = _points(samples, query.n, "density_estimate")
    N, n = pts.shape
    _enough("density_estimate: samples", N)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FieldError(f"density_estimate: sample {i} is not finite: {pts[i].tolist()}")
    w = _read("workers", workers, _COUNT)
    h = query.bandwidth
    norm = 1.0 / ((2.0 * math.pi) ** (n / 2.0) * h ** n)
    # dividing by -2h^2 gives each value that negating and dividing by 2h^2 does
    neg_2h2 = -(2.0 * h * h)
    q = query.query_points
    Q = len(q)
    rows = max(1, _TILE // max(1, Q))
    ws = _Workspace()

    def chunk(lo):
        diff = ws.array("diff", (rows, Q, n))
        live = ws.array("live", (rows, Q), bool)
        k = ws.array("k", (rows + 1, Q))
        k_sq = ws.array("k_sq", (rows + 1, Q))
        part = np.zeros(Q)
        part_sq = np.zeros(Q)
        hi = min(lo + _CHUNK, N)
        for a in range(lo, hi, rows):
            r = min(rows, hi - a)
            # exp's argument sits in k_sq's rows until k * k overwrites it
            d, kt, arg = diff[:r], k[1:r + 1], k_sq[1:r + 1]
            np.subtract(pts[a:a + r, None, :], q[None, :, :], out=d)
            np.square(d, out=d)
            np.sum(d, axis=-1, out=arg)
            np.divide(arg, neg_2h2, out=arg)
            np.greater(arg, _EXP_FLOOR, out=live[:r])
            kt.fill(0.0)
            np.exp(arg, out=kt, where=live[:r])
            np.multiply(kt, norm, out=kt)
            np.multiply(kt, kt, out=arg)
            k[0] = part
            k_sq[0] = part_sq
            np.sum(k[:r + 1], axis=0, out=part)
            np.sum(k_sq[:r + 1], axis=0, out=part_sq)
        return part, part_sq

    starts = range(0, N, _CHUNK)
    if w > 1 and len(starts) > 1:
        # taken through its module: bench/tracer.py swaps the engine's
        # executor wherever an sdem module holds it by name, and books each
        # task of it as an engine block, which a chunk is not
        with futures.ThreadPoolExecutor(max_workers=min(w, len(starts))) as ex:
            parts = list(ex.map(chunk, starts))
    else:
        parts = list(map(chunk, starts))
    total = np.zeros(Q)
    total_sq = np.zeros(Q)
    for part, part_sq in parts:
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
