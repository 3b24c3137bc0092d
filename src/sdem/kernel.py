"""Transition-density estimation and the Gaussian upper-bound check.

The comparison kernel is the unnormalized heat kernel
K_s(x, y) = s^{-n/2} exp(-|x-y|^2 / (2 s)); probability densities carry an
extra (2 pi)^{-n/2} relative to it, which is why the fitted bound constant
for Brownian motion sits at the bottom of the search grid.

The density estimate sums its samples in chunks of _CHUNK rows.  The chunks
go over ``workers`` threads, a count that is 1 unless the caller gives
another, each reduced into its own partial sums, and the partials are added
in ascending chunk order, so the estimate and its standard errors are bit
for bit the same at every worker count.  Within a chunk each query point's
column of kernels, and of their squares, is summed row after row.  A chunk
is streamed one column at a time, over tiles of contiguous sample rows, and
only the kernels that can change the column's running sums are evaluated:
a kernel under half an ulp of both sums adds nothing to either, and the
sums only grow, so leaving it out keeps every bit.  Each worker's tiles
live in a workspace of its own.  The sample floor, MIN_SAMPLES, is the one
the input rule states for every estimate.
"""

from __future__ import annotations

import math
import sys
from concurrent import futures
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import Workspace
from .inputs import COUNT, POSITIVE, FieldError, enough, points, read, vector

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
# sample rows per tile of a column: the no-op floor is taken at each tile's start
_TILE = 1 << 15
# exp(x) is exactly +0 at and below this; it underflows below -745.14
_EXP_FLOOR = -746.0
# exp(x) is a normal number above this
_EXP_NORMAL = -708.0
# a kernel k with k < p * _NOOP and k < sqrt(s) * _NOOP_ROOT is under half an
# ulp of the running sum p of kernels and of the sum s of their squares
_NOOP = 2.0 ** -54
_NOOP_ROOT = 2.0 ** -27
# the least no-op bound that raises the floor: above it no subnormal rounding
# can carry a kernel that the floor leaves out over the bound
_NOOP_MIN = 2.0 ** -1000
# a squared distance at or above (1 + _MARGIN) times the one at the floor is
# left out: wider than any rounding of the distance or of the floor's product
_MARGIN = 1e-9
# C1 values the bound fit scans, smallest first
_C1_GRID = np.geomspace(1.0, 20.0, 200)
# standard errors taken off each density before a bound is checked against it
_SE_MARGIN = 3.0


def _normal(x: float) -> bool:
    """True when x is a finite normal float: not 0, subnormal, infinite or NaN."""
    return sys.float_info.min <= abs(x) <= sys.float_info.max


def _kernel_scales(h: float, n: int) -> tuple[float, float]:
    """The kernel's peak norm = (2 pi)^{-n/2} h^{-n} and -2h^2 as the sums
    use them.  A bandwidth for which norm, norm^2 or 1/(2h^2) is not a
    finite normal number is a FieldError naming it: the sums could not
    represent the kernels or their squares, nor the floor its bound/norm."""
    try:
        norm = 1.0 / ((2.0 * math.pi) ** (n / 2.0) * h ** n)
    except (OverflowError, ZeroDivisionError):
        norm = 0.0
    two_h2 = 2.0 * h * h
    if not (_normal(norm) and _normal(norm * norm)
            and _normal(two_h2) and _normal(1.0 / two_h2)):
        raise FieldError(f"DensityQuery: bandwidth {h!r} in n={n} puts the kernel's peak, "
                         f"its square or 1/(2h^2) outside the normal floats")
    # dividing by -2h^2 gives each value that negating and dividing by 2h^2 does
    return norm, -two_h2


def _exp_floor(p: float, s: float, norm: float) -> float:
    """The exp argument at and below which a kernel norm * exp(arg) changes
    neither the running sum p of kernels nor the sum s of their squares.

    Such a kernel is under e^-1 of min(p 2^-54, sqrt(s) 2^-27), so under half
    an ulp of p and its square under half an ulp of s.  Where that bound is
    tiny or exp at the floor would be subnormal, the floor is _EXP_FLOOR,
    below which every kernel is +0."""
    bound = min(p * _NOOP, math.sqrt(s) * _NOOP_ROOT)
    if bound >= _NOOP_MIN:
        # in logs: bound / norm may underflow where the floor is far below -708
        floor = math.log(bound) - math.log(norm) - 1.0
        if floor > _EXP_NORMAL:
            return floor
    return _EXP_FLOOR


@dataclass(frozen=True)
class DensityQuery:
    """Where and at which scale to interrogate a transition density.  Its
    fields are read on construction: finite (Q, n) query points, a point x
    of n entries, and a positive t and bandwidth (see `_kernel_scales`)."""

    t: float
    x: np.ndarray
    query_points: np.ndarray       # (Q, n)
    bandwidth: float

    def __post_init__(self):
        q = points(self.query_points, None, "DensityQuery: query points")
        object.__setattr__(self, "query_points", q)
        object.__setattr__(self, "x", vector(self.x, "DensityQuery: point x", q.shape[1]))
        object.__setattr__(self, "t", read("DensityQuery: time t", self.t, POSITIVE))
        object.__setattr__(self, "bandwidth",
                           read("DensityQuery: bandwidth", self.bandwidth, POSITIVE))
        _kernel_scales(self.bandwidth, q.shape[1])
        if not np.all(np.isfinite(q)):
            raise FieldError("DensityQuery: query points must be finite")

    @property
    def n(self) -> int:
        return self.query_points.shape[1]


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Per-axis rule h = 1.06 sigma_hat N^{-1/5}, averaged over axes, for
    a float (N, n) batch of samples."""
    samples = points(samples, None, "silverman_bandwidth")
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

    Each of a chunk's Q columns, the kernels norm * exp(-|x - y|^2 / (2h^2))
    of one query point y, is summed row after row into p, and their squares
    into s.  A chunk is streamed one column at a time, over tiles of _TILE
    contiguous sample rows, the last one shorter.  At a tile's start
    ``_exp_floor`` gives the argument at and below which a kernel is under
    half an ulp of both p and s; the sums only grow, so such a kernel
    changes neither anywhere in the tile, and nor does a +0 one.  Only the
    rows whose squared distance, folded axis after axis, lies under the
    floor's, widened by _MARGIN, are kept: a superset of the kernels that
    can move a sum.  A kept kernel gets the bits a full (rows, Q) kernel
    matrix gives it: its row's squared differences summed by `np.sum` over a
    contiguous last axis of n entries, as the matrix's are, divided by
    -2h^2, `exp`, times norm, and the square.  The kept kernels are then
    summed in row order by `np.add.accumulate`, a sequential sum, with the
    running sum as element 0, which gives p and s bit for bit.  Each worker
    keeps its tiles in a workspace of its own that every tile it reduces
    reuses, freed with the call.  The samples are a float (N, n) batch, n
    the query's, of at least MIN_SAMPLES rows, and must be finite.
    """
    pts = points(samples, query.n, "density_estimate")
    N, n = pts.shape
    enough("density_estimate: samples", N)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FieldError(f"density_estimate: sample {i} is not finite: {pts[i].tolist()}")
    w = read("workers", workers, COUNT)
    norm, neg_2h2 = _kernel_scales(query.bandwidth, n)
    q = query.query_points
    Q = len(q)
    ws = Workspace()

    def chunk(lo):
        d2 = ws.array("d2", (_TILE,))
        term = ws.array("term", (_TILE,))
        live = ws.array("live", (_TILE,), bool)
        rows = ws.array("rows", (_TILE, n))
        # element 0 of each carries the running sum into the tile
        k = ws.array("k", (_TILE + 1,))
        k_sq = ws.array("k_sq", (_TILE + 1,))
        part = np.empty(Q)
        part_sq = np.empty(Q)
        hi = min(lo + _CHUNK, N)
        for j, y in enumerate(q):
            p = s = 0.0
            a = lo
            while a < hi:
                b = min(a + _TILE, hi)
                r = b - a
                dd, keep = d2[:r], live[:r]
                for i in range(n):
                    t = dd if i == 0 else term[:r]
                    np.subtract(pts[a:b, i], y[i], out=t)
                    np.square(t, out=t)
                    if i:
                        np.add(dd, t, out=dd)
                np.less(dd, _exp_floor(p, s, norm) * neg_2h2 * (1.0 + _MARGIN), out=keep)
                K = int(np.count_nonzero(keep))
                if K:
                    diff = rows[:K]
                    np.compress(keep, pts[a:b], axis=0, out=diff)
                    np.subtract(diff, y, out=diff)
                    np.square(diff, out=diff)
                    arg = k[1:K + 1]
                    np.sum(diff, axis=-1, out=arg)
                    np.divide(arg, neg_2h2, out=arg)
                    np.exp(arg, out=arg)
                    np.multiply(arg, norm, out=arg)
                    np.multiply(arg, arg, out=k_sq[1:K + 1])
                    k[0] = p
                    k_sq[0] = s
                    p = float(np.add.accumulate(k[:K + 1], out=k[:K + 1])[K])
                    s = float(np.add.accumulate(k_sq[:K + 1], out=k_sq[:K + 1])[K])
                a = b
            part[j] = p
            part_sq[j] = s
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
