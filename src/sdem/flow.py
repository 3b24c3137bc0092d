"""Coupled Euler-Maruyama integration of a state SDE and its derivative flow.

The state and the n-by-n derivative matrix advance together on a fixed time
grid with left-point (Ito) coefficient evaluation.  Brownian increments are
generated in fixed-size path blocks from counter-style keyed streams, so the
increment of path i at step k is a pure function of (seed, i, k) regardless
of how many paths are requested, how the work is scheduled, or how many
worker threads run.  Ensemble reductions always combine per-block results in
ascending block order, which makes every aggregate bit-reproducible.

Runs at several mollification levels can share one increment stream (common
random numbers), turning pathwise differences into direct measurements of
the smoothing error rather than of the noise.

Workers follow one rule: the unit of work is a contiguous range of a
block's rows.  With at least as many blocks as workers, each block is a
unit.  With fewer, each block is cut into min(ceil(workers / blocks), rows)
slices.  The units go over a pool of `workers` threads and their results
are joined in row order.  Every evaluation and reduction the engine makes
is row by row, the quadrature sum of a mollified field included, so
outputs are byte-identical across worker counts.

A block's increments are stored step-major: the (paths, steps, m) array the
engine indexes is a transposed view of a (steps, paths, m) array, so the
step-k slice dW[:, k, :] that every Euler step and tracker reads is one
contiguous run of memory rather than a column with a stride of a whole path.
The block is drawn a tile of about TILE values at a time into one small
path-major buffer, and each tile is scaled straight into its step-major
place, so a block never exists twice.  When blocks are the units, each
worker draws every block it simulates into one step-major buffer of its
own.  When blocks are cut, the calling thread draws each block once, and
its slices share it.
"""

from __future__ import annotations

import copy
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .fields import FieldError, VectorFieldSet, _g_sum, _start_vector, _Workspace
from .mollify import mollify_field
from .report import EstimatorReport, from_samples

__all__ = [
    "BLOCK",
    "TimeGrid",
    "BrownianBatch",
    "EnsembleResult",
    "CoupledFamilyResult",
    "run_ensemble",
    "coupled_family",
    "moment_sup",
    "exp_g_functional",
    "spatial_derivative_check",
    "SpatialDerivativeCheck",
    "JacSupNorm",
    "IntegratedG",
    "PathRecorder",
    "Tracker",
]

# Fixed path-block size; a constant of the noise layout, not a tuning knob.
# Changing it would change which increments belong to which path stream.
BLOCK = 16384
# Values per tile of a block's draw: a block is drawn TILE // (steps * m)
# paths at a time (at least one), so a tile is about 1 MB unless one path is
# longer, and a short grid takes few tiles per block.  The generator fills
# values in order, so consecutive tiles continue one stream and no increment
# depends on TILE.
TILE = 1 << 17


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with `steps` Euler steps."""

    T: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise FieldError(f"TimeGrid: horizon T must be finite and positive, got {self.T}")
        if self.steps <= 0:
            raise FieldError(f"TimeGrid: step count must be positive, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)


@dataclass(frozen=True)
class BrownianBatch:
    """Seeded, reproducible m-dimensional Brownian increments.

    Paths are grouped into blocks of BLOCK; block b draws from a stream
    keyed by (seed, b), and rows are consumed in path order.  Because a
    partial block is a prefix of the full block's draw, the increments of
    path i never depend on the total number of paths requested.

    The draw is path-major, in tiles of about TILE values, but a block's
    increments are stored step-major (see `block_increments`), since the engine reads
    them one step at a time.  A block must fit in an array that numpy can
    index; a grid too long for that is rejected here, before any draw.
    """

    seed: int
    paths: int
    grid: TimeGrid
    m: int

    def __post_init__(self):
        if self.paths <= 0 or self.m <= 0:
            raise FieldError("BrownianBatch: paths and noise dimension must be positive")
        if self.seed < 0:
            raise FieldError(f"BrownianBatch: seed must be a nonnegative integer, got {self.seed}")
        rows = min(BLOCK, self.paths)
        if rows * self.grid.steps * self.m * 8 > np.iinfo(np.intp).max:
            raise FieldError(f"BrownianBatch: a block of {rows} paths over {self.grid.steps} "
                             f"steps (horizon t = {self.grid.T}) has more values than numpy "
                             "can index")

    @property
    def n_blocks(self) -> int:
        return (self.paths + BLOCK - 1) // BLOCK

    def block_slice(self, b: int) -> slice:
        lo = b * BLOCK
        return slice(lo, min(lo + BLOCK, self.paths))

    def block_increments(self, b: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Increments dW for block b, shape (block_paths, steps, m).

        The result is a transposed view of a C-ordered (steps, block_paths, m)
        array, so dW[:, k, :] is contiguous.  That array is fresh, or, given
        ``out``, a float64 (steps, R, m) array with R >= block_paths, the
        leading block_paths columns of ``out``; the view is then valid until
        ``out`` is written again.  Each tile of TILE // (steps * m) paths
        (at least one) is drawn into one reused path-major buffer and scaled
        by sqrt(dt) straight into the step-major layout; each value is the
        same product as in a whole-block draw, so the increments are bit for
        bit the same.
        """
        sl = self.block_slice(b)
        rows, steps, m = sl.stop - sl.start, self.grid.steps, self.m
        if out is None:
            out = np.empty((steps, rows, m))
        elif (out.dtype != np.float64 or out.ndim != 3
              or out.shape[0] != steps or out.shape[1] < rows or out.shape[2] != m):
            raise FieldError(f"block_increments: out must be a float64 ({steps}, >= {rows}, {m}) "
                             f"array, got {out.dtype} {out.shape}")
        dW = out[:, :rows]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(b,)))
        per = max(1, TILE // (steps * m))
        tile = np.empty((min(per, rows), steps, m))
        scale = math.sqrt(self.grid.dt)
        for lo in range(0, rows, per):
            z = tile[:min(per, rows - lo)]
            rng.standard_normal(out=z)
            np.multiply(z.transpose(1, 0, 2), scale, out=dW[:, lo:lo + len(z)])
        return dW.transpose(1, 0, 2)


def _coefficients(fields, xi, with_jac):
    """A(0..m) at xi as (B, n) arrays, and DA(0..m) as (B, n, n) or None.

    A declared zero drift is not evaluated: its A(0) and DA(0) are None.
    A declared constant diffusion is evaluated at the origin alone: each
    A(l >= 1) is one (1, n) row that broadcasts over the block, and each
    DA(l >= 1) is None.  A one-path block also has (1, n) rows, so a None
    DA(l), never a row count, is what marks a constant diffusion."""
    B, n = xi.shape
    pts = np.zeros((1, n)) if fields.constant_diffusion else xi
    A = [None if fields.zero_drift else np.asarray(fields.A(0, xi)).reshape(B, n)]
    A += [np.asarray(fields.A(l, pts)).reshape(len(pts), n) for l in range(1, fields.m + 1)]
    if not with_jac:
        return A, None
    DA = [None if fields.zero_drift else np.asarray(fields.DA(0, xi)).reshape(B, n, n)]
    DA += [None if fields.constant_diffusion else np.asarray(fields.DA(l, xi)).reshape(B, n, n)
           for l in range(1, fields.m + 1)]
    return A, DA


def _mm(a, b):
    """Stacked a @ b.  With inner dimension 1 the matmul sums one product
    onto +0; `a * b + 0.0` is that bit for bit, -0 included, at ~1/8 the cost."""
    if a.shape[-1] != 1:
        return a @ b
    out = a * b
    out += 0.0
    return out


def _euler_step(xi, V, coef, dWk, dt):
    """One left-point Euler step for a block: xi (B, n), V (B, n, n) or None.

    A skipped zero drift (A[0] is None) has no dt terms, and a skipped
    constant diffusion (DA[l] is None) no DA(l) V dW terms.  Adding their
    zeros could only turn a -0 entry into +0, or an infinite V entry into
    NaN, so no value a study reads and no flag depends on the skip.  A (1, n)
    row A[l] broadcasts over the block: each entry is the same product."""
    A, DA = coef
    xi_new = xi if A[0] is None else xi + A[0] * dt
    V_new = None
    if V is not None:
        V_new = V if DA[0] is None else V + _mm(DA[0], V) * dt
    for l in range(1, len(A)):
        xi_new = xi_new + A[l] * dWk[:, l - 1: l]
        if V is not None and DA[l] is not None:
            V_new = V_new + _mm(DA[l], V) * dWk[:, l - 1, None, None]
    return xi_new, V_new


# ---------------------------------------------------------------------------
# per-block trackers
#
# The protocol: `make(B)` returns a shallow copy whose `start(B)` has set the
# accumulators of one block of B paths, so blocks can run concurrently.
# `step(k, xis, Vs, dWk, dt, coefs)` sees every step before the state update,
# so Ito sums are left-point by construction; coefs[r] is run r's (A, DA) at
# xis[r] from _coefficients, which the Euler update then uses too, so no
# tracker evaluates a field.  A declared constant diffusion arrives as (1, n)
# rows A(l >= 1) with None DA(l >= 1); a declared zero drift as None A(0) and
# DA(0).  After the final step comes one more call,
# `step(steps, xis, Vs, None, dt, None)`; Ito sums return at once when dWk is
# None.  `finish()` returns the block's extras: arrays with one row per path,
# under the keys that `keys()` names up front.  A tracker that reads V or DA
# sets `reads_jac`.  Before any noise is drawn, a state-only run rejects such
# a tracker, and every run rejects two trackers that name the same key.


class Tracker:
    """Base of the per-block trackers; see the protocol above."""

    reads_jac = False

    def make(self, B):
        acc = copy.copy(self)
        acc.start(B)
        return acc


class JacSupNorm(Tracker):
    """Running sup over time of the Frobenius norm of the derivative matrix."""

    reads_jac = True

    def __init__(self, run: int = 0, name: str = "sup_jac"):
        self.run, self.name = run, name

    def keys(self):
        return (self.name,)

    def start(self, B):
        self.best = np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt, coefs):
        v = Vs[self.run]
        self.best = np.maximum(self.best, np.sqrt(np.sum(v * v, axis=(1, 2))))

    def finish(self):
        return {self.name: self.best}


class IntegratedG(Tracker):
    """Left-point Riemann sum of the derivative-energy function along a run."""

    reads_jac = True

    def __init__(self, run: int = 0, name: str = "int_g"):
        self.run, self.name = run, name

    def keys(self):
        return (self.name,)

    def start(self, B):
        self.total = np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt, coefs):
        if dWk is None:
            return
        self.total += _g_sum(coefs[self.run][1]) * dt

    def finish(self):
        return {self.name: self.total}


class PathRecorder(Tracker):
    """Record full trajectories of a run (memory: paths x steps x (n + n^2))."""

    def __init__(self, run: int = 0, name: str = "paths", with_jac: bool = True):
        self.run, self.name, self.reads_jac = run, name, with_jac

    def keys(self):
        return (self.name + "_states",) + ((self.name + "_jacs",) if self.reads_jac else ())

    def start(self, B):
        self.states, self.jacs = [], []

    def step(self, k, xis, Vs, dWk, dt, coefs):
        self.states.append(xis[self.run].copy())
        if self.reads_jac:
            self.jacs.append(Vs[self.run].copy())

    def finish(self):
        out = {self.name + "_states": np.stack(self.states, axis=1)}
        if self.reads_jac:
            out[self.name + "_jacs"] = np.stack(self.jacs, axis=1)
        return out


class _PairSup(Tracker):
    """Running sup of pathwise state gaps between two runs, and of their
    derivative gaps when ``with_jac``."""

    def __init__(self, i: int, j: int, name: str, with_jac: bool):
        self.i, self.j, self.name, self.reads_jac = i, j, name, with_jac

    def keys(self):
        return (f"{self.name}_state",) + ((f"{self.name}_jac",) if self.reads_jac else ())

    def start(self, B):
        self.state, self.jac = np.zeros(B), np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt, coefs):
        dx = xis[self.i] - xis[self.j]
        self.state = np.maximum(self.state, np.linalg.norm(dx, axis=1))
        if self.reads_jac:
            dv = Vs[self.i] - Vs[self.j]
            self.jac = np.maximum(self.jac, np.sqrt(np.sum(dv * dv, axis=(1, 2))))

    def finish(self):
        out = {f"{self.name}_state": self.state}
        if self.reads_jac:
            out[f"{self.name}_jac"] = self.jac
        return out


# ---------------------------------------------------------------------------
# block engine


def _resolve_workers(workers: Optional[int]) -> int:
    """The worker count: `workers`, else SDEM_WORKERS, else 1.  Anything but
    an integer of at least 1 raises, naming where it came from."""
    key, value = "workers", workers
    if workers is None:
        env = os.environ.get("SDEM_WORKERS")
        if not env:
            return 1
        key, value = "SDEM_WORKERS", int(env) if env.strip().isdecimal() else env
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise FieldError(f"{key} must be an integer of at least 1, got {value!r}")
    return int(value)


def _simulate_block(runs, grid, dW, trackers, with_jac):
    """Integrate rows of lockstep runs on their increments dW (B, steps, m),
    a block or a slice of one; each x0 is a checked start point.

    Each step evaluates every run's coefficients once, steps the trackers on
    the pre-update states and those coefficients, then takes the Euler
    updates.  A row's arithmetic depends on that row alone, so a slice's
    result is the same rows of its block's result.
    """
    B = dW.shape[0]
    dt = grid.dt
    xis = [np.tile(x0, (B, 1)) for _, x0 in runs]
    Vs = [np.tile(np.eye(len(x0)), (B, 1, 1)) if with_jac else None for _, x0 in runs]
    accs = [t.make(B) for t in trackers]
    flagged = np.zeros(B, dtype=bool)
    # errstate is per thread, so each unit sets its own
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.steps):
            dWk = dW[:, k, :]
            coefs = [_coefficients(fields, xi, with_jac) for (fields, _), xi in zip(runs, xis)]
            for acc in accs:
                acc.step(k, xis, Vs, dWk, dt, coefs)
            for r, coef in enumerate(coefs):
                xis[r], Vs[r] = _euler_step(xis[r], Vs[r], coef, dWk, dt)
                flagged |= ~np.isfinite(xis[r]).all(axis=1)
                if Vs[r] is not None:
                    flagged |= ~np.isfinite(Vs[r].reshape(B, -1)).all(axis=1)
        for acc in accs:
            acc.step(grid.steps, xis, Vs, None, dt, None)
    extras = {}
    for acc in accs:
        extras.update(acc.finish())
    return xis, Vs, flagged, extras


@dataclass
class EnsembleResult:
    """Endpoint and tracker statistics for one run across all paths."""

    state_T: np.ndarray                 # (paths, n)
    jac_T: Optional[np.ndarray]         # (paths, n, n)
    flag: np.ndarray                    # (paths,) bool
    extras: dict = field(default_factory=dict)

    @property
    def n_flagged(self) -> int:
        return int(self.flag.sum())

    @property
    def ok(self) -> np.ndarray:
        return ~self.flag


def _run(runs, grid: TimeGrid, noise: BrownianBatch, trackers, with_jac, workers):
    """Simulate every block of lockstep runs in units of rows, and join the
    units in row order.

    With nb blocks and w resolved workers, a unit is a whole block when
    nb >= w, and its worker draws the block's noise.  When nb < w, the
    calling thread draws each block once and cuts it into
    min(ceil(w / nb), rows) contiguous, non-empty slices, each a unit.  The
    units go over a pool of w threads; one worker makes no pool.

    Returns (list of EnsembleResult in run order, joint extras dict).
    """
    runs = [(fields, _start_point(fields, x0, grid, noise, with_jac)) for fields, x0 in runs]
    trackers = tuple(trackers)
    writer = {}
    for t in trackers:
        if t.reads_jac and not with_jac:
            raise FieldError(f"tracker {type(t).__name__} reads the derivative flow, "
                             "which a state-only run (with_jac=False) does not integrate")
        for key in t.keys():
            if key in writer:
                raise FieldError(f"trackers {writer[key]} and {type(t).__name__} "
                                 f"both write the extra {key!r}")
            writer[key] = type(t).__name__
    w, nb = _resolve_workers(workers), noise.n_blocks
    # when blocks are the units, each worker draws every block into its own
    # step-major buffer, sized for the largest block and freed with the run
    ws = _Workspace()
    shape = (grid.steps, min(BLOCK, noise.paths), noise.m)

    def simulate(dW):
        return _simulate_block(runs, grid, dW, trackers, with_jac)

    def block(b):
        return simulate(noise.block_increments(b, out=ws.array("dW", shape)))

    def slices():
        for b in range(nb):
            dW = noise.block_increments(b)
            yield from np.array_split(dW, min(-(-w // nb), len(dW)))

    unit, units = (block, range(nb)) if nb >= w else (simulate, slices())
    if w == 1:
        parts = [unit(u) for u in units]
    else:
        # map submits every unit before it waits, so the calling thread
        # draws block b + 1 while the slices of block b run
        with ThreadPoolExecutor(max_workers=w) as ex:
            parts = list(ex.map(unit, units))
    flag = np.concatenate([p[2] for p in parts], axis=0)
    extras = {key: np.concatenate([p[3][key] for p in parts], axis=0)
              for key in parts[0][3]}
    results = []
    for r in range(len(runs)):
        state_T = np.concatenate([p[0][r] for p in parts], axis=0)
        jac_T = np.concatenate([p[1][r] for p in parts], axis=0) if with_jac else None
        results.append(EnsembleResult(state_T, jac_T, flag, {}))
    return results, extras


def run_ensemble(fields, x0, grid: TimeGrid, noise: BrownianBatch, *,
                 trackers: Iterable = (), with_jac: bool = True,
                 workers: Optional[int] = None) -> EnsembleResult:
    """Integrate an ensemble of independent paths for one field set."""
    (res,), extras = _run([(fields, x0)], grid, noise, trackers, with_jac, workers)
    res.extras.update(extras)
    return res


def run_multi(runs, grid: TimeGrid, noise: BrownianBatch, *,
              trackers: Iterable = (), with_jac: bool = True,
              workers: Optional[int] = None):
    """Lockstep ensembles for several (fields, start) runs on shared noise.

    Returns (list of EnsembleResult in run order, joint extras dict).
    Flag masks are pooled: a path flagged in any run is flagged in all.
    The paths go over ``workers`` threads in units of rows (see `_run`), so
    even one block of paths uses every worker; the results are those of one
    worker, byte for byte.
    """
    return _run(runs, grid, noise, trackers, with_jac, workers)


def _start_point(fields, x0, grid: TimeGrid, noise: BrownianBatch, with_jac) -> np.ndarray:
    """x0 as a finite vector of n entries, checked with the noise, and the
    field set's DA checked when the run carries V, before any draw."""
    if noise.grid != grid:
        raise FieldError("noise was generated for a different time grid")
    if noise.m != fields.m:
        raise FieldError(f"noise dimension {noise.m} != field noise dimension {fields.m}")
    x0 = _start_vector(x0, fields.n)
    if with_jac:
        fields.require_dfield()
    return x0


# ---------------------------------------------------------------------------
# public operations


@dataclass
class CoupledFamilyResult:
    """Ensembles at each smoothing level on common random numbers.

    ``levels`` maps eps to its EnsembleResult, mollified levels only.
    ``pair_state_sup``/``pair_jac_sup`` hold per-path running sups of
    |state gap| and Frobenius derivative gap between each coarser level and
    the finest one (keys are (eps, eps_finest)).  A state-only family has no
    derivative gaps: ``pair_jac_sup`` is None.
    """

    levels: dict
    pair_state_sup: dict
    pair_jac_sup: Optional[dict]
    flag: np.ndarray

    @property
    def n_flagged(self) -> int:
        return int(self.flag.sum())

    def sup_moment(self, eps_a: float, eps_b: float, p: float,
                   which: str = "state") -> EstimatorReport:
        """Report of E sup_t |gap|^p between two levels."""
        table = self.pair_state_sup if which == "state" else self.pair_jac_sup
        if table is None:
            raise FieldError("the family was run state-only (with_jac=False); "
                             "it has no derivative gaps")
        key = (eps_a, eps_b) if (eps_a, eps_b) in table else (eps_b, eps_a)
        if key not in table:
            raise FieldError(f"the family tracks no gap for the level pair ({eps_a}, {eps_b}), "
                             f"only each level against its finest; its levels are "
                             f"{list(self.levels)}")
        vals = table[key][~self.flag] ** p
        return from_samples(vals, excluded=self.n_flagged)


def coupled_family(fs: VectorFieldSet, eps_list: Sequence[float], x0,
                   grid: TimeGrid, noise: BrownianBatch, *,
                   with_jac: bool = True,
                   workers: Optional[int] = None) -> CoupledFamilyResult:
    """Integrate every mollified level on identical Brownian increments.

    The gaps tracked are those of each coarser level to the finest one.
    With ``with_jac`` (the default) each level carries its derivative flow
    and the result holds derivative gaps beside the state gaps.  With
    ``with_jac=False`` the levels are state-only: no DA is evaluated,
    ``pair_jac_sup`` is None, ``sup_moment(..., which="jac")`` raises, and
    a path is flagged only when its state is non-finite.

    The levels run in lockstep, and the paths go over ``workers`` threads
    in units of rows, block by block or in slices of a block (see `_run`).
    """
    eps_list = list(eps_list)
    if any(e <= 0 for e in eps_list):
        raise FieldError("coupled_family: eps values must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise FieldError("coupled_family: eps ladder must be strictly decreasing")
    runs = [(mollify_field(fs, e), x0) for e in eps_list]
    last = len(runs) - 1
    trackers = [_PairSup(i, last, f"pair_{i}", with_jac) for i in range(last)]
    results, extras = run_multi(runs, grid, noise, trackers=trackers,
                                with_jac=with_jac, workers=workers)
    finest = eps_list[last]
    pair_state = {(eps_list[i], finest): extras[f"pair_{i}_state"] for i in range(last)}
    pair_jac = ({(eps_list[i], finest): extras[f"pair_{i}_jac"] for i in range(last)}
                if with_jac else None)
    return CoupledFamilyResult(dict(zip(eps_list, results)), pair_state, pair_jac,
                               results[0].flag)


def moment_sup(ensemble: EnsembleResult, p: float) -> EstimatorReport:
    """Monte Carlo estimate of E sup_{s<=T} |V_s|^p (Frobenius norm)."""
    if "sup_jac" not in ensemble.extras:
        raise FieldError("ensemble was run without a JacSupNorm tracker")
    vals = ensemble.extras["sup_jac"][ensemble.ok]
    if vals.size == 0:
        raise FieldError("moment_sup: no unflagged paths")
    return from_samples(vals ** p, excluded=ensemble.n_flagged)


def exp_g_functional(ensemble: EnsembleResult, q: float) -> EstimatorReport:
    """Estimate of E exp(6 q^2 int_0^T G(xi_s) ds), left-point time sums.

    Overflowing paths make the estimate +inf; their count is available on
    the returned report as ``overflowed``.
    """
    if "int_g" not in ensemble.extras:
        raise FieldError("ensemble was run without an IntegratedG tracker")
    ints = ensemble.extras["int_g"][ensemble.ok]
    if ints.size == 0:
        raise FieldError("exp_g_functional: no unflagged paths")
    with np.errstate(over="ignore"):
        vals = np.exp(6.0 * q * q * ints)
    overflow = int(np.isinf(vals).sum())
    n = vals.size
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if (n > 1 and math.isfinite(est)) else math.inf
    return EstimatorReport(est, se if math.isfinite(se) else math.inf, n,
                           excluded=ensemble.n_flagged, overflowed=overflow)


@dataclass(frozen=True)
class SpatialDerivativeCheck:
    fd: np.ndarray
    vt: np.ndarray
    gap: float


def spatial_derivative_check(fs, x0, v0, h: float, grid: TimeGrid,
                             noise: BrownianBatch, *,
                             workers: Optional[int] = None) -> SpatialDerivativeCheck:
    """Compare the derivative flow against a central spatial finite difference.

    Three runs share identical increments: starts x0 +/- h v0 (states only)
    and x0 (with the derivative matrix).  Returns ensemble means of the
    finite-difference direction and of V_T v0, and the mean pathwise gap.
    """
    if h <= 0:
        raise FieldError("spatial_derivative_check: h must be positive")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    v0 = np.asarray(v0, dtype=float).reshape(-1)
    runs = [(fs, x0 + h * v0), (fs, x0 - h * v0), (fs, x0)]
    results, _ = run_multi(runs, grid, noise, workers=workers)
    ok = results[0].ok
    fd_paths = (results[0].state_T[ok] - results[1].state_T[ok]) / (2.0 * h)
    vt_paths = np.einsum("bij,j->bi", results[2].jac_T[ok], v0)
    gap = float(np.mean(np.linalg.norm(fd_paths - vt_paths, axis=1)))
    return SpatialDerivativeCheck(fd_paths.mean(axis=0), vt_paths.mean(axis=0), gap)
