"""Coupled Euler-Maruyama integration of a state SDE and its derivative flow.

The state and, in each run whose V a tracker reads, the n-by-n derivative
matrix V advance together on a fixed time grid with left-point (Ito)
coefficient evaluation.  Brownian increments are
generated in fixed-size path blocks from counter-style keyed streams, so the
increment of path i at step k is a pure function of (seed, i, k) regardless
of how many paths are requested, how the work is scheduled, or how many
worker threads run.  Ensemble reductions always combine per-block results in
ascending block order, which makes every aggregate bit-reproducible.

Every run steps on the grid of its noise, which fixes it.  Runs at several
mollification levels can share one increment stream (common random
numbers), turning pathwise differences into direct measurements of the
smoothing error rather than of the noise.

Workers follow one rule (see `_run`): the unit of work is a contiguous
range of a block's rows, a whole block or a slice of one.  ``workers`` is a
count, 1 unless the caller gives another; no environment variable sets it.
The units go over a pool of `workers` threads and their results are joined
in row order.  Every evaluation and reduction the engine makes is row by
row, the quadrature sum of a mollified field included, so outputs are
byte-identical across worker counts.  So are errors: a run that fails
raises the error one worker would raise.

A block's increments are stored step-major, so the step-k slice dW[:, k, :]
that every Euler step and tracker reads is one contiguous run of memory
(see `BrownianBatch.block_increments`).
"""

from __future__ import annotations

import copy
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .fields import VectorFieldSet, Workspace, g_sum
from .inputs import COUNT, NUMBER, POSITIVE, SEED, FieldError, read, vector
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
        object.__setattr__(self, "T", read("TimeGrid: horizon T", self.T, POSITIVE))
        object.__setattr__(self, "steps", read("TimeGrid: steps", self.steps, COUNT))

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
        object.__setattr__(self, "seed", read("BrownianBatch: seed", self.seed, SEED))
        object.__setattr__(self, "paths", read("BrownianBatch: paths", self.paths, COUNT))
        object.__setattr__(self, "m", read("BrownianBatch: m", self.m, COUNT))
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


def _coefficients(fields, xi, carries_v):
    """A(0..m) at xi as (B, n) arrays, and DA(0..m) as (B, n, n), or None
    when the run does not carry V.

    A declared zero drift is not evaluated: its A(0) and DA(0) are None.
    A declared constant diffusion is evaluated at the origin alone: each
    A(l >= 1) is one (1, n) row that broadcasts over the block, and each
    DA(l >= 1) is None.  A one-path block also has (1, n) rows, so a None
    DA(l), never a row count, is what marks a constant diffusion.  A
    declared affine drift has its DA(0) evaluated at the origin alone, as
    one (1, n, n) row."""
    B, n = xi.shape
    origin = np.zeros((1, n))
    pts = origin if fields.constant_diffusion else xi
    A = [None if fields.zero_drift else np.asarray(fields.A(0, xi)).reshape(B, n)]
    A += [np.asarray(fields.A(l, pts)).reshape(len(pts), n) for l in range(1, fields.m + 1)]
    if not carries_v:
        return A, None
    at = origin if fields.affine_drift else xi
    DA = [None if fields.zero_drift else np.asarray(fields.DA(0, at)).reshape(len(at), n, n)]
    DA += [None if fields.constant_diffusion else np.asarray(fields.DA(l, xi)).reshape(B, n, n)
           for l in range(1, fields.m + 1)]
    return A, DA


def mm(a, b):
    """Stacked a @ b.  With inner dimension 1 the matmul sums one product
    onto +0; `a * b + 0.0` is that bit for bit, -0 included, at ~1/8 the cost."""
    if a.shape[-1] != 1:
        return a @ b
    out = a * b
    out += 0.0
    return out


def _euler_step(xi, V, coef, dWk, dt):
    """One left-point Euler step for a block: xi (B, n), V (B, n, n), (1, n, n)
    or None.

    A skipped zero drift (A[0] is None) has no dt terms, and a skipped
    constant diffusion (DA[l] is None) no DA(l) V dW terms.  Adding their
    zeros could only turn a -0 entry into +0, or an infinite V entry into
    NaN, so no value a study reads and no flag depends on the skip.  A (1, n)
    row A[l] broadcasts over the block: each entry is the same product.  So
    does a one-row V or DA[l]: V stays one row while every DA it meets is
    one row, and becomes B rows at the first DA that has B rows."""
    A, DA = coef
    xi_new = xi if A[0] is None else xi + A[0] * dt
    V_new = None
    if V is not None:
        V_new = V if DA[0] is None else V + mm(DA[0], V) * dt
    for l in range(1, len(A)):
        xi_new = xi_new + A[l] * dWk[:, l - 1: l]
        if V is not None and DA[l] is not None:
            V_new = V_new + mm(DA[l], V) * dWk[:, l - 1, None, None]
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
# DA(0); a declared affine drift as a (1, n, n) row DA(0).  Vs[r] is (B, n, n)
# or, while every path shares it, one (1, n, n) row; a tracker broadcasts it
# and never reads its row count.  After the final step comes one more call,
# `step(steps, xis, Vs, None, dt, None)`; Ito sums return at once when dWk is
# None.  `finish()` returns the block's extras: arrays with one row per path,
# under the keys that `keys()` names up front, in that order; the keys follow
# from the tracker's kind and the runs it reads, which it names as `runs`.  A
# tracker that reads their V or DA sets `reads_jac`, and a run carries V
# exactly when such a tracker names it: every other run's Vs[r], DA and
# `jac_T` are None.  Before any noise is drawn, a run refuses a tracker that
# names a run it lacks (a run index is an int, never a bool), and two
# trackers that name the same key.


class Tracker:
    """Base of the per-block trackers; see the protocol above.  A tracker of
    one run writes its kind's ``prefix`` followed by each of ``suffixes``, with
    ``_r`` after the prefix for run r > 0: ``sup_jac``, then ``sup_jac_1``."""

    reads_jac = False
    suffixes = ("",)

    def __init__(self, run: int = 0):
        self.run = run

    @property
    def runs(self):
        return (self.run,)

    def keys(self):
        prefix = self.prefix if self.run == 0 else f"{self.prefix}_{self.run}"
        return tuple(prefix + suffix for suffix in self.suffixes)

    def make(self, B):
        acc = copy.copy(self)
        acc.start(B)
        return acc


class JacSupNorm(Tracker):
    """Running sup over time of the Frobenius norm of the derivative matrix."""

    reads_jac = True
    prefix = "sup_jac"

    def start(self, B):
        self.best = np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt, coefs):
        v = Vs[self.run]
        self.best = np.maximum(self.best, np.sqrt(np.sum(v * v, axis=(1, 2))))

    def finish(self):
        return dict(zip(self.keys(), (self.best,)))


class IntegratedG(Tracker):
    """Left-point Riemann sum of the derivative-energy function along a run."""

    reads_jac = True
    prefix = "int_g"

    def start(self, B):
        self.total = np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt, coefs):
        if dWk is None:
            return
        self.total += g_sum(coefs[self.run][1]) * dt

    def finish(self):
        return dict(zip(self.keys(), (self.total,)))


class PathRecorder(Tracker):
    """Record full trajectories of a run (memory: paths x steps x (n + n^2))."""

    prefix = "paths"

    def __init__(self, run: int = 0, with_jac: bool = True):
        self.run, self.reads_jac = run, with_jac
        self.suffixes = ("_states", "_jacs") if with_jac else ("_states",)

    def start(self, B):
        self.states, self.jacs = [], []

    def step(self, k, xis, Vs, dWk, dt, coefs):
        xi = xis[self.run]
        self.states.append(xi.copy())
        if self.reads_jac:
            V = Vs[self.run]
            self.jacs.append(np.broadcast_to(V, xi.shape[:1] + V.shape[1:]).copy())

    def finish(self):
        # a state-only recorder names one key, so the zip ends at the states
        return dict(zip(self.keys(), (np.stack(f, axis=1) for f in (self.states, self.jacs))))


class _PairSup(Tracker):
    """Running sup of pathwise state gaps between two runs, and of their
    derivative gaps when ``with_jac``."""

    def __init__(self, i: int, j: int, with_jac: bool):
        self.i, self.j, self.reads_jac = i, j, with_jac

    @property
    def runs(self):
        return (self.i, self.j)

    def keys(self):
        prefix = f"pair_{self.i}_{self.j}"
        return (f"{prefix}_state",) + ((f"{prefix}_jac",) if self.reads_jac else ())

    def start(self, B):
        self.state, self.jac = np.zeros(B), np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt, coefs):
        dx = xis[self.i] - xis[self.j]
        self.state = np.maximum(self.state, np.linalg.norm(dx, axis=1))
        if self.reads_jac:
            dv = Vs[self.i] - Vs[self.j]
            self.jac = np.maximum(self.jac, np.sqrt(np.sum(dv * dv, axis=(1, 2))))

    def finish(self):
        # a state-only pair names one key, so the zip ends at the state gaps
        return dict(zip(self.keys(), (self.state, self.jac)))


# ---------------------------------------------------------------------------
# block engine


def _simulate_block(runs, dt, dW, trackers):
    """Integrate rows of lockstep runs on their increments dW (B, steps, m),
    a block or a slice of one, in steps of dt from (fields, x0, carries_v).

    Each step evaluates every run's coefficients once, steps the trackers on
    the pre-update states and those coefficients, then takes the Euler
    updates.  A row's arithmetic depends on that row alone, so a slice's
    result is the same rows of its block's result.  A carried V starts as
    one identity row and is broadcast to B rows before it is returned.

    A row is flagged when any run's final state or carried V, or any extra a
    tracker returns for it, has a non-finite entry.  That is the same as
    checking after every step: each Euler update adds onto the previous
    state and V, and under IEEE rules a sum with a non-finite addend is
    non-finite, so a row that goes non-finite stays so to the end.  The
    trackers here keep a non-finite value too: a sum or a running sup that
    meets one stays non-finite, and a recorder keeps every step.
    """
    B, steps = dW.shape[:2]
    xis = [np.tile(x0, (B, 1)) for _, x0, _ in runs]
    Vs = [np.eye(len(x0))[None] if carries_v else None for _, x0, carries_v in runs]
    accs = [t.make(B) for t in trackers]
    # errstate is per thread, so each unit sets its own
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            dWk = dW[:, k, :]
            coefs = [_coefficients(fields, xi, V is not None)
                     for (fields, _, _), xi, V in zip(runs, xis, Vs)]
            for acc in accs:
                acc.step(k, xis, Vs, dWk, dt, coefs)
            for r, coef in enumerate(coefs):
                xis[r], Vs[r] = _euler_step(xis[r], Vs[r], coef, dWk, dt)
        for acc in accs:
            acc.step(steps, xis, Vs, None, dt, None)
    extras = {}
    for acc in accs:
        extras.update(acc.finish())
    flagged = np.zeros(B, dtype=bool)
    for a in (*xis, *Vs, *extras.values()):
        if a is not None:
            # a one-row V checks its row once, for every path
            flagged |= ~np.isfinite(a.reshape(len(a), -1)).all(axis=1)
    Vs = [V if V is None else np.broadcast_to(V, (B,) + V.shape[1:]) for V in Vs]
    return xis, Vs, flagged, extras


@dataclass
class EnsembleResult:
    """Endpoint and tracker statistics for one run across all paths.

    ``jac_T`` is None unless a tracker reads V.  ``flag`` marks the paths
    whose state, carried V or tracker extras went non-finite; ``ok`` is its
    complement."""

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


def _run(runs, noise: BrownianBatch, trackers, workers):
    """Simulate every block of lockstep runs in units of rows, and join the
    units in row order.  Run r carries V when a tracker that reads V names r.

    With nb blocks and w workers, a unit is a whole block when
    nb >= w, and its worker draws the block's noise.  When nb < w, the
    calling thread draws each block once and cuts it into
    min(ceil(w / nb), rows) contiguous, non-empty slices, each a unit.  The
    units go over a pool of w threads; one worker makes no pool.  A failing
    run raises the error of its first failing block, and a failing slice
    re-runs its block whole to raise it, so the error is one worker's.
    Returns what `run_multi` does.
    """
    runs, trackers = list(runs), tuple(trackers)
    writer, carried = {}, set()
    for t in trackers:
        for r in t.runs:
            if isinstance(r, bool) or not isinstance(r, int) or r not in range(len(runs)):
                raise FieldError(f"tracker {type(t).__name__} reads run {r!r}, not one of "
                                 f"the runs {list(range(len(runs)))}")
        carried.update(t.runs if t.reads_jac else ())
        for key in t.keys():
            if key in writer:
                raise FieldError(f"trackers {writer[key]} and {type(t).__name__} "
                                 f"both write the extra {key!r}")
            writer[key] = type(t).__name__
    runs = [(fields, _start_point(fields, x0, noise, r in carried), r in carried)
            for r, (fields, x0) in enumerate(runs)]
    w, nb = read("workers", workers, COUNT), noise.n_blocks
    # when blocks are the units, each worker draws every block into its own
    # step-major buffer, sized for the largest block and freed with the run
    ws = Workspace()
    shape = (noise.grid.steps, min(BLOCK, noise.paths), noise.m)

    def simulate(dW):
        return _simulate_block(runs, noise.grid.dt, dW, trackers)

    def block(b):
        return simulate(noise.block_increments(b, out=ws.array("dW", shape)))

    def slices():
        for b in range(nb):
            dW = noise.block_increments(b)
            yield from ((dW, rows) for rows in np.array_split(dW, min(-(-w // nb), len(dW))))

    def cut(item):
        dW, rows = item
        try:
            return simulate(rows)
        except Exception:
            # another slice's rows may fail at an earlier step: the block
            # run whole raises the error that one worker would
            simulate(dW)
            raise

    unit, units = (block, range(nb)) if nb >= w else (cut, slices())
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
    for r, (_, _, carries_v) in enumerate(runs):
        state_T = np.concatenate([p[0][r] for p in parts], axis=0)
        jac_T = np.concatenate([p[1][r] for p in parts], axis=0) if carries_v else None
        results.append(EnsembleResult(state_T, jac_T, flag, {}))
    return results, extras


def run_ensemble(fields, x0, noise: BrownianBatch, *,
                 trackers: Iterable = (), workers: int = 1) -> EnsembleResult:
    """Integrate an ensemble of independent paths for one field set."""
    (res,), extras = _run([(fields, x0)], noise, trackers, workers)
    res.extras.update(extras)
    return res


def run_multi(runs, noise: BrownianBatch, *,
              trackers: Iterable = (), workers: int = 1):
    """Lockstep ensembles for several (fields, start) runs on shared noise.

    Returns (list of EnsembleResult in run order, joint extras dict).  A run
    carries V exactly when a tracker that reads V names it.
    Flag masks are pooled: a path flagged in any run is flagged in all.
    The paths go over ``workers`` threads in units of rows (see `_run`), so
    even one block of paths uses every worker; the results are those of one
    worker, byte for byte.
    """
    return _run(runs, noise, trackers, workers)


def _start_point(fields, x0, noise: BrownianBatch, carries_v) -> np.ndarray:
    """x0 as a finite vector of n entries, checked with the noise, and the
    field set's DA checked when the run carries V, before any draw."""
    if noise.m != fields.m:
        raise FieldError(f"noise dimension {noise.m} != field noise dimension {fields.m}")
    x0 = vector(x0, "start point x0", fields.n)
    if carries_v:
        fields.require_dfield()
    return x0


# ---------------------------------------------------------------------------
# public operations


@dataclass
class CoupledFamilyResult:
    """Ensembles at each smoothing level on common random numbers.

    ``levels`` maps eps to its EnsembleResult, mollified levels only.
    ``pair_state_sup``/``pair_jac_sup`` map each coarser level's eps to the
    per-path running sups of its |state gap| and Frobenius derivative gap
    to the finest level.  A state-only family has no derivative gaps:
    ``pair_jac_sup`` is None.
    """

    levels: dict
    pair_state_sup: dict
    pair_jac_sup: Optional[dict]
    flag: np.ndarray

    @property
    def n_flagged(self) -> int:
        return int(self.flag.sum())

    def sup_moment(self, eps: float, p: float, which: str = "state") -> EstimatorReport:
        """Report of E sup_t |gap|^p between the coarser level eps and the
        finest, of the states (``which`` 'state') or the derivatives ('jac')."""
        p = read("sup_moment: p", p, NUMBER)
        if which not in ("state", "jac"):
            raise FieldError(f"sup_moment: which must be one of ['jac', 'state'], got {which!r}")
        table = self.pair_state_sup if which == "state" else self.pair_jac_sup
        if table is None:
            raise FieldError("the family was run state-only (with_jac=False); "
                             "it has no derivative gaps")
        if eps not in table:
            raise FieldError(f"the family tracks no gap for the level {eps}, only each "
                             f"coarser level against its finest; its levels are "
                             f"{list(self.levels)}")
        vals = table[eps][~self.flag] ** p
        return from_samples(vals, excluded=self.n_flagged)


def coupled_family(fs: VectorFieldSet, eps_list: Sequence[float], x0,
                   noise: BrownianBatch, *,
                   with_jac: bool = True,
                   workers: int = 1) -> CoupledFamilyResult:
    """Integrate every mollified level on identical Brownian increments.

    The gaps tracked are those of each coarser level to the finest one.
    With ``with_jac`` (the default) the gap trackers read V, so every level
    carries it, and the result holds derivative gaps beside the state gaps.
    With ``with_jac=False`` no level carries V: no DA is evaluated,
    ``pair_jac_sup`` is None, ``sup_moment(..., which="jac")`` raises, and
    a path is flagged only when a state or a state gap is non-finite.

    The levels run in lockstep, and the paths go over ``workers`` threads
    in units of rows, block by block or in slices of a block (see `_run`).
    """
    eps_list = list(eps_list)
    # each level's eps is checked, and named, where it is mollified
    runs = [(mollify_field(fs, e), x0) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise FieldError("coupled_family: eps ladder must be strictly decreasing")
    last = len(runs) - 1
    trackers = [_PairSup(i, last, with_jac) for i in range(last)]
    results, extras = run_multi(runs, noise, trackers=trackers, workers=workers)
    pair_state = {eps_list[t.i]: extras[t.keys()[0]] for t in trackers}
    pair_jac = {eps_list[t.i]: extras[t.keys()[1]] for t in trackers} if with_jac else None
    return CoupledFamilyResult(dict(zip(eps_list, results)), pair_state, pair_jac,
                               results[0].flag)


def moment_sup(ensemble: EnsembleResult, p: float) -> EstimatorReport:
    """Monte Carlo estimate of E sup_{s<=T} |V_s|^p (Frobenius norm)."""
    p = read("moment_sup: p", p, NUMBER)
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
    q = read("exp_g_functional: q", q, NUMBER)
    if "int_g" not in ensemble.extras:
        raise FieldError("ensemble was run without an IntegratedG tracker")
    ints = ensemble.extras["int_g"][ensemble.ok]
    if ints.size == 0:
        raise FieldError("exp_g_functional: no unflagged paths")
    with np.errstate(over="ignore"):
        vals = np.exp(6.0 * q * q * ints)
    return from_samples(vals, excluded=ensemble.n_flagged)
