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
"""

from __future__ import annotations

import copy
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .fields import FieldError, VectorFieldSet, g_function
from .mollify import QuadSpec, mollify_field
from .report import EstimatorReport

__all__ = [
    "BLOCK",
    "TimeGrid",
    "BrownianBatch",
    "FlowPath",
    "EnsembleResult",
    "CoupledFamilyResult",
    "integrate",
    "run_ensemble",
    "coupled_family",
    "sup_distance",
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with `steps` Euler steps."""

    T: float
    steps: int

    def __post_init__(self):
        if self.T <= 0 or self.steps <= 0:
            raise FieldError("TimeGrid: horizon and step count must be positive")

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
    """

    seed: int
    paths: int
    grid: TimeGrid
    m: int

    def __post_init__(self):
        if self.paths <= 0 or self.m <= 0:
            raise FieldError("BrownianBatch: paths and noise dimension must be positive")

    @property
    def n_blocks(self) -> int:
        return (self.paths + BLOCK - 1) // BLOCK

    def block_slice(self, b: int) -> slice:
        lo = b * BLOCK
        return slice(lo, min(lo + BLOCK, self.paths))

    def _draw(self, b: int, rows: int) -> np.ndarray:
        """The first `rows` paths of block b's stream, shape (rows, steps, m)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(b,))
        z = np.random.default_rng(ss).standard_normal((rows, self.grid.steps, self.m))
        return z * math.sqrt(self.grid.dt)

    def block_increments(self, b: int) -> np.ndarray:
        """Increments dW for block b, shape (block_paths, steps, m)."""
        sl = self.block_slice(b)
        return self._draw(b, sl.stop - sl.start)

    def increments(self, path_index: int) -> np.ndarray:
        """Increments of one path, shape (steps, m)."""
        if not (0 <= path_index < self.paths):
            raise IndexError(f"path index {path_index} out of range")
        b, r = divmod(path_index, BLOCK)
        return self._draw(b, r + 1)[r]


@dataclass
class FlowPath:
    """One simulated trajectory of the state and its derivative matrix."""

    path_index: int
    grid: TimeGrid
    states: np.ndarray          # (steps + 1, n)
    jacs: np.ndarray            # (steps + 1, n, n)
    noise: BrownianBatch
    fields: object
    flagged: bool = False


def _euler_step(fields, xi, V, dWk, dt):
    """One left-point Euler step for a block: xi (B, n), V (B, n, n) or None."""
    B, n = xi.shape
    drift = np.asarray(fields.A(0, xi)).reshape(B, n)
    xi_new = xi + drift * dt
    V_new = None
    if V is not None:
        d0 = np.asarray(fields.DA(0, xi)).reshape(B, n, n)
        V_new = V + (d0 @ V) * dt
    for l in range(1, fields.m + 1):
        al = np.asarray(fields.A(l, xi)).reshape(B, n)
        xi_new = xi_new + al * dWk[:, l - 1: l]
        if V is not None:
            dl = np.asarray(fields.DA(l, xi)).reshape(B, n, n)
            V_new = V_new + (dl @ V) * dWk[:, l - 1, None, None]
    return xi_new, V_new


# ---------------------------------------------------------------------------
# per-block trackers
#
# The protocol: `make(B)` returns a shallow copy whose `start(B)` has set the
# accumulators of one block of B paths, so blocks can run concurrently.
# `step(k, xis, Vs, dWk, dt)` sees every step before the state update, so Ito
# sums are left-point by construction, and once more after the final step as
# `step(steps, xis, Vs, None, dt)`; Ito sums return at once when dWk is None.
# `finish()` returns the block's extras: arrays with one row per path.


class Tracker:
    """Base of the per-block trackers; see the protocol above."""

    def make(self, B):
        acc = copy.copy(self)
        acc.start(B)
        return acc


class JacSupNorm(Tracker):
    """Running sup over time of the Frobenius norm of the derivative matrix."""

    def __init__(self, run: int = 0, name: str = "sup_jac"):
        self.run, self.name = run, name

    def start(self, B):
        self.best = np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt):
        v = Vs[self.run]
        self.best = np.maximum(self.best, np.sqrt(np.sum(v * v, axis=(1, 2))))

    def finish(self):
        return {self.name: self.best}


class IntegratedG(Tracker):
    """Left-point Riemann sum of the derivative-energy function along a run."""

    def __init__(self, fields, run: int = 0, name: str = "int_g"):
        self.fields, self.run, self.name = fields, run, name

    def start(self, B):
        self.total = np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt):
        if dWk is not None:
            self.total += np.asarray(g_function(self.fields, xis[self.run])) * dt

    def finish(self):
        return {self.name: self.total}


class PathRecorder(Tracker):
    """Record full trajectories of a run (memory: paths x steps x (n + n^2))."""

    def __init__(self, run: int = 0, name: str = "paths", with_jac: bool = True):
        self.run, self.name, self.with_jac = run, name, with_jac

    def start(self, B):
        self.states, self.jacs = [], []

    def step(self, k, xis, Vs, dWk, dt):
        self.states.append(xis[self.run].copy())
        if self.with_jac:
            self.jacs.append(Vs[self.run].copy())

    def finish(self):
        out = {self.name + "_states": np.stack(self.states, axis=1)}
        if self.with_jac:
            out[self.name + "_jacs"] = np.stack(self.jacs, axis=1)
        return out


class _PairSup(Tracker):
    """Running sup of pathwise state and derivative gaps between two runs."""

    def __init__(self, i: int, j: int, name: str):
        self.i, self.j, self.name = i, j, name

    def start(self, B):
        self.state, self.jac = np.zeros(B), np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt):
        dx = xis[self.i] - xis[self.j]
        self.state = np.maximum(self.state, np.linalg.norm(dx, axis=1))
        if Vs[self.i] is not None:
            dv = Vs[self.i] - Vs[self.j]
            self.jac = np.maximum(self.jac, np.sqrt(np.sum(dv * dv, axis=(1, 2))))

    def finish(self):
        return {f"{self.name}_state": self.state, f"{self.name}_jac": self.jac}


# ---------------------------------------------------------------------------
# block engine


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("SDEM_WORKERS")
    return max(1, int(env)) if env else 1


def _simulate_block(runs, grid, dW, trackers, with_jac=True):
    B = dW.shape[0]
    dt = grid.dt
    xis, Vs = [], []
    for fields, x0 in runs:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if len(x0) != fields.n:
            raise FieldError(
                f"start point has dimension {len(x0)}, field set has n={fields.n}"
            )
        xis.append(np.tile(x0, (B, 1)))
        Vs.append(np.tile(np.eye(len(x0)), (B, 1, 1)) if with_jac else None)
    accs = [t.make(B) for t in trackers]
    flagged = np.zeros(B, dtype=bool)
    for k in range(grid.steps):
        dWk = dW[:, k, :]
        for acc in accs:
            acc.step(k, xis, Vs, dWk, dt)
        with np.errstate(over="ignore", invalid="ignore"):
            for r, (fields, _) in enumerate(runs):
                xis[r], Vs[r] = _euler_step(fields, xis[r], Vs[r], dWk, dt)
        for r in range(len(runs)):
            bad = ~np.isfinite(xis[r]).all(axis=1)
            if Vs[r] is not None:
                bad |= ~np.isfinite(Vs[r].reshape(B, -1)).all(axis=1)
            flagged |= bad
    for acc in accs:
        acc.step(grid.steps, xis, Vs, None, dt)
    extras = {}
    for acc in accs:
        extras.update(acc.finish())
    return xis, Vs, flagged, extras


def _map_blocks(noise: BrownianBatch, fn, workers: Optional[int]):
    nb = noise.n_blocks
    w = _resolve_workers(workers)
    if w <= 1 or nb <= 1:
        return [fn(b) for b in range(nb)]
    with ThreadPoolExecutor(max_workers=w) as ex:
        return list(ex.map(fn, range(nb)))


@dataclass
class EnsembleResult:
    """Endpoint and tracker statistics for one run across all paths."""

    grid: TimeGrid
    fields: object
    paths: int
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
    """Simulate every block of lockstep runs and join the blocks in order.

    Returns (list of EnsembleResult in run order, joint extras dict).
    """
    runs = list(runs)
    for fields, _ in runs:
        _check_noise(fields, grid, noise)
    trackers = tuple(trackers)

    def one(b):
        return _simulate_block(runs, grid, noise.block_increments(b), trackers, with_jac)

    parts = _map_blocks(noise, one, workers)
    flag = np.concatenate([p[2] for p in parts], axis=0)
    extras = {key: np.concatenate([p[3][key] for p in parts], axis=0)
              for key in parts[0][3]}
    results = []
    for r, (fields, _) in enumerate(runs):
        state_T = np.concatenate([p[0][r] for p in parts], axis=0)
        jac_T = np.concatenate([p[1][r] for p in parts], axis=0) if with_jac else None
        results.append(EnsembleResult(grid, fields, noise.paths, state_T, jac_T,
                                      flag, {}))
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
    """
    return _run(runs, grid, noise, trackers, with_jac, workers)


def _check_noise(fields, grid: TimeGrid, noise: BrownianBatch):
    if noise.grid != grid:
        raise FieldError("noise was generated for a different time grid")
    if noise.m != fields.m:
        raise FieldError(f"noise dimension {noise.m} != field noise dimension {fields.m}")


# ---------------------------------------------------------------------------
# public operations


def integrate(fields, x0, grid: TimeGrid, noise: BrownianBatch,
              path_index: int) -> FlowPath:
    """Integrate a single path of the coupled state/derivative system.

    The path is a one-path block of the ensemble engine.  A flagged path
    reads NaN from its first non-finite frame on.
    """
    fields.require_dfield()
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x0)):
        raise FieldError("integrate: starting point must be finite")
    _check_noise(fields, grid, noise)
    dW = noise.increments(path_index)[None]
    _, _, flagged, rec = _simulate_block([(fields, x0)], grid, dW, (PathRecorder(),))
    states, jacs = rec["paths_states"][0], rec["paths_jacs"][0]
    if flagged[0]:
        bad = ~(np.isfinite(states).all(axis=1) & np.isfinite(jacs).all(axis=(1, 2)))
        first = int(np.argmax(bad))
        states[first:] = np.nan
        jacs[first:] = np.nan
    return FlowPath(path_index, grid, states, jacs, noise, fields, bool(flagged[0]))


@dataclass
class CoupledFamilyResult:
    """Ensembles at each smoothing level on common random numbers.

    ``levels`` maps eps to its EnsembleResult; the unsmoothed reference run,
    when present, is keyed by 0.0.  ``pair_state_sup``/``pair_jac_sup`` hold
    per-path running sups of |state gap| and Frobenius derivative gap for
    every level pair (keys are (eps_a, eps_b) with eps_a > eps_b).
    """

    levels: dict
    pair_state_sup: dict
    pair_jac_sup: dict
    flag: np.ndarray

    @property
    def n_flagged(self) -> int:
        return int(self.flag.sum())

    def sup_moment(self, eps_a: float, eps_b: float, p: float,
                   which: str = "state", config_hash: str = "") -> EstimatorReport:
        """Report of E sup_t |gap|^p between two levels."""
        table = self.pair_state_sup if which == "state" else self.pair_jac_sup
        key = (eps_a, eps_b) if (eps_a, eps_b) in table else (eps_b, eps_a)
        vals = table[key][~self.flag] ** p
        from .report import from_samples
        return from_samples(vals, config_hash=config_hash, excluded=self.n_flagged)


def coupled_family(fs: VectorFieldSet, eps_list: Sequence[float], x0,
                   grid: TimeGrid, noise: BrownianBatch, *,
                   quad: Optional[QuadSpec] = None,
                   include_base: Optional[bool] = None,
                   keep_paths: bool = False,
                   workers: Optional[int] = None) -> CoupledFamilyResult:
    """Integrate every smoothing level on identical Brownian increments."""
    eps_list = list(eps_list)
    if any(e <= 0 for e in eps_list):
        raise FieldError("coupled_family: eps values must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise FieldError("coupled_family: eps ladder must be strictly decreasing")
    if include_base is None:
        include_base = fs.has_weak_derivative
    levels = [(e, mollify_field(fs, e, quad)) for e in eps_list]
    if include_base:
        fs.require_dfield()
        levels.append((0.0, fs))

    runs = [(f, x0) for _, f in levels]
    trackers = []
    keys = [e for e, _ in levels]
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            trackers.append(_PairSup(i, j, name=f"pair_{i}_{j}"))
    if keep_paths:
        for i in range(len(levels)):
            trackers.append(PathRecorder(run=i, name=f"run{i}"))

    results, extras = run_multi(runs, grid, noise, trackers=trackers,
                                workers=workers)
    pair_state, pair_jac = {}, {}
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            pair_state[(keys[i], keys[j])] = extras[f"pair_{i}_{j}_state"]
            pair_jac[(keys[i], keys[j])] = extras[f"pair_{i}_{j}_jac"]
    level_map = {}
    for idx, (e, f) in enumerate(levels):
        res = results[idx]
        if keep_paths:
            res.extras["states"] = extras[f"run{idx}_states"]
            res.extras["jacs"] = extras[f"run{idx}_jacs"]
        level_map[e] = res
    return CoupledFamilyResult(level_map, pair_state, pair_jac, results[0].flag)


def sup_distance(a: FlowPath, b: FlowPath, p: float) -> tuple[float, float]:
    """Pathwise sup distance to the power p, for states and derivatives."""
    if a.grid != b.grid:
        raise FieldError("sup_distance: paths live on different grids")
    ds = float(np.max(np.linalg.norm(a.states - b.states, axis=1)))
    dv = a.jacs - b.jacs
    dj = float(np.max(np.sqrt(np.sum(dv * dv, axis=(1, 2)))))
    return ds ** p, dj ** p


def moment_sup(ensemble: EnsembleResult, p: float,
               config_hash: str = "") -> EstimatorReport:
    """Monte Carlo estimate of E sup_{s<=T} |V_s|^p (Frobenius norm)."""
    if "sup_jac" not in ensemble.extras:
        raise FieldError("ensemble was run without a JacSupNorm tracker")
    vals = ensemble.extras["sup_jac"][ensemble.ok]
    if vals.size == 0:
        raise FieldError("moment_sup: no unflagged paths")
    from .report import from_samples
    return from_samples(vals ** p, config_hash=config_hash, excluded=ensemble.n_flagged)


def exp_g_functional(ensemble: EnsembleResult, q: float,
                     config_hash: str = "") -> EstimatorReport:
    """Estimate of E exp(6 q^2 int_0^T G(xi_s) ds), left-point time sums.

    Overflowing paths make the estimate +inf; their count is available on
    the returned report as ``overflowed``.
    """
    if "int_g" not in ensemble.extras:
        raise FieldError("ensemble was run without an IntegratedG tracker")
    ints = ensemble.extras["int_g"][ensemble.ok]
    with np.errstate(over="ignore"):
        vals = np.exp(6.0 * q * q * ints)
    overflow = int(np.isinf(vals).sum())
    n = vals.size
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if (n > 1 and math.isfinite(est)) else math.inf
    return EstimatorReport(est, se if math.isfinite(se) else math.inf, n,
                           excluded=ensemble.n_flagged, config_hash=config_hash,
                           overflowed=overflow)


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
