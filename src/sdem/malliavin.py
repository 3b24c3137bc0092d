"""Semigroup-gradient estimators and the path-space integration by parts.

Three routes to the derivative of the Markov semigroup P_t f are provided:
a weighted estimator that needs only f itself (the weight is an Ito
integral of the right inverse of the diffusion applied to the derivative
flow), the intertwining estimator for differentiable f, and a common
random number finite difference used as a cross-validation oracle.

All Ito integrals are discretized with the left-point rule on the
integration grid; no Stratonovich correction appears anywhere.

Reading note: the directional derivative process pairs the derivative
matrix with the direction as a matrix-vector product V_s h_s (for h with
values in state space), and the divergence is the Ito integral of the
right inverse applied to V_s hdot_s.  The weighted gradient's Bismut
weight int <Y V v0, dW> is the divergence weight of the direction with
constant rate hdot = v0, so one tracker, DivergenceWeight, serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fields import FieldError
from .flow import (BrownianBatch, PathRecorder, TimeGrid, Tracker, _mm,
                   run_ensemble, run_multi)
from .report import EstimatorReport, from_samples

__all__ = [
    "RightInverseError",
    "right_inverse",
    "MCConfig",
    "CameronMartinPath",
    "bismut_gradient",
    "intertwine_gradient",
    "fd_gradient",
    "divergence",
    "ibp_check",
    "IbpResult",
    "DivergenceWeight",
]


class RightInverseError(FieldError):
    """The diffusion matrix could not be inverted to the required residual."""


_RESIDUAL_TOL = 1e-10


def _batched_right_inverse(amat: np.ndarray) -> np.ndarray:
    """Minimum-norm right inverse A^T (A A^T)^{-1} for stacked (B, n, m).

    A 1x1 diffusion is inverted as 1/a.  Either way a row with a residual
    above 1e-10 raises, and a NaN row (a flagged path) stays NaN.
    """
    if amat.shape[-2:] == (1, 1):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            y = 1.0 / amat
            # a == 0, or a subnormal a, overflows 1/a to inf
            bad = np.isinf(y) | (np.abs(amat * y - 1.0) > _RESIDUAL_TOL)
        if np.any(bad):
            raise RightInverseError("diffusion is zero or numerically degenerate "
                                    "at some evaluation point")
        return y
    at = np.swapaxes(amat, -1, -2)
    gram = amat @ at
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise RightInverseError(f"singular diffusion Gram matrix: {exc}") from exc
    y = at @ inv
    res = amat @ y - np.eye(amat.shape[-2])
    bad = np.sqrt(np.sum(res * res, axis=(-2, -1))) > _RESIDUAL_TOL
    if np.any(bad):
        # one Newton refinement of the Gram inverse on the offending rows
        ref = inv[bad] @ (2.0 * np.eye(amat.shape[-2]) - gram[bad] @ inv[bad])
        y[bad] = at[bad] @ ref
        res = amat[bad] @ y[bad] - np.eye(amat.shape[-2])
        still = np.sqrt(np.sum(res * res, axis=(-2, -1))) > _RESIDUAL_TOL
        if np.any(still):
            raise RightInverseError(
                "right-inverse residual above 1e-10 after refinement; "
                "the diffusion is numerically degenerate at some evaluation point"
            )
    return y


def _located_right_inverse(amat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Right inverse of amat (B, n, m), the diffusion matrices at pts (B, n);
    a singular point raises with the point and smallest eigenvalue named."""
    try:
        return _batched_right_inverse(amat)
    except RightInverseError:
        gram = amat @ np.swapaxes(amat, -1, -2)
        eigs = np.linalg.eigvalsh(gram)
        i = int(np.argmin(eigs[:, 0]))
        raise RightInverseError(
            f"diffusion matrix singular at {pts[i]}: min eigenvalue {eigs[i, 0]:.3e}"
        ) from None


def right_inverse(fs, x) -> np.ndarray:
    """Right inverse Y(x) of the diffusion map, shape (..., m, n).

    Requires ellipticity at x; a singular point raises with the point and
    the smallest eigenvalue named.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_2d(x)
    y = _located_right_inverse(np.asarray(fs.diffusion_matrix(pts)), pts)
    return y[0] if single else y.reshape(x.shape[:-1] + y.shape[-2:])


@dataclass(frozen=True)
class MCConfig:
    """Ensemble configuration shared by the gradient and IBP estimators."""

    fields: object
    paths: int
    dt: float = 1e-3
    seed: int = 0
    workers: Optional[int] = None
    config_hash: str = ""

    def grid_for(self, t: float) -> TimeGrid:
        if t <= 0:
            raise FieldError("horizon must be positive")
        steps = max(1, round(t / self.dt))
        return TimeGrid(t, steps)

    def noise_for(self, grid: TimeGrid) -> BrownianBatch:
        return BrownianBatch(self.seed, self.paths, grid, self.fields.m)


@dataclass(frozen=True)
class CameronMartinPath:
    """An adapted direction with square-integrable time derivative.

    ``rate(k, state)`` returns hdot at step k given the state at the left
    endpoint of the step, so the evaluator can only ever see the past;
    adaptedness holds by construction rather than by a runtime check.
    A direction with a constant rate also carries that rate as ``vec``.
    """

    rate: Callable[[int, np.ndarray], np.ndarray]
    vec: Optional[np.ndarray] = field(default=None, compare=False)

    @staticmethod
    def constant(vec) -> "CameronMartinPath":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))

        def rate(k, state):
            return np.broadcast_to(vec, state.shape)

        return CameronMartinPath(rate, vec)


def _checked_vector(vec, key: str, n: int) -> np.ndarray:
    """A direction as a vector of n entries; any other length raises,
    naming the key, before a run draws noise."""
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    if vec.shape != (n,):
        raise FieldError(f"direction {key} has shape {vec.shape}, field set has n={n}")
    return vec


def _check_direction(h: "CameronMartinPath", n: int) -> None:
    if h.vec is not None:
        _checked_vector(h.vec, "h", n)


# ---------------------------------------------------------------------------
# trackers (plug into the flow engine)


class DivergenceWeight(Tracker):
    """Divergence of a Cameron-Martin direction along the flow.

    Accumulates the Ito sum <Y(xi_k) V_k hdot_k, dW_k>, the direction
    h_k = sum_{j<k} hdot_j dt, and the energy int |hdot|^2 dt.

    Under a declared constant diffusion (DA(l >= 1) is None) the (1, m, n)
    right inverse is computed once per block and broadcast.  A constant
    direction keeps hdot, h and the energy as one row, broadcast to every
    path in ``finish``.  Each entry is the same product either way.
    """

    reads_jac = True

    def __init__(self, h: CameronMartinPath, run: int = 0, name: str = "div"):
        self.h, self.run, self.name = h, run, name

    def start(self, B):
        self.B, self.w, self.y = B, np.zeros(B), None
        if self.h.vec is None:
            self.hval, self.energy = None, np.zeros(B)
        else:
            self.hval, self.energy = np.zeros((1, len(self.h.vec))), np.zeros(1)

    def _right_inverse(self, A, DA, xi):
        """Y at xi; a declared constant diffusion (DA(1) is None) is inverted
        once per block, at the origin, where it was evaluated."""
        if DA[1] is not None:
            return _located_right_inverse(np.stack(A[1:], axis=-1), xi)
        if self.y is None:
            origin = np.zeros((1, xi.shape[1]))
            self.y = _located_right_inverse(np.stack(A[1:], axis=-1), origin)
        return self.y

    def step(self, k, xis, Vs, dWk, dt, coefs):
        if dWk is None:
            return
        xi, V = xis[self.run], Vs[self.run]
        if self.hval is None:
            self.hval = np.zeros_like(xi)
        hdot = (self.h.vec[None, :] if self.h.vec is not None
                else np.asarray(self.h.rate(k, xi), dtype=float))
        y = self._right_inverse(*coefs[self.run], xi)
        vd = _mm(V, hdot[:, :, None])[:, :, 0]
        proj = _mm(y, vd[:, :, None])[:, :, 0]
        self.w += np.sum(proj * dWk, axis=1)
        self.hval = self.hval + hdot * dt
        self.energy += np.sum(hdot * hdot, axis=1) * dt

    def finish(self):
        n = self.hval.shape[1]
        return {
            f"{self.name}_weight": self.w,
            f"{self.name}_h_T": np.broadcast_to(self.hval, (self.B, n)),
            f"{self.name}_energy": np.broadcast_to(self.energy, (self.B,)),
        }


class _DirectionRecorder(Tracker):
    """Record the direction path s -> V_s h_s for full-path functionals."""

    reads_jac = True

    def __init__(self, h: CameronMartinPath, run: int = 0, name: str = "dir"):
        self.h, self.run, self.name = h, run, name

    def start(self, B):
        self.hval, self.frames = None, []

    def step(self, k, xis, Vs, dWk, dt, coefs):
        xi, V = xis[self.run], Vs[self.run]
        if self.hval is None:
            self.hval = np.zeros_like(xi)
        self.frames.append(_mm(V, self.hval[:, :, None])[:, :, 0])
        if dWk is not None:
            self.hval = self.hval + np.asarray(self.h.rate(k, xi), dtype=float) * dt

    def finish(self):
        return {self.name: np.stack(self.frames, axis=1)}  # (B, K+1, n)


# ---------------------------------------------------------------------------
# gradient estimators


def bismut_gradient(f: Callable, x, v0, t: float, cfg: MCConfig) -> EstimatorReport:
    """Weighted gradient estimate (1/t) E[f(xi_t) int <Y V v0, dW>].

    The Bismut weight int <Y V v0, dW> is the divergence weight of the
    direction with constant rate hdot = v0.  Valid for bounded measurable
    f; no derivative of f is used.
    """
    v0 = _checked_vector(v0, "v0", cfg.fields.n)
    grid = cfg.grid_for(t)
    noise = cfg.noise_for(grid)
    res = run_ensemble(cfg.fields, x, grid, noise,
                       trackers=(DivergenceWeight(CameronMartinPath.constant(v0)),),
                       workers=cfg.workers)
    ok = res.ok
    fx = np.asarray(f(res.state_T[ok]), dtype=float).reshape(-1)
    vals = fx * res.extras["div_weight"][ok] / t
    return from_samples(vals, config_hash=cfg.config_hash, excluded=res.n_flagged)


def intertwine_gradient(df: Callable, x, v0, t: float, cfg: MCConfig) -> EstimatorReport:
    """Intertwining estimate E[df(xi_t) . (V_t v0)] for C^1 test functions."""
    v0 = _checked_vector(v0, "v0", cfg.fields.n)
    grid = cfg.grid_for(t)
    noise = cfg.noise_for(grid)
    res = run_ensemble(cfg.fields, x, grid, noise, workers=cfg.workers)
    ok = res.ok
    direction = np.einsum("bij,j->bi", res.jac_T[ok], v0)
    grads = np.asarray(df(res.state_T[ok]), dtype=float).reshape(direction.shape)
    vals = np.sum(grads * direction, axis=1)
    return from_samples(vals, config_hash=cfg.config_hash, excluded=res.n_flagged)


def fd_gradient(f: Callable, x, v0, t: float, h: float, cfg: MCConfig) -> EstimatorReport:
    """Central finite difference of P_t f with common random numbers."""
    if h <= 0:
        raise FieldError("fd_gradient: bump size must be positive")
    v0 = _checked_vector(v0, "v0", cfg.fields.n)
    grid = cfg.grid_for(t)
    noise = cfg.noise_for(grid)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    runs = [(cfg.fields, x + h * v0), (cfg.fields, x - h * v0)]
    results, _ = run_multi(runs, grid, noise, with_jac=False, workers=cfg.workers)
    ok = results[0].ok
    fp = np.asarray(f(results[0].state_T[ok]), dtype=float).reshape(-1)
    fm = np.asarray(f(results[1].state_T[ok]), dtype=float).reshape(-1)
    vals = (fp - fm) / (2.0 * h)
    return from_samples(vals, config_hash=cfg.config_hash,
                        excluded=results[0].n_flagged)


# ---------------------------------------------------------------------------
# divergence and integration by parts


def divergence(h: CameronMartinPath, fs, x0, grid: TimeGrid, noise: BrownianBatch, *,
               workers: Optional[int] = None) -> np.ndarray:
    """Per-path left-point Ito sums of <Y(xi_k) V_k hdot_k, dW_k>: the
    DivergenceWeight of an ensemble of fs started at x0 on the given noise."""
    _check_direction(h, fs.n)
    res = run_ensemble(fs, x0, grid, noise, trackers=(DivergenceWeight(h),),
                       workers=workers)
    return res.extras["div_weight"]


@dataclass(frozen=True)
class IbpResult:
    lhs: EstimatorReport
    rhs: EstimatorReport
    gap: float
    se_pooled: float
    se_paired: float

    @property
    def ok(self) -> bool:
        # lhs and rhs come from the same paths, so the paired SE is the
        # standard error of their difference
        return self.gap <= 3.0 * self.se_paired + 1e-12


def ibp_check(F: Callable, dF: Callable, h: CameronMartinPath, cfg: MCConfig,
              *, t: float, x=0.0, full_path: bool = False) -> IbpResult:
    """Test E[dF(V^h)] = E[F(xi) delta V^h_T] on the discrete flow.

    Endpoint mode (default): F maps terminal states (B, n) -> (B,), and dF
    maps (terminal state, terminal direction V_T h_T) -> (B,).  With
    ``full_path=True`` the functionals receive (times, states (B, K+1, n))
    and (times, states, direction path) instead.
    """
    _check_direction(h, cfg.fields.n)
    grid = cfg.grid_for(t)
    noise = cfg.noise_for(grid)
    trackers = [DivergenceWeight(h)]
    if full_path:
        trackers.append(_DirectionRecorder(h))
        trackers.append(PathRecorder(with_jac=False))
    res = run_ensemble(cfg.fields, np.atleast_1d(np.asarray(x, dtype=float)),
                       grid, noise, trackers=trackers, workers=cfg.workers)
    ok = res.ok
    delta = res.extras["div_weight"][ok]
    if full_path:
        times = grid.times()
        states = res.extras["paths_states"][ok]
        direction = res.extras["dir"][ok]
        lhs_vals = np.asarray(dF(times, states, direction), dtype=float).reshape(-1)
        f_vals = np.asarray(F(times, states), dtype=float).reshape(-1)
    else:
        xT = res.state_T[ok]
        vh_T = np.einsum("bij,bj->bi", res.jac_T[ok], res.extras["div_h_T"][ok])
        lhs_vals = np.asarray(dF(xT, vh_T), dtype=float).reshape(-1)
        f_vals = np.asarray(F(xT), dtype=float).reshape(-1)
    rhs_vals = f_vals * delta
    lhs = from_samples(lhs_vals, config_hash=cfg.config_hash, excluded=res.n_flagged)
    rhs = from_samples(rhs_vals, config_hash=cfg.config_hash, excluded=res.n_flagged)
    gap = abs(lhs.estimate - rhs.estimate)
    se_pooled = math.hypot(lhs.se, rhs.se)
    diff = lhs_vals - rhs_vals
    se_paired = float(diff.std(ddof=1) / math.sqrt(diff.size))
    return IbpResult(lhs, rhs, gap, se_pooled, se_paired)
