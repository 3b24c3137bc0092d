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
right inverse applied to V_s hdot_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import FieldError
from .flow import (BrownianBatch, FlowPath, PathRecorder, TimeGrid, Tracker,
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
    "GradientWeight",
    "DivergenceWeight",
]


class RightInverseError(FieldError):
    """The diffusion matrix could not be inverted to the required residual."""


_RESIDUAL_TOL = 1e-10


def _batched_right_inverse(amat: np.ndarray) -> np.ndarray:
    """Minimum-norm right inverse A^T (A A^T)^{-1} for stacked (B, n, m)."""
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


def right_inverse(fs, x) -> np.ndarray:
    """Right inverse Y(x) of the diffusion map, shape (..., m, n).

    Requires ellipticity at x; a singular point raises with the point and
    the smallest eigenvalue named.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_2d(x)
    amat = np.asarray(fs.diffusion_matrix(pts))          # (B, n, m)
    try:
        y = _batched_right_inverse(amat)
    except RightInverseError:
        # identify the offending point for the error message
        gram = amat @ np.swapaxes(amat, -1, -2)
        eigs = np.linalg.eigvalsh(gram)
        i = int(np.argmin(eigs[:, 0]))
        raise RightInverseError(
            f"diffusion matrix singular at {pts[i]}: min eigenvalue {eigs[i, 0]:.3e}"
        ) from None
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
    """

    rate: Callable[[int, np.ndarray], np.ndarray]

    @staticmethod
    def constant(vec) -> "CameronMartinPath":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))

        def rate(k, state):
            return np.broadcast_to(vec, state.shape)

        return CameronMartinPath(rate)


# ---------------------------------------------------------------------------
# trackers (plug into the flow engine)


class GradientWeight(Tracker):
    """Ito sum over steps of <Y(xi_k) V_k v0, dW_k> for a constant direction."""

    def __init__(self, fields, v0, run: int = 0, name: str = "weight"):
        self.fields, self.run, self.name = fields, run, name
        self.v0 = np.atleast_1d(np.asarray(v0, dtype=float))

    def start(self, B):
        self.w = np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt):
        if dWk is None:
            return
        xi, V = xis[self.run], Vs[self.run]
        y = right_inverse(self.fields, xi)                # (B, m, n)
        vd = V @ self.v0                                  # (B, n)
        proj = (y @ vd[:, :, None])[:, :, 0]              # (B, m)
        self.w += np.sum(proj * dWk, axis=1)

    def finish(self):
        return {self.name: self.w}


class DivergenceWeight(Tracker):
    """Divergence of a Cameron-Martin direction along the flow.

    Accumulates the Ito sum <Y(xi_k) V_k hdot_k, dW_k>, the direction
    h_k = sum_{j<k} hdot_j dt, and the energy int |hdot|^2 dt.
    """

    def __init__(self, fields, h: CameronMartinPath, run: int = 0, name: str = "div"):
        self.fields, self.h, self.run, self.name = fields, h, run, name

    def start(self, B):
        self.w, self.hval, self.energy = np.zeros(B), None, np.zeros(B)

    def step(self, k, xis, Vs, dWk, dt):
        if dWk is None:
            return
        xi, V = xis[self.run], Vs[self.run]
        if self.hval is None:
            self.hval = np.zeros_like(xi)
        hdot = np.asarray(self.h.rate(k, xi), dtype=float)
        y = right_inverse(self.fields, xi)
        vd = (V @ hdot[:, :, None])[:, :, 0]
        proj = (y @ vd[:, :, None])[:, :, 0]
        self.w += np.sum(proj * dWk, axis=1)
        self.hval = self.hval + hdot * dt
        self.energy += np.sum(hdot * hdot, axis=1) * dt

    def finish(self):
        return {
            f"{self.name}_weight": self.w,
            f"{self.name}_h_T": self.hval,
            f"{self.name}_energy": self.energy,
        }


class _DirectionRecorder(Tracker):
    """Record the direction path s -> V_s h_s for full-path functionals."""

    def __init__(self, fields, h: CameronMartinPath, run: int = 0, name: str = "dir"):
        self.fields, self.h, self.run, self.name = fields, h, run, name

    def start(self, B):
        self.hval, self.frames = None, []

    def step(self, k, xis, Vs, dWk, dt):
        xi, V = xis[self.run], Vs[self.run]
        if self.hval is None:
            self.hval = np.zeros_like(xi)
        self.frames.append((V @ self.hval[:, :, None])[:, :, 0])
        if dWk is not None:
            self.hval = self.hval + np.asarray(self.h.rate(k, xi), dtype=float) * dt

    def finish(self):
        return {self.name: np.stack(self.frames, axis=1)}  # (B, K+1, n)


# ---------------------------------------------------------------------------
# gradient estimators


def bismut_gradient(f: Callable, x, v0, t: float, cfg: MCConfig) -> EstimatorReport:
    """Weighted gradient estimate (1/t) E[f(xi_t) int <Y V v0, dW>].

    Valid for bounded measurable f; no derivative of f is used.
    """
    grid = cfg.grid_for(t)
    noise = cfg.noise_for(grid)
    res = run_ensemble(cfg.fields, x, grid, noise,
                       trackers=(GradientWeight(cfg.fields, v0),),
                       workers=cfg.workers)
    ok = res.ok
    fx = np.asarray(f(res.state_T[ok]), dtype=float).reshape(-1)
    vals = fx * res.extras["weight"][ok] / t
    return from_samples(vals, config_hash=cfg.config_hash, excluded=res.n_flagged)


def intertwine_gradient(df: Callable, x, v0, t: float, cfg: MCConfig) -> EstimatorReport:
    """Intertwining estimate E[df(xi_t) . (V_t v0)] for C^1 test functions."""
    grid = cfg.grid_for(t)
    noise = cfg.noise_for(grid)
    res = run_ensemble(cfg.fields, x, grid, noise, workers=cfg.workers)
    ok = res.ok
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    direction = np.einsum("bij,j->bi", res.jac_T[ok], v0)
    grads = np.asarray(df(res.state_T[ok]), dtype=float).reshape(direction.shape)
    vals = np.sum(grads * direction, axis=1)
    return from_samples(vals, config_hash=cfg.config_hash, excluded=res.n_flagged)


def fd_gradient(f: Callable, x, v0, t: float, h: float, cfg: MCConfig) -> EstimatorReport:
    """Central finite difference of P_t f with common random numbers."""
    if h <= 0:
        raise FieldError("fd_gradient: bump size must be positive")
    grid = cfg.grid_for(t)
    noise = cfg.noise_for(grid)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
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


def divergence(h: CameronMartinPath, path: FlowPath, fs) -> float:
    """Left-point Ito sum of <Y(xi_k) V_k hdot_k, dW_k> along one path."""
    dW = path.noise.increments(path.path_index)
    dt = path.grid.dt
    total = 0.0
    for k in range(path.grid.steps):
        xi = path.states[k][None, :]
        hdot = np.asarray(h.rate(k, xi), dtype=float).reshape(-1)
        y = right_inverse(fs, path.states[k])             # (m, n)
        vd = path.jacs[k] @ hdot
        total += float((y @ vd) @ dW[k])
    return total


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
    grid = cfg.grid_for(t)
    noise = cfg.noise_for(grid)
    trackers = [DivergenceWeight(cfg.fields, h)]
    if full_path:
        trackers.append(_DirectionRecorder(cfg.fields, h))
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
