"""Semigroup-gradient estimators and the path-space integration by parts.

Three routes to the derivative of the Markov semigroup P_t f are provided:
a weighted estimator that needs only f itself (the weight is an Ito
integral of the right inverse of the diffusion applied to the derivative
flow), the intertwining estimator for differentiable f, and a common
random number finite difference used as a cross-validation oracle.
``gradient_routes`` takes all three from one lockstep run, whose arrays
``bismut_gradient``, ``intertwine_gradient`` and ``fd_gradient`` reduce;
they run no engine.  Only the run from x0, whose V the divergence weight
reads, carries V (see the tracker protocol in ``flow``); the
finite-difference partners x0 +/- bump v0 are state runs.

``gradient_routes``, ``divergence`` and ``ibp_check`` take their functionals
or direction, then the engine's inputs ``(fs, x0, noise)`` and keyword
``workers``, as ``run_ensemble`` does; the horizon is ``noise.grid.T``.

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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .flow import BrownianBatch, PathRecorder, Tracker, mm, run_ensemble, run_multi, unflagged
from .inputs import POSITIVE, FieldError, read, vector
from .report import EstimatorReport, from_samples

__all__ = [
    "RightInverseError",
    "right_inverse",
    "CameronMartinPath",
    "gradient_routes",
    "divergence",
    "ibp_check",
    "IbpResult",
    "DivergenceWeight",
]


class RightInverseError(FieldError):
    """The diffusion matrix could not be inverted to the required residual."""


_RESIDUAL_TOL = 1e-10


def _above_tol(amat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows whose residual |A Y - I|, a Frobenius norm, is above 1e-10."""
    res = amat @ y - np.eye(amat.shape[-2])
    return np.sqrt(np.sum(res * res, axis=(-2, -1))) > _RESIDUAL_TOL


def right_inverse(amat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Minimum-norm right inverse Y = A^T (A A^T)^{-1}, shape (B, m, n), of
    the diffusion matrices amat (B, n, m) taken at the points pts (B, n).

    A 1x1 diffusion is inverted as 1/a.  A Gram inverse that leaves a row's
    residual |A Y - I| above 1e-10 gets one Newton refinement on those rows.
    A row still above it, a zero or subnormal 1x1 diffusion, or a singular
    Gram matrix raises, naming the point with the smallest eigenvalue of
    A A^T and that eigenvalue.  A NaN row (a flagged path) stays NaN and is
    never the point named.
    """
    if amat.shape[-2:] == (1, 1):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            y = 1.0 / amat
            # a == 0, or a subnormal a, overflows 1/a to inf
            singular = np.any(np.isinf(y) | (np.abs(amat * y - 1.0) > _RESIDUAL_TOL))
    else:
        at = np.swapaxes(amat, -1, -2)
        gram = amat @ at
        try:
            inv = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            singular = True
        else:
            y = at @ inv
            bad = _above_tol(amat, y)
            if np.any(bad):
                # one Newton refinement of the Gram inverse on the offending rows
                ref = inv[bad] @ (2.0 * np.eye(amat.shape[-2]) - gram[bad] @ inv[bad])
                y[bad] = at[bad] @ ref
                bad = _above_tol(amat[bad], y[bad])
            singular = np.any(bad)
    if singular:
        eigs = np.linalg.eigvalsh(amat @ np.swapaxes(amat, -1, -2))
        # a NaN row is a flagged path, which passes through; name a singular one
        i = int(np.argmin(np.where(np.isnan(eigs[:, 0]), np.inf, eigs[:, 0])))
        raise RightInverseError(
            f"diffusion matrix singular at {pts[i]}: min eigenvalue {eigs[i, 0]:.3e}")
    return y


@dataclass(frozen=True)
class CameronMartinPath:
    """An adapted direction with square-integrable time derivative.

    ``rate(k, state)`` returns hdot at step k given the state at the left
    endpoint of the step, so the evaluator can only ever see the past;
    adaptedness holds by construction rather than by a runtime check.  It
    returns one row per path, or one (1, n) row that every path shares.
    An estimator checks ``rate(0, x0[None])`` before any noise (`_check_direction`).
    """

    rate: Callable[[int, np.ndarray], np.ndarray]

    @staticmethod
    def constant(vec) -> "CameronMartinPath":
        """The direction whose rate is vec, as one (1, n) row at every step.
        Its entries are read here by the vector rule, so a FieldError names
        ``direction h``; its width is checked against n by `_check_direction`."""
        row = vector(vec, "direction h", None).reshape(1, -1)

        def rate(k, state):
            return row

        return CameronMartinPath(rate)


def _check_direction(h: CameronMartinPath, fs, x0) -> None:
    """h's rate at step 0 from x0 must be one row of n finite entries; a
    FieldError names ``direction h`` otherwise.  x0 is checked first."""
    x0 = vector(x0, "start point x0", fs.n)
    row = np.asarray(h.rate(0, x0[None]))
    if row.ndim != 2 or len(row) != 1:
        raise FieldError(f"direction h: rate(0, x0) must be one (1, {fs.n}) row, "
                         f"got shape {row.shape}")
    vector(row, "direction h", fs.n)


# ---------------------------------------------------------------------------
# trackers (plug into the flow engine)


class DivergenceWeight(Tracker):
    """Divergence of a Cameron-Martin direction along the flow.

    Accumulates the Ito sum <Y(xi_k) V_k hdot_k, dW_k> and the direction
    h_k = sum_{j<k} hdot_j dt.

    Under a declared constant diffusion (DA(l >= 1) is None) the (1, m, n)
    right inverse is computed once per row slice and broadcast.  h starts
    as one zero row and stays one row while every hdot is: a constant
    direction's rate is its one (1, n) row.  ``finish`` broadcasts h to every path.
    Each entry is the same product either way.
    """

    reads_jac = True
    prefix, suffixes = "div", ("_weight", "_h_T")

    def __init__(self, h: CameronMartinPath, run: int = 0):
        self.h, self.run = h, run

    def start(self, B):
        self.B, self.w, self.y = B, np.zeros(B), None

    def _right_inverse(self, A, DA, xi):
        """Y at xi; a declared constant diffusion (DA(1) is None) is inverted
        once per row slice, at the origin, where it was evaluated.  The
        call goes through the module name with both arguments positional, so
        a wrapper installed on ``malliavin.right_inverse`` sees every
        inversion."""
        if DA[1] is not None:
            return right_inverse(np.stack(A[1:], axis=-1), xi)
        if self.y is None:
            origin = np.zeros((1, xi.shape[1]))
            self.y = right_inverse(np.stack(A[1:], axis=-1), origin)
        return self.y

    def step(self, k, xis, Vs, dWk, dt, coefs):
        if dWk is None:
            return
        xi, V = xis[self.run], Vs[self.run]
        if k == 0:
            self.hval = np.zeros((1, xi.shape[1]))
        hdot = np.asarray(self.h.rate(k, xi), dtype=float)
        y = self._right_inverse(*coefs[self.run], xi)
        vd = mm(V, hdot[:, :, None])[:, :, 0]
        proj = mm(y, vd[:, :, None])[:, :, 0]
        # a sum over one noise is +0 plus its one product, and w, which
        # starts at +0, is never -0, so adding the product alone is the
        # same bytes
        self.w += proj[:, 0] * dWk[:, 0] if dWk.shape[1] == 1 else np.sum(proj * dWk, axis=1)
        self.hval = self.hval + hdot * dt

    def finish(self):
        h_T = np.broadcast_to(self.hval, (self.B, self.hval.shape[1]))
        return dict(zip(self.keys(), (self.w, h_T)))


class _DirectionRecorder(Tracker):
    """Record the direction path s -> V_s h_s for full-path functionals;
    ``finish`` broadcasts a frame that is one row, as V and h can be."""

    reads_jac = True
    prefix = "dir"

    def __init__(self, h: CameronMartinPath, run: int = 0):
        self.h, self.run = h, run

    def start(self, B):
        self.B, self.frames = B, []

    def step(self, k, xis, Vs, dWk, dt, coefs):
        xi, V = xis[self.run], Vs[self.run]
        if k == 0:
            self.hval = np.zeros((1, xi.shape[1]))
        self.frames.append(mm(V, self.hval[:, :, None])[:, :, 0])
        if dWk is not None:
            self.hval = self.hval + np.asarray(self.h.rate(k, xi), dtype=float) * dt

    def finish(self):
        frames = [np.broadcast_to(f, (self.B, f.shape[1])) for f in self.frames]
        return dict(zip(self.keys(), (np.stack(frames, axis=1),)))  # (B, K+1, n)


# ---------------------------------------------------------------------------
# gradient estimators


def gradient_routes(f: Callable, df: Optional[Callable], v0, fs, x0, noise: BrownianBatch, *,
                    bump: float, workers: int = 1) -> dict:
    """The three routes to the derivative of P_T f at x0 along v0 (T is
    noise.grid.T), from one lockstep run of fs from x0 and x0 +/- bump v0.

    Returns the reports ``bismut`` and ``fd``, and ``intertwine`` when df is
    given.  A path flagged in any of the three runs leaves every route and
    counts in each report's ``excluded``.
    """
    v0 = vector(v0, "direction v0", fs.n)
    x0 = vector(x0, "start point x0", fs.n)
    bump = read("bump", bump, POSITIVE)
    runs = [(fs, x0), (fs, x0 + bump * v0), (fs, x0 - bump * v0)]
    (res, plus, minus), extras = run_multi(
        runs, noise, trackers=(DivergenceWeight(CameronMartinPath.constant(v0)),),
        workers=workers)
    excluded, kept = res.n_flagged, partial(unflagged, flag=res.flag)
    states = kept(res.state_T)
    # each route goes through its module name, which bench/tracer.py hooks
    reports = {"bismut": bismut_gradient(f, states, kept(extras["div_weight"]), noise.grid.T,
                                         excluded),
               "fd": fd_gradient(f, kept(plus.state_T), kept(minus.state_T), bump, excluded)}
    if df is not None:
        direction = np.einsum("bij,j->bi", kept(res.jac_T), v0)
        reports["intertwine"] = intertwine_gradient(df, states, direction, excluded)
    return reports


def bismut_gradient(f: Callable, states, weight, T: float, excluded: int) -> EstimatorReport:
    """(1/T) E[f(xi_T) int <Y V v0, dW>] for bounded measurable f; uses no df."""
    fx = np.asarray(f(states), dtype=float).reshape(-1)
    return from_samples(fx * weight / T, excluded=excluded)


def intertwine_gradient(df: Callable, states, direction, excluded: int) -> EstimatorReport:
    """E[df(xi_T) . direction], the direction V_T v0, for C^1 f."""
    grads = np.asarray(df(states), dtype=float).reshape(direction.shape)
    return from_samples(np.sum(grads * direction, axis=1), excluded=excluded)


def fd_gradient(f: Callable, plus, minus, bump: float, excluded: int) -> EstimatorReport:
    """E[f(plus) - f(minus)] / (2 bump) of states run from x0 +/- bump v0."""
    fp = np.asarray(f(plus), dtype=float).reshape(-1)
    fm = np.asarray(f(minus), dtype=float).reshape(-1)
    return from_samples((fp - fm) / (2.0 * bump), excluded=excluded)


# ---------------------------------------------------------------------------
# divergence and integration by parts


def divergence(h: CameronMartinPath, fs, x0, noise: BrownianBatch, *,
               workers: int = 1) -> np.ndarray:
    """Per-path left-point Ito sums of <Y(xi_k) V_k hdot_k, dW_k>: the
    DivergenceWeight of an ensemble of fs started at x0 on the given noise."""
    _check_direction(h, fs, x0)
    res = run_ensemble(fs, x0, noise, trackers=(DivergenceWeight(h),), workers=workers)
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
        # standard error of their difference; a gap that is not finite fails
        return math.isfinite(self.gap) and self.gap <= 3.0 * self.se_paired + 1e-12


def ibp_check(F: Callable, dF: Callable, h: CameronMartinPath, fs, x0,
              noise: BrownianBatch, *, full_path: bool = False,
              workers: int = 1) -> IbpResult:
    """Test E[dF(V^h)] = E[F(xi) delta V^h_T] on the discrete flow.

    Endpoint mode (default): F maps terminal states (B, n) -> (B,), and dF
    maps (terminal state, terminal direction V_T h_T) -> (B,).  With
    ``full_path=True`` the functionals receive (times, states (B, K+1, n))
    and (times, states, direction path) instead.
    """
    _check_direction(h, fs, x0)
    trackers = [DivergenceWeight(h)]
    if full_path:
        trackers.append(_DirectionRecorder(h))
        trackers.append(PathRecorder(with_jac=False))
    res = run_ensemble(fs, x0, noise, trackers=trackers, workers=workers)
    kept = partial(unflagged, flag=res.flag)
    delta = kept(res.extras["div_weight"])
    if full_path:
        times = noise.grid.times()
        states = kept(res.extras["paths_states"])
        direction = kept(res.extras["dir"])
        lhs_vals = np.asarray(dF(times, states, direction), dtype=float).reshape(-1)
        f_vals = np.asarray(F(times, states), dtype=float).reshape(-1)
    else:
        xT = kept(res.state_T)
        vh_T = np.einsum("bij,bj->bi", kept(res.jac_T), kept(res.extras["div_h_T"]))
        lhs_vals = np.asarray(dF(xT, vh_T), dtype=float).reshape(-1)
        f_vals = np.asarray(F(xT), dtype=float).reshape(-1)
    rhs_vals = f_vals * delta
    lhs = from_samples(lhs_vals, excluded=res.n_flagged)
    rhs = from_samples(rhs_vals, excluded=res.n_flagged)
    gap = abs(lhs.estimate - rhs.estimate)
    se_pooled = math.hypot(lhs.se, rhs.se)
    se_paired = from_samples(lhs_vals - rhs_vals).se
    return IbpResult(lhs, rhs, gap, se_pooled, se_paired)
