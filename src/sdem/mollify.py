"""Smoothing of coefficient families by convolution with a compactly
supported bump kernel, evaluated by numerical quadrature.

The kernel is the classical unit-mass bump supported on the unit ball,
rescaled to radius eps.  Convolution weights are normalized to unit mass,
which keeps the mass error at rounding level so that empirical Hoelder
constants never increase, independent of quadrature resolution.

Rounded weights need not sum to exactly one, so the quadrature is taken
relative to a reference node r, the node with the largest weight:

    f_eps(x) = f(x - o_r) + sum_i w_i (f(x - o_i) - f(x - o_r)).

Every difference vanishes for a constant f, so constants mollify to
themselves bit for bit, whatever the BLAS build, batch size or thread
count.  The kernel-gradient route sums gw_i (f(x - o_i) - f(x - o_r)) in
the same way, which is exactly zero on constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
from scipy import integrate

from .fields import FieldMeta, VectorFieldSet, FieldError, _as_batch

__all__ = [
    "QuadratureError",
    "QuadSpec",
    "mollifier_constant",
    "eta",
    "eta_grad",
    "MollifiedFieldSet",
    "mollify_field",
    "mollify_scalar",
    "sup_error",
]


class QuadratureError(RuntimeError):
    """Quadrature failed to converge under refinement."""


@lru_cache(maxsize=8)
def mollifier_constant(n: int) -> float:
    """Normalizing constant making the bump kernel integrate to one on R^n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    # radial reduction: integral = S_{n-1} * int_0^1 r^{n-1} exp(1/(r^2-1)) dr
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    val, _ = integrate.quad(lambda r: r ** (n - 1) * math.exp(1.0 / (r * r - 1.0)), 0.0, 1.0)
    return 1.0 / (surface * val)


def eta(x) -> np.ndarray | float:
    """The unit-mass bump kernel on R^n, vanishing outside the unit ball."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_2d(x)
    n = pts.shape[-1]
    c = mollifier_constant(n)
    r2 = np.sum(pts * pts, axis=-1)
    inside = r2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.where(inside, c * np.exp(1.0 / np.where(inside, r2 - 1.0, -1.0)), 0.0)
    return float(vals[0]) if single else vals.reshape(x.shape[:-1])


def eta_grad(x) -> np.ndarray:
    """Analytic gradient of the bump kernel (zero outside the unit ball)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = np.atleast_2d(x)
    r2 = np.sum(pts * pts, axis=-1)
    inside = r2 < 1.0
    denom = np.where(inside, r2 - 1.0, -1.0)
    with np.errstate(divide="ignore", over="ignore"):
        base = np.where(inside, np.exp(1.0 / denom), 0.0)
    c = mollifier_constant(pts.shape[-1])
    grad = (-2.0 * c) * base[..., None] * pts / (denom ** 2)[..., None]
    return grad[0] if single else grad.reshape(x.shape)


@dataclass(frozen=True)
class QuadSpec:
    """Tensor-product quadrature over the bounding box [-eps, eps]^n."""

    nodes_per_axis: int = 16
    rule: str = "gauss"   # gauss | midpoint

    def axis_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on [-1, 1] for one axis."""
        if self.rule == "gauss":
            return np.polynomial.legendre.leggauss(self.nodes_per_axis)
        if self.rule == "midpoint":
            k = self.nodes_per_axis
            h = 2.0 / k
            return -1.0 + (np.arange(k) + 0.5) * h, np.full(k, h)
        raise FieldError(f"unknown quadrature rule {self.rule!r}")


@lru_cache(maxsize=64)
def _tensor_nodes(n: int, eps: float, quad: QuadSpec):
    """Scaled tensor grid and the normalized kernel weights on it.

    Returns (offsets (Q, n), kernel weights summing to 1, raw product
    weights (Q,) including the volume element but not the kernel).  The
    returned arrays are cached and must be treated as read-only.
    """
    z, w = quad.axis_nodes()
    axes = [z] * n
    grid = np.array(list(itertools.product(*axes)))          # (Q, n) in [-1,1]^n
    wgrid = np.prod(np.array(list(itertools.product(*([w] * n)))), axis=1)
    offsets = eps * grid
    raw = wgrid * eps ** n                                    # volume element
    kernel_vals = eta(grid) / eps ** n                        # eta_eps(offsets)
    kw = raw * kernel_vals
    total = kw.sum()
    if not (0.9 < total < 1.1):
        raise QuadratureError(
            f"kernel quadrature mass {total:.4f} is far from 1; refine the rule"
        )
    return offsets, kw / total, raw


@lru_cache(maxsize=64)
def _kernel_nodes(n: int, eps: float, quad: QuadSpec):
    """Offsets with nonzero kernel weight, those weights (sum 1) and the
    index of the reference node, the one with the largest weight."""
    offsets, kw, _ = _tensor_nodes(n, eps, quad)
    keep = kw != 0.0
    return offsets[keep], kw[keep], int(np.argmax(kw[keep]))


@dataclass(frozen=True)
class MollifiedFieldSet:
    """An eps-smoothed view of a coefficient family.

    ``A(l, x)`` is the convolution of the base field with the scaled bump
    kernel, evaluated by quadrature.  ``DA(l, x)`` smooths the supplied
    weak derivative when the base has one, and otherwise differentiates
    the kernel analytically.
    """

    base: VectorFieldSet
    eps: float
    quad: QuadSpec = field(default_factory=QuadSpec)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def meta(self) -> FieldMeta:
        return self.base.meta

    @property
    def name(self) -> str:
        return f"{self.base.name}|eps={self.eps}"

    @property
    def zero_drift(self) -> bool:
        """The base's declaration; the reference-node rule mollifies 0 to 0."""
        return self.base.zero_drift

    @property
    def constant_diffusion(self) -> bool:
        """The base's declaration; constants mollify exactly to themselves,
        and their derivatives to exactly 0, by the same rule."""
        return self.base.constant_diffusion

    @property
    def has_weak_derivative(self) -> bool:
        return True

    def require_dfield(self):
        return None

    @cached_property
    def _grad_nodes(self):
        """Offsets and weights for the kernel-gradient route, (Q, n) each,
        and the reference node, the one nearest the centre."""
        offsets, _, raw = _tensor_nodes(self.n, self.eps, self.quad)
        gvals = eta_grad(offsets / self.eps) / self.eps ** (self.n + 1)
        keep = np.any(gvals != 0.0, axis=-1)
        offsets = offsets[keep]
        ref = int(np.argmin(np.sum(offsets * offsets, axis=-1)))
        return offsets, raw[keep, None] * gvals[keep], ref

    def _shifted(self, pts, offsets):
        # (Q*N, n) stack of pts - offset_q, one base-field call for all nodes
        return (pts[None, :, :] - offsets[:, None, :]).reshape(-1, self.n)

    def A(self, l: int, x) -> np.ndarray:
        pts, single = _as_batch(np.asarray(x, dtype=float), self.n)
        offsets, kw, r = _kernel_nodes(self.n, self.eps, self.quad)
        vals = np.asarray(self.base.A(l, self._shifted(pts, offsets)))
        vals = vals.reshape(len(offsets), pts.shape[0], self.n)
        acc = vals[r] + np.tensordot(kw, vals - vals[r], axes=1)
        return acc[0] if single else acc.reshape(np.asarray(x).shape)

    def DA(self, l: int, x) -> np.ndarray:
        pts, single = _as_batch(np.asarray(x, dtype=float), self.n)
        n = self.n
        if self.base.DA is not None:
            offsets, kw, r = _kernel_nodes(self.n, self.eps, self.quad)
            vals = self.base.DA(l, self._shifted(pts, offsets))
            vals = np.asarray(vals).reshape(len(offsets), pts.shape[0], n, n)
            acc = vals[r] + np.tensordot(kw, vals - vals[r], axes=1)
        else:
            # D(eta_eps * f) = (D eta_eps) * f with the analytic kernel gradient;
            # the gradient weights sum to zero up to rounding, so subtracting f
            # at the reference node changes only rounding and makes constants
            # give exactly 0.
            offsets, gw, r = self._grad_nodes
            vals = np.asarray(self.base.A(l, self._shifted(pts, offsets)))
            vals = vals.reshape(len(offsets), pts.shape[0], n)
            acc = np.tensordot(vals - vals[r], gw, axes=([0], [0]))
        return acc[0] if single else acc.reshape(np.asarray(x).shape[:-1] + (n, n))

    diffusion_matrix = VectorFieldSet.diffusion_matrix

    def cross_check(self, x, l: int = 1) -> float:
        """Disagreement between this rule and one with doubled resolution."""
        finer = MollifiedFieldSet(self.base, self.eps,
                                  QuadSpec(2 * self.quad.nodes_per_axis, self.quad.rule))
        a = np.atleast_2d(self.A(l, x))
        b = np.atleast_2d(finer.A(l, x))
        return float(np.max(np.abs(a - b)))


def mollify_field(fs: VectorFieldSet, eps: float, quad: Optional[QuadSpec] = None,
                  validate_at=None, tolerance: float = 1e-3) -> MollifiedFieldSet:
    """Smooth a coefficient family at scale eps.

    ``validate_at``: optional points at which a refinement cross-check is
    run; disagreement beyond ``tolerance`` raises QuadratureError.
    """
    if eps <= 0:
        raise FieldError("mollify_field: eps must be positive")
    quad = quad or QuadSpec()
    if quad.nodes_per_axis < 8:
        raise FieldError("mollify_field: need at least 8 quadrature nodes per axis")
    mf = MollifiedFieldSet(fs, eps, quad)
    _tensor_nodes(fs.n, eps, quad)     # the mass sanity check, at construction
    if validate_at is not None:
        for l in range(fs.m + 1):
            gap = mf.cross_check(validate_at, l)
            if gap > tolerance:
                raise QuadratureError(
                    f"refinement disagreement {gap:.3e} > {tolerance:.1e} for field {l}"
                )
    return mf


def mollify_scalar(f: Callable[[np.ndarray], np.ndarray], eps: float,
                   n: int = 1, quad: Optional[QuadSpec] = None) -> Callable:
    """Mollify a scalar field on R^n; f maps (..., n) points to scalars."""
    if eps <= 0:
        raise FieldError("mollify_scalar: eps must be positive")
    quad = quad or QuadSpec()
    offsets, kw, r = _kernel_nodes(n, eps, quad)

    def f_eps(x):
        pts, single = _as_batch(np.asarray(x, dtype=float), n)
        shifted = (pts[None, :, :] - offsets[:, None, :]).reshape(-1, n)
        vals = np.asarray(f(shifted), dtype=float).reshape(len(offsets), pts.shape[0])
        acc = vals[r] + kw @ (vals - vals[r])
        return float(acc[0]) if single else acc.reshape(np.asarray(x).shape[:-1])

    return f_eps


def sup_error(f: Callable, f_eps: Callable, grid) -> float:
    """Max over the grid of |f_eps(x) - f(x)| for scalar fields."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise FieldError("sup_error: empty grid")
    a = np.asarray(f(grid), dtype=float)
    b = np.asarray(f_eps(grid), dtype=float)
    return float(np.max(np.abs(b - a)))
