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
themselves bit for bit.  The kernel-gradient route sums
gw_i (f(x - o_i) - f(x - o_r)) in the same way, which is exactly zero on
constants.

A mollified field set adds its nodes one after another in a fixed order,
in numpy rather than through BLAS, so each row of a result depends on that
row alone: not on the batch size, the BLAS build or its thread count.  A
batch may be cut into row slices anywhere without moving a bit.  (The
function ``mollify_scalar`` returns, which the engine never calls, sums its
nodes with one BLAS product.)

The shifted node stack and the differences f(x - o_i) - f(x - o_r) are
(nodes x points) long.  Each mollified field set builds them in per-thread
workspaces that it reuses from step to step; what it returns is always a
fresh array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .fields import FieldMeta, VectorFieldSet, FieldError, _points, _Workspace

__all__ = [
    "QuadratureError",
    "mollifier_constant",
    "eta",
    "eta_grad",
    "MollifiedFieldSet",
    "mollify_field",
    "mollify_scalar",
]


class QuadratureError(RuntimeError):
    """The kernel quadrature's mass is far from one."""


@lru_cache(maxsize=8)
def mollifier_constant(n: int) -> float:
    """Normalizing constant making the bump kernel integrate to one on R^n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    # imported here, its only use, so runs that never mollify do not pay for it
    from scipy import integrate

    # radial reduction: integral = S_{n-1} * int_0^1 r^{n-1} exp(1/(r^2-1)) dr
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    val, _ = integrate.quad(lambda r: r ** (n - 1) * math.exp(1.0 / (r * r - 1.0)), 0.0, 1.0)
    return 1.0 / (surface * val)


def eta(x: np.ndarray) -> np.ndarray:
    """The unit-mass bump kernel on R^n at an (N, n) batch, vanishing
    outside the unit ball: shape (N,)."""
    c = mollifier_constant(x.shape[1])
    r2 = np.sum(x * x, axis=-1)
    inside = r2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(inside, c * np.exp(1.0 / np.where(inside, r2 - 1.0, -1.0)), 0.0)


def eta_grad(x: np.ndarray) -> np.ndarray:
    """Analytic gradient of the bump kernel at an (N, n) batch (zero outside
    the unit ball): shape (N, n)."""
    r2 = np.sum(x * x, axis=-1)
    inside = r2 < 1.0
    denom = np.where(inside, r2 - 1.0, -1.0)
    with np.errstate(divide="ignore", over="ignore"):
        base = np.where(inside, np.exp(1.0 / denom), 0.0)
    c = mollifier_constant(x.shape[1])
    return (-2.0 * c) * base[:, None] * x / (denom ** 2)[:, None]


@lru_cache(maxsize=64)
def _tensor_nodes(n: int, eps: float, nodes: int):
    """Gauss-Legendre tensor grid of ``nodes`` points per axis over the
    bounding box [-eps, eps]^n, and the normalized kernel weights on it.

    Returns (offsets (Q, n), kernel weights summing to 1, raw product
    weights (Q,) including the volume element but not the kernel).  The
    returned arrays are cached and must be treated as read-only.  Every
    mollified field and scalar reaches its nodes here, so eps and the node
    count are checked here.
    """
    if eps <= 0:
        raise FieldError(f"mollify: eps must be positive, got {eps}")
    if nodes < 8:
        raise FieldError(f"mollify: need at least 8 quadrature nodes per axis, got {nodes}")
    z, w = np.polynomial.legendre.leggauss(nodes)
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
            f"kernel quadrature mass {total:.4f} is far from 1; use more nodes"
        )
    return offsets, kw / total, raw


@lru_cache(maxsize=64)
def _kernel_nodes(n: int, eps: float, nodes: int):
    """Offsets with nonzero kernel weight, those weights (sum 1) and the
    index of the reference node, the one with the largest weight."""
    offsets, kw, _ = _tensor_nodes(n, eps, nodes)
    keep = kw != 0.0
    return offsets[keep], kw[keep], int(np.argmax(kw[keep]))


@dataclass(frozen=True)
class MollifiedFieldSet:
    """An eps-smoothed view of a coefficient family.

    ``A(l, x)`` is the convolution of the base field with the scaled bump
    kernel, evaluated by quadrature.  ``DA(l, x)`` smooths the supplied
    weak derivative when the base has one, and otherwise differentiates
    the kernel analytically.  The quadrature is Gauss-Legendre with
    ``nodes`` points per axis.  Both take a float (N, n) batch, as the
    base's evaluators do, and hand the base one (Q·N, n) stack of shifted
    points.
    """

    base: VectorFieldSet
    eps: float
    nodes: int = 16

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

    def require_dfield(self):
        return None

    @cached_property
    def _grad_nodes(self):
        """Offsets and weights for the kernel-gradient route, (Q, n) each,
        and the reference node, the one nearest the centre."""
        offsets, _, raw = _tensor_nodes(self.n, self.eps, self.nodes)
        gvals = eta_grad(offsets / self.eps) / self.eps ** (self.n + 1)
        keep = np.any(gvals != 0.0, axis=-1)
        offsets = offsets[keep]
        ref = int(np.argmin(np.sum(offsets * offsets, axis=-1)))
        return offsets, raw[keep, None] * gvals[keep], ref

    @cached_property
    def _ws(self) -> _Workspace:
        return _Workspace()

    def _shifted(self, x, offsets):
        # (Q*N, n) stack of x - offset_q, one base-field call for all nodes
        out = self._ws.array("shifted", (len(offsets),) + x.shape)
        np.subtract(x[None, :, :], offsets[:, None, :], out=out)
        return out.reshape(-1, self.n)

    def _minus_ref(self, vals, r):
        """vals - vals[r], node by node, in the workspace."""
        return np.subtract(vals, vals[r], out=self._ws.array("diff", vals.shape))

    def _node_sum(self, w, d):
        """sum_q w[q] * d[q] as a fresh array, added node after node in a
        fixed order, so each row depends on that row alone."""
        acc = w[0] * d[0]
        term = self._ws.array("term", acc.shape)
        for q in range(1, len(w)):
            acc += np.multiply(w[q], d[q], out=term)
        return acc

    def A(self, l: int, x: np.ndarray) -> np.ndarray:
        offsets, kw, r = _kernel_nodes(self.n, self.eps, self.nodes)
        vals = self.base.A(l, self._shifted(x, offsets)).reshape(len(offsets), len(x), self.n)
        return vals[r] + self._node_sum(kw, self._minus_ref(vals, r))

    def DA(self, l: int, x: np.ndarray) -> np.ndarray:
        n = self.n
        if self.base.DA is not None:
            offsets, kw, r = _kernel_nodes(n, self.eps, self.nodes)
            vals = self.base.DA(l, self._shifted(x, offsets)).reshape(len(offsets), len(x), n, n)
            return vals[r] + self._node_sum(kw, self._minus_ref(vals, r))
        # D(eta_eps * f) = (D eta_eps) * f with the analytic kernel gradient;
        # the gradient weights sum to zero up to rounding, so subtracting f
        # at the reference node changes only rounding and makes constants
        # give exactly 0.
        offsets, gw, r = self._grad_nodes
        vals = self.base.A(l, self._shifted(x, offsets)).reshape(len(offsets), len(x), n)
        return self._node_sum(gw[:, None, None, :], self._minus_ref(vals, r)[..., None])

    diffusion_matrix = VectorFieldSet.diffusion_matrix


def mollify_field(fs: VectorFieldSet, eps: float, nodes: int = 16) -> MollifiedFieldSet:
    """Smooth a coefficient family at scale eps, with ``nodes`` quadrature
    nodes per axis (at least 8)."""
    _tensor_nodes(fs.n, eps, nodes)     # the checks, at construction
    return MollifiedFieldSet(fs, eps, nodes)


def mollify_scalar(f: Callable[[np.ndarray], np.ndarray], eps: float,
                   n: int = 1, nodes: int = 16) -> Callable:
    """Mollify a scalar field on R^n; f maps an (N, n) batch to (N,) values.

    The returned function takes an (N, n) batch, which it checks, and
    returns (N,) values."""
    offsets, kw, r = _kernel_nodes(n, eps, nodes)

    def f_eps(x):
        pts = _points(x, n, "mollify_scalar")
        shifted = (pts[None, :, :] - offsets[:, None, :]).reshape(-1, n)
        vals = np.asarray(f(shifted), dtype=float).reshape(len(offsets), len(pts))
        return vals[r] + kw @ (vals - vals[r])

    return f_eps

