"""Smoothing of coefficient families by convolution with a compactly
supported bump kernel, evaluated by numerical quadrature.

The kernel is the classical unit-mass bump supported on the unit ball,
rescaled to radius eps, and the quadrature is a Gauss-Legendre tensor grid
over [-eps, eps]^n.  Its kernel weights are normalized to unit mass, which
keeps the mass error at rounding level so that empirical Hoelder constants
never increase, independent of quadrature resolution.  Rounded weights need
not sum to exactly one, so the quadrature is taken relative to a reference
node r, the node with the largest weight:

    f_eps(x) = f(x - o_r) + sum_i w_i (f(x - o_i) - f(x - o_r)).

Every difference vanishes for a constant f, so constants mollify to
themselves bit for bit.  The kernel-gradient route sums
(f(x - o_i) - f(x - o_r)) gw_i, with gw_i the row of product weights times
the kernel's gradient and r the node nearest the centre.  The gw_i sum to
zero up to rounding, so subtracting f at r changes only rounding, and the
sum is exactly zero on constants.

Once the weights are final (the kernel weights after their normalization),
a node is kept only if |w| > 2^-53 max |w|, |w| being the row's norm on the
gradient route.  The kept weights are not renormalized, so each keeps its
bytes.  The dropped nodes lie outside the ball or in its boundary layer,
and their mass is at most Q · 2^-53 of the largest weight for Q grid nodes.

One routine, ``_quadrature``, serves both routes and ``mollify_scalar``.  It
adds the nodes one after another in a fixed order, in numpy rather than
through BLAS, so each row of a result depends on that row alone: not on the
batch size, the BLAS build or its thread count.  Its shifted stack and
differences, (nodes x points) long, live in workspaces kept per thread and
per nesting depth (1 over a plain field set, one more than its base's over
a mollified one): the levels of a ladder share one copy, and a field that
is mollified again never writes into a stack its caller still holds.  Each
function ``mollify_scalar`` returns has a workspace of its own.  What the
quadrature returns is always a fresh array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from .fields import VectorFieldSet, Workspace
from .inputs import COUNT, POSITIVE, FieldError, points, read

__all__ = [
    "QuadratureError",
    "mollifier_constant",
    "eta",
    "eta_grad",
    "MollifiedFieldSet",
    "mollify_field",
    "mollify_scalar",
]


# the stacks of every mollified field set at a nesting depth, by depth; an
# evaluation holds its shifted stack only while its base is evaluated, and
# the base is one depth lower
_WORKSPACES: dict[int, Workspace] = {}


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


def _node_rule(eps, nodes) -> tuple[float, int]:
    """eps and nodes as every mollified field and scalar reads them, before
    a node table is looked up: eps finite and positive, nodes a count >= 8."""
    eps = read("mollify: eps", eps, POSITIVE)
    nodes = read("mollify: nodes", nodes, COUNT)
    if nodes < 8:
        raise FieldError(f"mollify: need at least 8 quadrature nodes per axis, got {nodes}")
    return eps, nodes


@lru_cache(maxsize=64)
def _tensor_nodes(n: int, eps: float, nodes: int):
    """Gauss-Legendre tensor grid of ``nodes`` points per axis over the
    bounding box [-eps, eps]^n, and the normalized kernel weights on it;
    eps and nodes are read by `_node_rule`.

    Returns (offsets (Q, n), kernel weights summing to 1, raw product
    weights (Q,) including the volume element but not the kernel).  The
    returned arrays are cached and must be treated as read-only.
    """
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
    """The value route's node table: the kept offsets, their kernel weights
    and the index of the reference node, the one with the largest weight."""
    offsets, kw, _ = _tensor_nodes(n, eps, nodes)
    keep = kw > 2.0 ** -53 * kw.max()
    return offsets[keep], kw[keep], int(np.argmax(kw[keep]))


@lru_cache(maxsize=64)
def _grad_nodes(n: int, eps: float, nodes: int):
    """The kernel-gradient route's node table: the kept offsets, a row of
    weights per node and the index of the reference node, the one nearest
    the centre."""
    offsets, _, raw = _tensor_nodes(n, eps, nodes)
    gw = raw[:, None] * (eta_grad(offsets / eps) / eps ** (n + 1))
    size = np.sqrt(np.sum(gw * gw, axis=-1))
    keep = size > 2.0 ** -53 * size.max()
    offsets = offsets[keep]
    return offsets, gw[keep], int(np.argmin(np.sum(offsets * offsets, axis=-1)))


def _quadrature(evaluate, x: np.ndarray, table, ws: Workspace) -> np.ndarray:
    """The quadrature over a node table (offsets, w, r) at a float (N, n)
    batch, from one call of ``evaluate`` on the (Q·N, n) stack of x - o_q:
    f_r + sum_q w_q (f_q - f_r) with one weight per node, and
    sum_q (f_q - f_r) ⊗ w_q with a row of gradient weights per node."""
    offsets, w, r = table
    shifted = ws.array("shifted", (len(offsets),) + x.shape)
    np.subtract(x[None, :, :], offsets[:, None, :], out=shifted)
    vals = evaluate(shifted.reshape(-1, x.shape[1]))
    vals = vals.reshape((len(offsets), len(x)) + vals.shape[1:])
    d = np.subtract(vals, vals[r], out=ws.array("diff", vals.shape))
    if w.ndim == 2:
        d = d[..., None]
    acc = w[0] * d[0]
    term = ws.array("term", acc.shape)
    for q in range(1, len(w)):
        acc += np.multiply(w[q], d[q], out=term)
    return acc if w.ndim == 2 else vals[r] + acc


@dataclass(frozen=True)
class MollifiedFieldSet:
    """An eps-smoothed view of a coefficient family.

    ``A(l, x)`` is the convolution of the base field with the scaled bump
    kernel, evaluated by quadrature.  ``DA(l, x)`` smooths the supplied
    weak derivative when the base has one, and otherwise differentiates
    the kernel analytically.  The quadrature is Gauss-Legendre with
    ``nodes`` points per axis.  Both take a float (N, n) batch, as the
    base's evaluators do, and hand the base one (Q·N, n) stack of shifted
    points.  eps and nodes are read, and the node table built, on construction.
    """

    base: VectorFieldSet
    eps: float
    nodes: int = 16

    def __post_init__(self):
        eps, nodes = _node_rule(self.eps, self.nodes)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "nodes", nodes)
        _tensor_nodes(self.n, eps, nodes)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def name(self) -> str:
        return f"{self.base.name}|eps={self.eps}"

    @property
    def zero_drift(self) -> bool:
        """The base's declaration; the reference-node rule mollifies 0 to 0."""
        return self.base.zero_drift

    @property
    def affine_drift(self) -> bool:
        """The base's declaration when the base has a DA: its DA(0) is a
        constant, which the reference-node rule mollifies exactly to
        itself.  The kernel-gradient route sums differences of A(0), whose
        rounding depends on x, so without a DA nothing is declared."""
        return self.base.affine_drift and self.base.DA is not None

    @property
    def constant_diffusion(self) -> bool:
        """The base's declaration; constants mollify exactly to themselves,
        and their derivatives to exactly 0, by the same rule."""
        return self.base.constant_diffusion

    def require_dfield(self):
        return None

    @cached_property
    def _depth(self) -> int:
        return self.base._depth + 1 if isinstance(self.base, MollifiedFieldSet) else 1

    @cached_property
    def _ws(self) -> Workspace:
        return _WORKSPACES.setdefault(self._depth, Workspace())

    def A(self, l: int, x: np.ndarray) -> np.ndarray:
        return _quadrature(partial(self.base.A, l), x,
                           _kernel_nodes(self.n, self.eps, self.nodes), self._ws)

    def DA(self, l: int, x: np.ndarray) -> np.ndarray:
        if self.base.DA is not None:
            return _quadrature(partial(self.base.DA, l), x,
                               _kernel_nodes(self.n, self.eps, self.nodes), self._ws)
        # D(eta_eps * f) = (D eta_eps) * f with the analytic kernel gradient
        return _quadrature(partial(self.base.A, l), x,
                           _grad_nodes(self.n, self.eps, self.nodes), self._ws)

    diffusion_matrix = VectorFieldSet.diffusion_matrix


def mollify_field(fs: VectorFieldSet, eps: float, nodes: int = 16) -> MollifiedFieldSet:
    """Smooth a coefficient family at scale eps, with ``nodes`` quadrature
    nodes per axis (at least 8)."""
    return MollifiedFieldSet(fs, eps, nodes)


def mollify_scalar(f: Callable[[np.ndarray], np.ndarray], eps: float,
                   n: int = 1, nodes: int = 16) -> Callable:
    """Mollify a scalar field on R^n; f maps an (N, n) batch to (N,) values.

    The returned function takes an (N, n) batch, which it checks, and
    returns (N,) values."""
    n = read("mollify_scalar: n", n, COUNT)
    table = _kernel_nodes(n, *_node_rule(eps, nodes))
    ws = Workspace()

    def f_eps(x):
        return _quadrature(lambda p: np.asarray(f(p), dtype=float).reshape(len(p)),
                           points(x, n, "mollify_scalar"), table, ws)

    return f_eps
