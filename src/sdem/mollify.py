"""Smoothing of coefficient families by convolution with a compactly
supported bump kernel, evaluated by numerical quadrature.

The kernel is the classical unit-mass bump supported on the unit ball,
rescaled to radius eps.  Its normalizing constant comes from a closed form
summed with the standard library's ``math`` alone (``_mollifier_constant``),
so smoothing loads no scipy module: only a base field that needs scipy
does.  The quadrature is a Gauss-Legendre tensor grid over [-eps, eps]^n.
Its kernel weights are normalized to unit mass, which
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
At the default 16 nodes per axis, which every study uses, both routes keep
14 nodes in 1-d and 136 in 2-d.

One routine, ``_quadrature``, serves both routes.  It adds the nodes one
after another in a fixed order, in numpy rather than through BLAS, so each
row of a result depends on that row alone: not on the batch size, the BLAS
build or its thread count.  Its shifted stack and differences, (nodes x
points) long, live in workspaces kept per thread and per nesting depth (1
over a plain field set, one more than its base's over a mollified one): the
levels of a ladder share one copy, and a field that is mollified again
never writes into a stack its caller still holds.  What the quadrature
returns is always a fresh array.  The node tables are cached and read-only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .fields import VectorFieldSet, Workspace
from .inputs import COUNT, POSITIVE, FieldError, read

__all__ = [
    "MollifiedFieldSet",
    "mollify_field",
]


# the stacks of every mollified field set at a nesting depth, by depth; an
# evaluation holds its shifted stack only while its base is evaluated, and
# the base is one depth lower
_WORKSPACES: dict[int, Workspace] = {}


@lru_cache(maxsize=8)
def _mollifier_constant(n: int) -> float:
    """Normalizing constant making the bump kernel integrate to one on R^n,
    n >= 1 the dimension of a field set.

    With a = n/2, the bump's mass is S_{n-1} I_n, where S_{n-1} =
    2 pi^a / Gamma(a) is the area of the unit sphere.  The substitutions
    s = r^2, then v = s / (1 - s), give

        I_n = int_0^1 r^(n-1) exp(1/(r^2-1)) dr
            = (1/(2e)) J,   J = int_0^inf v^(a-1) (1+v)^(-a-1) e^(-v) dv,

    and J = Gamma(a) U(a, 0, 1), U being Tricomi's confluent hypergeometric
    function, so the constant is Gamma(a) e / (pi^a J).  In x = log v the
    integrand of J is exp(a x - (a+1) log1p(e^x) - e^x), analytic in the
    strip |Im x| < pi/2 where it decays at both ends, so the trapezoid rule
    with step h = 1/4 errs by about exp(-pi^2 / h) ~ 1e-17 relative.  The
    nodes k h run from where e^(a x) < 1e-40 to where e^x > 50, beyond which
    the dropped tails are below 1e-21, and ``math.fsum`` adds them: the
    constant is within 1 ulp of a 45-digit reference for n = 1 to 6.
    """
    a, h = n / 2.0, 0.25
    lo, hi = math.floor(math.log(1e-40) / (a * h)), math.ceil(math.log(50.0) / h)
    J = h * math.fsum(math.exp(a * x - (a + 1.0) * math.log1p(math.exp(x)) - math.exp(x))
                      for x in (k * h for k in range(lo, hi + 1)))
    return math.gamma(a) * math.e / (math.pi ** a * J)


def _eta(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit-mass bump kernel on R^n at an (N, n) batch, shape (N,), and
    its analytic gradient, shape (N, n); both vanish outside the unit ball."""
    c = _mollifier_constant(x.shape[1])
    r2 = np.sum(x * x, axis=-1)
    inside = r2 < 1.0
    denom = np.where(inside, r2 - 1.0, -1.0)
    with np.errstate(divide="ignore", over="ignore"):
        base = np.where(inside, np.exp(1.0 / denom), 0.0)
    return c * base, (-2.0 * c) * base[:, None] * x / (denom ** 2)[:, None]


def _read_only(table: tuple) -> tuple:
    """The cached node table, its arrays made to raise on any write."""
    for a in table:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _tensor_nodes(n: int, eps: float, nodes: int):
    """Gauss-Legendre tensor grid of ``nodes`` points per axis over the
    bounding box [-eps, eps]^n, and the normalized kernel weights on it;
    eps and nodes are read by `MollifiedFieldSet`.

    Returns (offsets (Q, n), kernel weights summing to 1, raw product
    weights (Q,) including the volume element but not the kernel).
    """
    z, w = np.polynomial.legendre.leggauss(nodes)
    axes = [z] * n
    grid = np.array(list(itertools.product(*axes)))          # (Q, n) in [-1,1]^n
    wgrid = np.prod(np.array(list(itertools.product(*([w] * n)))), axis=1)
    offsets = eps * grid
    raw = wgrid * eps ** n                                    # volume element
    kernel_vals = _eta(grid)[0] / eps ** n                    # eta_eps(offsets)
    kw = raw * kernel_vals
    total = kw.sum()
    # the raw mass is 0.9972 to 1.0065 for n = 1 to 5 at 8 to 32 nodes per
    # axis, and 0.9948 to 1.0072 for n = 6 to 8 at 8 nodes
    assert 0.99 < total < 1.01, total
    return _read_only((offsets, kw / total, raw))


@lru_cache(maxsize=64)
def _kernel_nodes(n: int, eps: float, nodes: int):
    """The value route's node table: the kept offsets, their kernel weights
    and the index of the reference node, the one with the largest weight."""
    offsets, kw, _ = _tensor_nodes(n, eps, nodes)
    keep = kw > 2.0 ** -53 * kw.max()
    return _read_only((offsets[keep], kw[keep], int(np.argmax(kw[keep]))))


@lru_cache(maxsize=64)
def _grad_nodes(n: int, eps: float, nodes: int):
    """The kernel-gradient route's node table: the kept offsets, a row of
    weights per node and the index of the reference node, the one nearest
    the centre."""
    offsets, _, raw = _tensor_nodes(n, eps, nodes)
    gw = raw[:, None] * (_eta(offsets / eps)[1] / eps ** (n + 1))
    size = np.sqrt(np.sum(gw * gw, axis=-1))
    keep = size > 2.0 ** -53 * size.max()
    offsets = offsets[keep]
    return _read_only((offsets, gw[keep], int(np.argmin(np.sum(offsets * offsets, axis=-1)))))


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
        eps = read("mollify: eps", self.eps, POSITIVE)
        nodes = read("mollify: nodes", self.nodes, COUNT)
        if nodes < 8:
            raise FieldError(f"mollify: need at least 8 quadrature nodes per axis, got {nodes}")
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
