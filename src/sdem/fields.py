"""Coefficient families for SDEs of Markovian type.

A family consists of a drift field (index 0) and m diffusion fields
(indices 1..m) on R^n, together with an optional chosen version of the
weak derivative of each field.  Evaluators take one point format, a float
(N, n) batch, and return one row per point, row-wise exact for the
built-ins (see ``VectorFieldSet``).  All evaluators
are pure and safe for concurrent use, and every array they return is a
fresh one that the caller owns.  The ``log_example`` diffusion is evaluated
through the closed form of its antiderivative, with no table; its
temporaries live in per-thread workspaces.  Its infimum is
1 - sqrt(beta pi)/2, so beta must lie in (0, 4/pi).  The closed form needs
``erfc``: ``scipy.special`` is imported when a ``log_example`` is built, and
nothing else in sdem imports scipy, so a process that builds only the other
families, smoothed or not, never loads it.  Every
built-in parameter must be given and is read by the input rule: a missing
one, a value of the wrong kind (a string for a rate, 2.5 for a dimension,
a bool entry of a shift, a 3-d matrix) and a non-finite or out-of-range
value each raise a FieldError naming the parameter.
"""

from __future__ import annotations

import inspect
import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .inputs import (COUNT, NUMBER, POSITIVE, SEED, FieldError, enough, points, read,
                     reject_unknown, vector)

__all__ = [
    "FieldError",
    "DerivativeUnavailableError",
    "VectorFieldSet",
    "builtin_field",
    "field_from_json",
    "g_function",
    "condition_g_estimate",
    "ConditionGResult",
]


class DerivativeUnavailableError(FieldError):
    """Raised when an operation needs a weak derivative that was not supplied."""


class Workspace(threading.local):
    """Scratch arrays of one thread, reused from call to call; the engine,
    the quadrature and the density estimate keep theirs in one too.  A
    workspace is only ever scratch: it changes no byte of any result.

    ``array(key, shape)`` is a C-ordered array of that shape over the
    thread's buffer for ``key``, which grows to the largest request and is
    never shrunk.  Its entries are whatever the last use left.  The array
    stays valid until the same thread asks for ``key`` again, so it must not
    outlive the call that asked for it: no field returns one.
    """

    def array(self, key: str, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = getattr(self, key, None)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype)
            setattr(self, key, buf)
        return buf[:size].reshape(shape)


@dataclass(frozen=True)
class VectorFieldSet:
    """Drift and diffusion fields with an optional weak-derivative version.

    ``A(l, x)`` evaluates field l (0 = drift) at a float (N, n) batch x and
    returns (N, n); ``DA(l, x)``, when present, evaluates a fixed version of
    its weak derivative there and returns (N, n, n).  Neither checks or
    reshapes x, so a custom field is written for batches alone.  Points
    from a caller are checked once, where they enter, by the rule of
    ``inputs``: the engine checks its start point with ``vector``, and
    ``g_function`` its points with ``points``.  ``n`` and ``m`` are read as
    counts.

    A field is row-wise exact when a row's value has the same bytes alone
    and in a batch of any size.  The built-in and mollified evaluators are;
    a custom field is as exact as its own code, and the engine's outputs are
    byte-identical across worker counts (see `_run`) only for such a field.

    Which version of the weak derivative enters is a
    modelling choice supplied by the caller; any two a.e.-equal versions
    produce indistinguishable flows.

    ``zero_drift`` declares that the drift is identically zero: ``A(0, x)``
    and ``DA(0, x)`` are 0 at every x.  The engine then evaluates neither,
    and the Euler step and the derivative energy skip their zero terms.

    ``affine_drift`` declares that the drift is affine: ``DA(0, x)`` equals
    ``DA(0, 0)`` at every x.  The engine then evaluates ``DA(0)`` at the
    origin alone.  Under an affine drift and a constant diffusion every
    coefficient of the derivative flow's equation is a constant, so the
    engine carries V as one row that all paths share.

    ``constant_diffusion`` declares that every diffusion field is constant:
    ``A(l, x)`` equals ``A(l, 0)`` and ``DA(l, x)`` is 0 at every x, for
    l >= 1.  The engine then evaluates each ``A(l)`` at the origin alone and
    broadcasts that row over the paths, evaluates no ``DA(l)``, skips the
    zero ``DA(l) V dW`` terms, and inverts the diffusion matrix once per
    row slice of paths it runs.  A declaration, of any kind, that is false
    changes the simulated flow.
    """

    n: int
    m: int
    A: Callable[[int, np.ndarray], np.ndarray]
    DA: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    name: str = "custom"
    zero_drift: bool = False
    affine_drift: bool = False
    constant_diffusion: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", read("VectorFieldSet: n", self.n, COUNT))
        object.__setattr__(self, "m", read("VectorFieldSet: m", self.m, COUNT))

    def require_dfield(self):
        if self.DA is None:
            raise DerivativeUnavailableError(
                f"weak derivative unavailable for field set {self.name!r}"
            )

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        """Stack the diffusion fields at an (N, n) batch as columns: (N, n, m)."""
        cols = [self.A(l, x) for l in range(1, self.m + 1)]
        return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# built-in families


def _bm(n: int) -> VectorFieldSet:
    n = read("bm: n", n, COUNT)
    basis = np.eye(n)

    def A(l, x):
        return np.zeros_like(x) if l == 0 else np.broadcast_to(basis[l - 1], x.shape).copy()

    def DA(l, x):
        return np.zeros((len(x), n, n))

    return VectorFieldSet(n, n, A, DA, name="bm", zero_drift=True,
                          constant_diffusion=True)


def _ou(lam: float) -> VectorFieldSet:
    lam = read("ou: lam", lam, POSITIVE)

    def A(l, x):
        return -lam * x if l == 0 else np.ones_like(x)

    def DA(l, x):
        return np.full((len(x), 1, 1), -lam if l == 0 else 0.0)

    return VectorFieldSet(1, 1, A, DA, name="ou", affine_drift=True, constant_diffusion=True)


def _const_shift(matrix, shift) -> VectorFieldSet:
    try:
        shape = np.shape(matrix)
    except ValueError:                          # a ragged nesting
        shape = None
    if shape is None or len(shape) > 2:
        raise FieldError(f"const_shift: matrix must be an (n, m) array of numbers, "
                         f"got {matrix!r}")
    # a scalar or a flat list is one row, as np.atleast_2d makes it
    n, m = (1,) * (2 - len(shape)) + shape
    # each entry is read by the rule of every vector a caller hands in
    mat = vector(matrix, "const_shift: matrix", n * m).reshape(n, m)
    b = vector(shift, "const_shift: shift", n)
    if m < n:
        raise FieldError("const_shift: need at least as many noise columns as state dimensions")
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise FieldError("const_shift: degenerate (rank-deficient) diffusion matrix")

    def A(l, x):
        return np.broadcast_to(b if l == 0 else mat[:, l - 1], x.shape).copy()

    def DA(l, x):
        return np.zeros((len(x), n, n))

    return VectorFieldSet(n, m, A, DA, name="const_shift",
                          affine_drift=True, constant_diffusion=True)


_SMALLEST_SUBNORMAL = 5e-324
_HALF_SQRT_PI = math.sqrt(math.pi) / 2.0


def _log_antiderivative(x: np.ndarray, beta: float, ws: Workspace, erfc) -> np.ndarray:
    """I(|x|), where I(t) = int_0^min(t, 1) sqrt(beta |log y|) dy for t >= 0,
    in closed form, as a fresh array; the temporaries live in ``ws``.
    ``erfc`` is ``scipy.special.erfc``, imported by the caller.

    The substitution y = exp(-u^2) gives
    int_0^t sqrt(-log y) dy = t sqrt(-log t) + (sqrt(pi)/2) erfc(sqrt(-log t)).
    At t = 0 the logarithm is taken at the smallest subnormal instead, where
    erfc underflows to exactly 0, so I(0) = 0 with no warning; NaN stays NaN.
    """
    # in place from here on: the stacks are (nodes x points) long
    t = np.abs(x, out=ws.array("t", x.shape))
    np.minimum(t, 1.0, out=t)
    u = np.maximum(t, _SMALLEST_SUBNORMAL, out=ws.array("u", x.shape))
    np.log(u, out=u)
    np.negative(u, out=u)
    np.sqrt(u, out=u)
    out = erfc(u)
    out *= _HALF_SQRT_PI
    u *= t
    out += u
    out *= math.sqrt(beta)
    return out


def _log_example(beta: float) -> VectorFieldSet:
    # the diffusion's infimum is 1 - sqrt(beta pi)/2, at x = -1: uniformly
    # elliptic exactly when beta < 4/pi
    beta = read("log_example: beta", beta, NUMBER)
    if not 0.0 < beta < 4.0 / math.pi:
        raise FieldError(f"log_example: beta must lie in (0, 4/pi), where the diffusion "
                         f"stays uniformly elliptic, got beta={beta!r}")
    # imported here, where the one family that needs it is built, so that a
    # process on the other families never loads scipy
    from scipy.special import erfc

    ws = Workspace()

    def A(l, x):
        if l == 0:
            return np.zeros_like(x)
        out = _log_antiderivative(x[:, 0], beta, ws, erfc)
        np.copysign(out, x[:, 0], out=out)
        out += 1.0
        return out[:, None]

    def DA(l, x):
        N = len(x)
        v = np.zeros(N)
        if l != 0:
            # chosen version of the weak derivative: 0 at the origin and
            # outside the unit interval
            t = np.abs(x[:, 0], out=ws.array("t", (N,)))
            inside = np.greater(t, 0.0, out=ws.array("inside", (N,), bool))
            inside &= np.less_equal(t, 1.0, out=ws.array("below", (N,), bool))
            np.log(t, out=v, where=inside)
            np.abs(v, out=v)
            v *= beta
            np.sqrt(v, out=v)
        return v.reshape(N, 1, 1)

    return VectorFieldSet(1, 1, A, DA, name="log_example", zero_drift=True)


_BUILTINS = {
    "bm": _bm,
    "ou": _ou,
    "const_shift": _const_shift,
    "log_example": _log_example,
}


def builtin_field(name: str, **params) -> VectorFieldSet:
    """Construct a named built-in family.

    Names: ``bm(n)``, ``ou(lam)``, ``log_example(beta)``,
    ``const_shift(matrix, shift)``.
    """
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise FieldError(f"unknown built-in field {name!r}; have {sorted(_BUILTINS)}") from None
    accepted = list(inspect.signature(factory).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise FieldError(f"unknown parameter(s) {unknown} of field {name!r}; accepted: {accepted}")
    missing = [key for key in accepted if key not in params]
    if missing:
        raise FieldError(f"missing parameter(s) {missing} of field {name!r}")
    return factory(**params)


def field_from_json(doc: dict) -> VectorFieldSet:
    """The built-in field set a spec {name, params, n, m} names; n and m, when
    declared, are counts that must match the constructed field set."""
    if not isinstance(doc, dict) or "name" not in doc:
        raise FieldError(f"a field spec is an object with a 'name', got {doc!r}")
    reject_unknown("field spec", doc, ("name", "params", "n", "m"))
    name = doc["name"]
    if name not in _BUILTINS:
        raise FieldError(
            f"field {name!r} is not a built-in; custom fields are registered programmatically"
        )
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise FieldError(f"field 'params' must be an object, got {params!r}")
    declared = {key: read(f"field spec key {key!r}", doc[key], COUNT)
                for key in ("n", "m") if key in doc}
    fs = builtin_field(name, **params)
    for key, value in declared.items():
        if value != getattr(fs, key):
            raise FieldError(f"declared {key}={value} does not match constructed "
                             f"{key}={getattr(fs, key)}")
    return fs


def g_function(fs: VectorFieldSet, x) -> np.ndarray:
    """Sum over l of the squared Frobenius norm of the weak derivative at
    each point of the (N, n) batch x: shape (N,).

    A declared zero drift is not evaluated; its DA(0) adds nothing."""
    fs.require_dfield()
    pts = points(x, fs.n, "g_function")
    first = 1 if fs.zero_drift else 0
    return g_sum([None] * first + [fs.DA(l, pts) for l in range(first, fs.m + 1)])


def g_sum(das) -> np.ndarray | float:
    """G from the derivatives DA(0..m), each (N, n, n), summed in that order.

    A derivative declared identically zero is None: DA(0) of a zero drift,
    DA(l >= 1) of a constant diffusion.  Its square adds +0, which changes
    no sum of squares, so it is skipped; when every entry is None, G is 0.0."""
    total = 0.0
    for d in das:
        if d is not None:
            total = total + np.sum(d * d, axis=(-2, -1))
    return total


@dataclass(frozen=True)
class ConditionGResult:
    estimate: float
    diverging: bool
    growth_ratio: float
    se: float
    samples: int


_REPLICATES = 8


def condition_g_estimate(fs: VectorFieldSet, sigma: float, T0: float, x,
                         samples: int, seed: int, *,
                         growth_ratio: float = 2.0) -> ConditionGResult:
    """Monte Carlo check of the small-time integrability of exp(sigma G).

    Estimates int_0^{T0} int exp(sigma G(y)) K_s(x, y) dy ds via the identity
    int exp(sigma G(y)) K_s(x, y) dy = (2 pi)^{n/2} E[exp(sigma G(Y))] with
    Y normal, mean x, covariance s I, and s uniform on (0, T0].

    Divergence is detected by sample doubling: each of _REPLICATES
    replicates draws an independent batch of ``samples`` and one of
    ``2 * samples`` points; the flag is set when any replicate grows by more
    than ``growth_ratio``.  A single doubling has roughly coin-flip power
    against borderline non-integrable cases, hence the replication.  A
    replicate whose batch means overflow has no finite ratio; it counts as
    diverging, and ``growth_ratio`` reports inf.
    ``samples`` below MIN_SAMPLES raises, after the other arguments are read.
    """
    sigma = read("condition_g_estimate: sigma", sigma, POSITIVE)
    T0 = read("condition_g_estimate: T0", T0, POSITIVE)
    samples = read("condition_g_estimate: samples", samples, COUNT)
    seed = read("condition_g_estimate: seed", seed, SEED)
    growth_ratio = read("condition_g_estimate: growth_ratio", growth_ratio, NUMBER)
    fs.require_dfield()
    x = vector(x, "start point x0", fs.n)
    enough("condition_g_estimate: samples", samples)
    scale = T0 * (2.0 * math.pi) ** (fs.n / 2.0)

    def one_batch(rng, k):
        s = rng.uniform(0.0, T0, k)
        y = x + np.sqrt(s)[:, None] * rng.standard_normal((k, fs.n))
        with np.errstate(over="ignore"):
            return np.exp(sigma * g_function(fs, y))

    root = np.random.SeedSequence(seed)
    worst = 0.0
    all_vals = []
    for rep, ss in enumerate(root.spawn(_REPLICATES)):
        rng = np.random.default_rng(ss)
        small = one_batch(rng, samples)
        big = one_batch(rng, 2 * samples)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = float(big.mean() / small.mean())
        # an overflowed batch makes the ratio inf, or inf / inf = nan, which
        # max() would pass over: either is a replicate that diverges
        worst = max(worst, ratio if math.isfinite(ratio) else math.inf)
        all_vals.append(small)
        all_vals.append(big)
    pooled = np.concatenate(all_vals)
    with np.errstate(over="ignore", invalid="ignore"):
        est = scale * float(pooled.mean())
        se = scale * float(pooled.std(ddof=1) / math.sqrt(pooled.size))
    return ConditionGResult(est, bool(worst > growth_ratio), worst, se, int(pooled.size))
