"""Coefficient families for SDEs of Markovian type.

A family consists of a drift field (index 0) and m diffusion fields
(indices 1..m) on R^n, together with an optional chosen version of the
weak derivative of each field and its ellipticity floor.

Evaluators take one point format, a float (N, n) batch, and return one row
per point (see ``VectorFieldSet``); they do no shape handling of their own.
Points from a caller are checked once, where they enter.  The built-in and
mollified evaluators are row-wise exact: a row's value has the same bytes
alone and in a batch of any size.  A custom field is as exact as its own
code.  All evaluators are pure and safe for concurrent use, and every array
they return is a fresh one that the caller owns.  The ``log_example``
diffusion is evaluated through the closed form of its antiderivative, with
no table; its temporaries live in per-thread workspaces.
"""

from __future__ import annotations

import inspect
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import erfc

__all__ = [
    "FieldError",
    "DerivativeUnavailableError",
    "FieldMeta",
    "VectorFieldSet",
    "builtin_field",
    "field_from_json",
    "ellipticity_margin",
    "hoelder_estimate",
    "g_function",
    "condition_g_estimate",
    "ConditionGResult",
]


class FieldError(ValueError):
    """Invalid field construction or evaluation request."""


class DerivativeUnavailableError(FieldError):
    """Raised when an operation needs a weak derivative that was not supplied."""


@dataclass(frozen=True)
class FieldMeta:
    theta: float = 0.0          # uniform ellipticity lower bound (0 = not claimed)


class _Workspace(threading.local):
    """Scratch arrays of one thread, reused from call to call.

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


def _points(x, n: int, where: str) -> np.ndarray:
    """A caller's points as the float (N, n) batch evaluators take."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise FieldError(f"{where}: points must be an (N, {n}) array, got shape {pts.shape}")
    return pts


def _start_vector(x0, n: int) -> np.ndarray:
    """A caller's start point x0 as a finite vector of n entries."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if len(x0) != n:
        raise FieldError(f"start point x0 has dimension {len(x0)}, field set has n={n}")
    if not np.all(np.isfinite(x0)):
        raise FieldError(f"start point x0 = {x0} is not finite")
    return x0


@dataclass(frozen=True)
class VectorFieldSet:
    """Drift and diffusion fields with an optional weak-derivative version.

    ``A(l, x)`` evaluates field l (0 = drift) at a float (N, n) batch x and
    returns (N, n); ``DA(l, x)``, when present, evaluates a fixed version of
    its weak derivative there and returns (N, n, n).  Neither checks or
    reshapes x, so a custom field is written for batches alone.  Points
    from a caller are checked once, where they enter: the engine checks its
    start point, and ``ellipticity_margin``, ``hoelder_estimate``,
    ``g_function`` and the function ``mollify_scalar`` returns check theirs
    with ``_points``, which names the expected (N, n) and the shape it got.

    The engine cuts a block of paths into row slices over its workers, so
    its outputs are byte-identical across worker counts when a row's value
    does not depend on N.  The built-in and mollified evaluators are
    row-wise exact in this sense; a custom field is as exact as its own
    code.

    Which version of the weak derivative enters is a
    modelling choice supplied by the caller; any two a.e.-equal versions
    produce indistinguishable flows.

    ``zero_drift`` declares that the drift is identically zero: ``A(0, x)``
    and ``DA(0, x)`` are 0 at every x.  The engine then evaluates neither,
    and the Euler step and the derivative energy skip their zero terms.

    ``constant_diffusion`` declares that every diffusion field is constant:
    ``A(l, x)`` equals ``A(l, 0)`` and ``DA(l, x)`` is 0 at every x, for
    l >= 1.  The engine then evaluates each ``A(l)`` at the origin alone and
    broadcasts that row over the paths, evaluates no ``DA(l)``, skips the
    zero ``DA(l) V dW`` terms, and inverts the diffusion matrix once per
    block.  A declaration, of either kind, that is false changes the
    simulated flow.
    """

    n: int
    m: int
    A: Callable[[int, np.ndarray], np.ndarray]
    DA: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    meta: FieldMeta = field(default_factory=FieldMeta)
    name: str = "custom"
    params: dict = field(default_factory=dict)
    zero_drift: bool = False
    constant_diffusion: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise FieldError("state and noise dimensions must be positive")

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
    basis = np.eye(n)

    def A(l, x):
        return np.zeros_like(x) if l == 0 else np.broadcast_to(basis[l - 1], x.shape).copy()

    def DA(l, x):
        return np.zeros((len(x), n, n))

    return VectorFieldSet(n, n, A, DA, FieldMeta(theta=1.0), name="bm", params={"n": n}, zero_drift=True,
                          constant_diffusion=True)


def _ou(lam: float) -> VectorFieldSet:
    if lam <= 0:
        raise FieldError("ou: mean-reversion rate must be positive")

    def A(l, x):
        return -lam * x if l == 0 else np.ones_like(x)

    def DA(l, x):
        return np.full((len(x), 1, 1), -lam if l == 0 else 0.0)

    return VectorFieldSet(1, 1, A, DA, FieldMeta(theta=1.0), name="ou", params={"lam": lam},
                          constant_diffusion=True)


def _const_shift(matrix, shift) -> VectorFieldSet:
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    b = np.atleast_1d(np.asarray(shift, dtype=float))
    n, m = mat.shape
    if b.shape != (n,):
        raise FieldError(f"const_shift: shift has shape {b.shape}, expected ({n},)")
    if m < n:
        raise FieldError("const_shift: need at least as many noise columns as state dimensions")
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= 1e-12 * max(1.0, sv[0]):
        raise FieldError("const_shift: degenerate (rank-deficient) diffusion matrix")

    def A(l, x):
        return np.broadcast_to(b if l == 0 else mat[:, l - 1], x.shape).copy()

    def DA(l, x):
        return np.zeros((len(x), n, n))

    return VectorFieldSet(n, m, A, DA, FieldMeta(theta=float(sv[-1] ** 2)), name="const_shift",
                          params={"matrix": mat.tolist(), "shift": b.tolist()},
                          constant_diffusion=True)


_SMALLEST_SUBNORMAL = 5e-324
_HALF_SQRT_PI = math.sqrt(math.pi) / 2.0


def _log_antiderivative(x: np.ndarray, beta: float, ws: _Workspace) -> np.ndarray:
    """I(|x|), where I(t) = int_0^min(t, 1) sqrt(beta |log y|) dy for t >= 0,
    in closed form, as a fresh array; the temporaries live in ``ws``.

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
    if beta <= 0:
        raise FieldError("log_example: beta must be positive")
    ws = _Workspace()

    def A(l, x):
        if l == 0:
            return np.zeros_like(x)
        out = _log_antiderivative(x[:, 0], beta, ws)
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

    theta = (1.0 - math.sqrt(beta) * math.sqrt(math.pi) / 2.0) ** 2
    if theta <= 0:
        raise FieldError(f"log_example: beta={beta} destroys ellipticity (needs beta < 4/pi)")
    return VectorFieldSet(1, 1, A, DA, FieldMeta(theta=theta), name="log_example", params={"beta": beta},
                          zero_drift=True)


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
    return factory(**params)


def field_from_json(doc: dict) -> VectorFieldSet:
    if not isinstance(doc, dict) or "name" not in doc:
        raise FieldError(f"a field spec is an object with a 'name', got {doc!r}")
    name = doc["name"]
    if name not in _BUILTINS:
        raise FieldError(
            f"field {name!r} is not a built-in; custom fields are registered programmatically"
        )
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise FieldError(f"field 'params' must be an object, got {params!r}")
    fs = builtin_field(name, **params)
    if "n" in doc and doc["n"] != fs.n:
        raise FieldError(f"declared n={doc['n']} does not match constructed n={fs.n}")
    if "m" in doc and doc["m"] != fs.m:
        raise FieldError(f"declared m={doc['m']} does not match constructed m={fs.m}")
    return fs


# ---------------------------------------------------------------------------
# regularity checkers


def ellipticity_margin(fs: VectorFieldSet, sample_points) -> float:
    """Smallest eigenvalue of a(x) = A(x) A(x)^T over the (N, n) sample points."""
    pts = _points(sample_points, fs.n, "ellipticity_margin")
    if len(pts) == 0:
        raise FieldError("ellipticity_margin: empty sample set")
    amat = fs.diffusion_matrix(pts)              # (N, n, m)
    a = amat @ np.swapaxes(amat, -1, -2)         # (N, n, n)
    try:
        eigs = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        bad = pts[~np.all(np.isfinite(a.reshape(len(pts), -1)), axis=1)]
        where = bad[0] if len(bad) else pts[0]
        raise FieldError(f"eigen-solve failed near point {where}: {exc}") from exc
    return float(eigs[:, 0].min())


def hoelder_estimate(fs: VectorFieldSet, alpha: float, x, y) -> float:
    """Empirical lower bound for the Hoelder constant over point pairs.

    Pair i is (x[i], y[i]) of two (N, n) batches.  Returns the max over
    pairs and field indices of |A_l(x) - A_l(y)| / |x-y|^alpha, or 0.0 when
    N is 0.
    """
    if not (0.0 < alpha <= 1.0):
        raise FieldError(f"alpha must lie in (0, 1], got {alpha}")
    x = _points(x, fs.n, "hoelder_estimate")
    y = _points(y, fs.n, "hoelder_estimate")
    if len(x) != len(y):
        raise FieldError(f"hoelder_estimate: {len(x)} points x against {len(y)} points y")
    gap = np.linalg.norm(x - y, axis=1)
    if np.any(gap == 0.0):
        raise FieldError(f"coincident pair at {x[np.argmin(gap)]}")
    best = 0.0
    for l in range(fs.m + 1):
        diff = np.linalg.norm(fs.A(l, x) - fs.A(l, y), axis=1)
        best = max(best, float(np.max(diff / gap ** alpha, initial=0.0)))
    return best


def g_function(fs: VectorFieldSet, x) -> np.ndarray:
    """Sum over l of the squared Frobenius norm of the weak derivative at
    each point of the (N, n) batch x: shape (N,).

    A declared zero drift is not evaluated; its DA(0) adds nothing."""
    fs.require_dfield()
    pts = _points(x, fs.n, "g_function")
    first = 1 if fs.zero_drift else 0
    return _g_sum([None] * first + [fs.DA(l, pts) for l in range(first, fs.m + 1)])


def _g_sum(das) -> np.ndarray | float:
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


def condition_g_estimate(fs: VectorFieldSet, sigma: float, T0: float, x,
                         samples: int, seed: int, *,
                         growth_ratio: float = 2.0,
                         replicates: int = 8) -> ConditionGResult:
    """Monte Carlo check of the small-time integrability of exp(sigma G).

    Estimates int_0^{T0} int exp(sigma G(y)) K_s(x, y) dy ds via the identity
    int exp(sigma G(y)) K_s(x, y) dy = (2 pi)^{n/2} E[exp(sigma G(Y))] with
    Y normal, mean x, covariance s I, and s uniform on (0, T0].

    Divergence is detected by sample doubling: each replicate draws an
    independent batch of ``samples`` and one of ``2 * samples`` points; the
    flag is set when any replicate grows by more than ``growth_ratio``.  A
    single doubling has roughly coin-flip power against borderline
    non-integrable cases, hence the replication.
    """
    if sigma <= 0 or T0 <= 0:
        raise FieldError("condition_g_estimate: sigma and T0 must be positive")
    if samples < 10_000:
        raise FieldError("condition_g_estimate: need at least 1e4 samples")
    if seed < 0:
        raise FieldError(f"condition_g_estimate: seed must be a nonnegative integer, got {seed}")
    fs.require_dfield()
    x = _start_vector(x, fs.n)
    scale = T0 * (2.0 * math.pi) ** (fs.n / 2.0)

    def one_batch(rng, k):
        s = rng.uniform(0.0, T0, k)
        y = x + np.sqrt(s)[:, None] * rng.standard_normal((k, fs.n))
        with np.errstate(over="ignore"):
            return np.exp(sigma * g_function(fs, y))

    root = np.random.SeedSequence(seed)
    worst = 0.0
    all_vals = []
    for rep, ss in enumerate(root.spawn(replicates)):
        rng = np.random.default_rng(ss)
        small = one_batch(rng, samples)
        big = one_batch(rng, 2 * samples)
        ratio = float(big.mean() / small.mean())
        worst = max(worst, ratio)
        all_vals.append(small)
        all_vals.append(big)
    pooled = np.concatenate(all_vals)
    est = scale * float(pooled.mean())
    se = scale * float(pooled.std(ddof=1) / math.sqrt(pooled.size))
    return ConditionGResult(est, bool(worst > growth_ratio), worst, se, int(pooled.size))
