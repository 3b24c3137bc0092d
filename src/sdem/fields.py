"""Coefficient families for SDEs of Markovian type.

A family consists of a drift field (index 0) and m diffusion fields
(indices 1..m) on R^n, together with an optional chosen version of the
weak derivative of each field.  Ellipticity is measured, not declared:
``ellipticity_margin`` takes the smallest eigenvalue of A A^T over sample
points.

Evaluators take one point format, a float (N, n) batch, and return one row
per point (see ``VectorFieldSet``); they do no shape handling of their own.
Points from a caller are checked once, where they enter, and so is each
vector a caller hands in (a start point, a direction, a density's centre):
``_vector`` requires n finite entries and names the key otherwise.  Each
scalar is read by one rule, ``_read`` with a ``Kind``: a count is an
integer >= 1 (2.0 is one), a seed an integer >= 0, any other scalar a finite
number; a bool is not a number, and a non-finite value is never a parameter.
The built-in and mollified evaluators are row-wise exact: a row's value has
the same bytes alone and in a batch of any size.  A custom field is as
exact as its own code.  All evaluators are pure and safe for concurrent
use, and every array they return is a fresh one that the caller owns.  The
``log_example`` diffusion is evaluated through the closed form of its
antiderivative, with no table; its temporaries live in per-thread
workspaces.  Its infimum is 1 - sqrt(beta pi)/2, so beta must lie in
(0, 4/pi).  The closed form needs ``erfc``: ``scipy.special`` is imported
when a ``log_example`` is built, so a process that builds only the other
families never loads scipy.  Every built-in parameter must be given, of its
kind and finite: a missing one, a value of the wrong kind (a string for a
rate, 2.5 for a dimension, a 3-d matrix) and a non-finite or out-of-range
value each raise a FieldError naming the parameter.
"""

from __future__ import annotations

import inspect
import math
import numbers
import sys
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "FieldError",
    "DerivativeUnavailableError",
    "VectorFieldSet",
    "builtin_field",
    "field_from_json",
    "ellipticity_margin",
    "hoelder_estimate",
    "g_function",
    "condition_g_estimate",
    "ConditionGResult",
    "MIN_SAMPLES",
]


class FieldError(ValueError):
    """Invalid field construction or evaluation request."""


class DerivativeUnavailableError(FieldError):
    """Raised when an operation needs a weak derivative that was not supplied."""


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


def _points(x, n: Optional[int], where: str) -> np.ndarray:
    """A caller's points as the float (N, n) batch evaluators take; with n
    None, a batch of any width n."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or n not in (None, pts.shape[1]):
        raise FieldError(f"{where}: points must be an (N, {n or 'n'}) array, "
                         f"got shape {pts.shape}")
    return pts


def _vector(v, key: str, n: int) -> np.ndarray:
    """A caller's vector as n finite float entries; any other length, or an
    entry that is not finite, raises a FieldError that names ``key``."""
    try:
        v = np.asarray(v, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise FieldError(f"{key} must be {n} numbers, got {v!r}") from None
    if len(v) != n:
        raise FieldError(f"{key} has dimension {len(v)}, expected n={n}")
    if not np.all(np.isfinite(v)):
        raise FieldError(f"{key} = {v} is not finite")
    return v


class Kind(NamedTuple):
    """What a number a caller hands in must be: the phrase an error names
    it by, the test of a value (n is the field set's dimension), and what
    the caller is handed for a value that passes."""

    must_be: str
    accepts: Callable[[object, int], bool]
    read: Callable = float


def _read(name: str, value, kind: Kind, n: int = 0):
    if not kind.accepts(value, n):
        raise FieldError(f"{name} must be {kind.must_be.format(n=n)}, got {value!r}")
    return kind.read(value)


def _reject_unknown(where: str, doc: dict, known) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise FieldError(f"unknown {where} key(s) {unknown}; accepted: {sorted(known)}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(value) -> bool:
    # math.isfinite raises on an int too large for a float; this calls it not finite
    return _is_number(value) and abs(value) <= sys.float_info.max


def _whole(value) -> bool:
    return _finite(value) and value == math.floor(value)


# a count is an exact integer: 2.0 is 2, and 2.7 is an error, not 2
_COUNT = Kind("an integer >= 1", lambda v, n: _whole(v) and v >= 1, int)
_SEED = Kind("an integer >= 0", lambda v, n: _whole(v) and v >= 0, int)
_NUMBER = Kind("a finite number", lambda v, n: _finite(v))
_POSITIVE = Kind("a finite positive number", lambda v, n: _finite(v) and v > 0)

# the fewest samples an estimate is taken from: a density estimate's sample,
# the paths of kernel-bound, and each batch of condition_g_estimate
MIN_SAMPLES = 10_000


def _enough(name: str, count: int) -> None:
    """A FieldError that names ``name`` when ``count`` is below MIN_SAMPLES."""
    if count < MIN_SAMPLES:
        raise FieldError(f"{name}={count} is below the {MIN_SAMPLES} samples an estimate needs")


@dataclass(frozen=True)
class VectorFieldSet:
    """Drift and diffusion fields with an optional weak-derivative version.

    ``A(l, x)`` evaluates field l (0 = drift) at a float (N, n) batch x and
    returns (N, n); ``DA(l, x)``, when present, evaluates a fixed version of
    its weak derivative there and returns (N, n, n).  Neither checks or
    reshapes x, so a custom field is written for batches alone.  Points
    from a caller are checked once, where they enter: the engine checks its
    start point with ``_vector``, and ``ellipticity_margin``,
    ``hoelder_estimate``, ``g_function`` and the function ``mollify_scalar``
    returns check theirs with ``_points``, which names the expected (N, n)
    and the shape it got.

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
    block.  A declaration, of any kind, that is false changes the
    simulated flow.
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
    n = _read("bm: n", n, _COUNT)
    basis = np.eye(n)

    def A(l, x):
        return np.zeros_like(x) if l == 0 else np.broadcast_to(basis[l - 1], x.shape).copy()

    def DA(l, x):
        return np.zeros((len(x), n, n))

    return VectorFieldSet(n, n, A, DA, name="bm", zero_drift=True,
                          constant_diffusion=True)


def _ou(lam: float) -> VectorFieldSet:
    lam = _read("ou: lam", lam, _POSITIVE)

    def A(l, x):
        return -lam * x if l == 0 else np.ones_like(x)

    def DA(l, x):
        return np.full((len(x), 1, 1), -lam if l == 0 else 0.0)

    return VectorFieldSet(1, 1, A, DA, name="ou", affine_drift=True, constant_diffusion=True)


def _const_shift(matrix, shift) -> VectorFieldSet:
    try:
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    except (TypeError, ValueError):
        raise FieldError(f"const_shift: matrix must be an (n, m) array of numbers, "
                         f"got {matrix!r}") from None
    if mat.ndim != 2:
        raise FieldError(f"const_shift: matrix must be an (n, m) array of numbers, "
                         f"got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise FieldError(f"const_shift: matrix = {mat.tolist()} is not finite")
    n, m = mat.shape
    b = _vector(shift, "const_shift: shift", n)
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


def _log_antiderivative(x: np.ndarray, beta: float, ws: _Workspace, erfc) -> np.ndarray:
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
    beta = _read("log_example: beta", beta, _NUMBER)
    if not 0.0 < beta < 4.0 / math.pi:
        raise FieldError(f"log_example: beta must lie in (0, 4/pi), where the diffusion "
                         f"stays uniformly elliptic, got beta={beta!r}")
    # imported here, where the one family that needs it is built, so that a
    # process on the other families never loads scipy
    from scipy.special import erfc

    ws = _Workspace()

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
    _reject_unknown("field spec", doc, ("name", "params", "n", "m"))
    name = doc["name"]
    if name not in _BUILTINS:
        raise FieldError(
            f"field {name!r} is not a built-in; custom fields are registered programmatically"
        )
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise FieldError(f"field 'params' must be an object, got {params!r}")
    declared = {key: _read(f"field spec key {key!r}", doc[key], _COUNT)
                for key in ("n", "m") if key in doc}
    fs = builtin_field(name, **params)
    for key, value in declared.items():
        if value != getattr(fs, key):
            raise FieldError(f"declared {key}={value} does not match constructed "
                             f"{key}={getattr(fs, key)}")
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
    alpha = _read("hoelder_estimate: alpha", alpha, _NUMBER)
    if not 0.0 < alpha <= 1.0:
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
    against borderline non-integrable cases, hence the replication.
    ``samples`` below MIN_SAMPLES raises, after the other arguments are read.
    """
    sigma = _read("condition_g_estimate: sigma", sigma, _POSITIVE)
    T0 = _read("condition_g_estimate: T0", T0, _POSITIVE)
    samples = _read("condition_g_estimate: samples", samples, _COUNT)
    seed = _read("condition_g_estimate: seed", seed, _SEED)
    fs.require_dfield()
    x = _vector(x, "start point x0", fs.n)
    _enough("condition_g_estimate: samples", samples)
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
        ratio = float(big.mean() / small.mean())
        worst = max(worst, ratio)
        all_vals.append(small)
        all_vals.append(big)
    pooled = np.concatenate(all_vals)
    est = scale * float(pooled.mean())
    se = scale * float(pooled.std(ddof=1) / math.sqrt(pooled.size))
    return ConditionGResult(est, bool(worst > growth_ratio), worst, se, int(pooled.size))
