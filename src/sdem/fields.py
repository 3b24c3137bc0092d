"""Coefficient families for SDEs of Markovian type.

A family consists of a drift field (index 0) and m diffusion fields
(indices 1..m) on R^n, together with an optional chosen version of the
weak derivative of each field and regularity metadata (ellipticity floor,
Hoelder constant/exponent, sup bound, growth class).

Evaluators are vectorized: points may be a single array of shape (n,) or a
batch of shape (..., n); field values have the same leading shape, and
derivative values carry a trailing (n, n) matrix axis.  All evaluators are
pure and safe for concurrent use.  The ``log_example`` diffusion is
evaluated through the closed form of its antiderivative, with no table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import erfc

__all__ = [
    "FieldError",
    "DerivativeUnavailableError",
    "FieldMeta",
    "GrowthProfile",
    "VectorFieldSet",
    "builtin_field",
    "field_to_json",
    "field_from_json",
    "ellipticity_margin",
    "hoelder_estimate",
    "g_function",
    "condition_g_estimate",
    "ConditionGResult",
    "check_growth_profile",
    "radial_cutoff",
    "finite_difference_dfield",
]


class FieldError(ValueError):
    """Invalid field construction or evaluation request."""


class DerivativeUnavailableError(FieldError):
    """Raised when an operation needs a weak derivative that was not supplied."""


@dataclass(frozen=True)
class GrowthProfile:
    """Nondecreasing controls psi1 (derivative energy) and psi2 (field size)."""

    psi1: Callable[[np.ndarray], np.ndarray]
    psi2: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FieldMeta:
    theta: float = 0.0          # uniform ellipticity lower bound (0 = not claimed)
    hoelder_K: float = 0.0
    hoelder_alpha: float = 1.0  # exponent in (0, 1]
    bound_M: float = math.inf
    growth: str = "bounded"     # bounded | linear | custom
    profile: Optional[GrowthProfile] = None


def check_growth_profile(profile: GrowthProfile, radii,
                         linear_bound_C: Optional[float] = None) -> None:
    """Validate the growth controls on sampled radii.

    Both controls must be nonnegative and nondecreasing on the samples;
    with ``linear_bound_C`` given, the field-size control must also stay
    under C (1 + s) there.
    """
    radii = np.sort(np.asarray(radii, dtype=float).reshape(-1))
    if radii.size == 0:
        raise FieldError("check_growth_profile: empty sample set")
    p1 = np.asarray(profile.psi1(radii), dtype=float)
    p2 = np.asarray(profile.psi2(radii), dtype=float)
    for name, vals in (("psi1", p1), ("psi2", p2)):
        if np.any(vals < 0):
            raise FieldError(f"growth control {name} is negative on the samples")
        if np.any(np.diff(vals) < -1e-12):
            raise FieldError(f"growth control {name} is not nondecreasing on the samples")
    if linear_bound_C is not None and np.any(p2 > linear_bound_C * (1.0 + radii)):
        raise FieldError("growth control psi2 exceeds the linear bound C (1 + s)")


def _as_batch(x: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Coerce a point or point batch to shape (N, n); report if it was single."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if n != 1:
            raise FieldError(f"scalar point given for dimension {n}")
        return x.reshape(1, 1), True
    if x.shape[-1] != n:
        raise FieldError(f"point has dimension {x.shape[-1]}, field set has n={n}")
    if x.ndim == 1:
        return x.reshape(1, n), True
    return x.reshape(-1, n), False


@dataclass(frozen=True)
class VectorFieldSet:
    """Drift and diffusion fields with an optional weak-derivative version.

    ``A(l, x)`` evaluates field l (0 = drift) at x; ``DA(l, x)``, when
    present, evaluates a fixed version of its weak derivative as an
    n-by-n matrix.  Which version of the weak derivative enters is a
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

    @property
    def has_weak_derivative(self) -> bool:
        return self.DA is not None

    def require_dfield(self):
        if self.DA is None:
            raise DerivativeUnavailableError(
                f"weak derivative unavailable for field set {self.name!r}"
            )

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        """Stack the diffusion fields as columns: shape (..., n, m)."""
        cols = [self.A(l, x) for l in range(1, self.m + 1)]
        return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# built-in families


def _bm(n: int) -> VectorFieldSet:
    basis = np.eye(n)

    def A(l, x):
        pts, single = _as_batch(x, n)
        out = np.zeros_like(pts) if l == 0 else np.broadcast_to(basis[l - 1], pts.shape).copy()
        return out[0] if single else out.reshape(np.asarray(x).shape)

    def DA(l, x):
        pts, single = _as_batch(x, n)
        out = np.zeros((pts.shape[0], n, n))
        return out[0] if single else out.reshape(np.asarray(x).shape[:-1] + (n, n))

    meta = FieldMeta(theta=1.0, hoelder_K=0.0, hoelder_alpha=0.5, bound_M=1.0)
    return VectorFieldSet(n, n, A, DA, meta, name="bm", params={"n": n}, zero_drift=True,
                          constant_diffusion=True)


def _ou(lam: float) -> VectorFieldSet:
    if lam <= 0:
        raise FieldError("ou: mean-reversion rate must be positive")

    def A(l, x):
        pts, single = _as_batch(x, 1)
        out = -lam * pts if l == 0 else np.ones_like(pts)
        return out[0] if single else out.reshape(np.asarray(x).shape)

    def DA(l, x):
        pts, single = _as_batch(x, 1)
        val = -lam if l == 0 else 0.0
        out = np.full((pts.shape[0], 1, 1), val)
        return out[0] if single else out.reshape(np.asarray(x).shape[:-1] + (1, 1))

    meta = FieldMeta(theta=1.0, hoelder_K=lam, hoelder_alpha=1.0, growth="linear")
    return VectorFieldSet(1, 1, A, DA, meta, name="ou", params={"lam": lam},
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
        pts, single = _as_batch(x, n)
        col = b if l == 0 else mat[:, l - 1]
        out = np.broadcast_to(col, pts.shape).copy()
        return out[0] if single else out.reshape(np.asarray(x).shape)

    def DA(l, x):
        pts, single = _as_batch(x, n)
        out = np.zeros((pts.shape[0], n, n))
        return out[0] if single else out.reshape(np.asarray(x).shape[:-1] + (n, n))

    theta = float(sv[-1] ** 2)
    meta = FieldMeta(theta=theta, hoelder_K=0.0, hoelder_alpha=0.5,
                     bound_M=float(np.abs(mat).sum(axis=0).max() + np.abs(b).max()))
    return VectorFieldSet(n, m, A, DA, meta, name="const_shift",
                          params={"matrix": mat.tolist(), "shift": b.tolist()},
                          constant_diffusion=True)


_SMALLEST_SUBNORMAL = 5e-324
_HALF_SQRT_PI = math.sqrt(math.pi) / 2.0


def _log_antiderivative(t: np.ndarray, beta: float) -> np.ndarray:
    """I(t) = int_0^min(t, 1) sqrt(beta |log y|) dy for t >= 0, in closed form.

    The substitution y = exp(-u^2) gives
    int_0^t sqrt(-log y) dy = t sqrt(-log t) + (sqrt(pi)/2) erfc(sqrt(-log t)).
    At t = 0 the logarithm is taken at the smallest subnormal instead, where
    erfc underflows to exactly 0, so I(0) = 0 with no warning; NaN stays NaN.
    """
    t = np.minimum(t, 1.0)
    u = np.maximum(t, _SMALLEST_SUBNORMAL)
    # in place from here on: the stacks are (nodes x points) long
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

    def A(l, x):
        pts, single = _as_batch(x, 1)
        if l == 0:
            out = np.zeros_like(pts)
        else:
            out = _log_antiderivative(np.abs(pts[:, 0]), beta)
            np.copysign(out, pts[:, 0], out=out)
            out += 1.0
            out = out[:, None]
        return out[0] if single else out.reshape(np.asarray(x).shape)

    def DA(l, x):
        pts, single = _as_batch(x, 1)
        if l == 0:
            v = np.zeros(pts.shape[0])
        else:
            # chosen version of the weak derivative: 0 at the origin and
            # outside the unit interval
            t = np.abs(pts[:, 0])
            v = np.zeros_like(t)
            np.log(t, out=v, where=(t > 0) & (t <= 1.0))
            np.abs(v, out=v)
            v *= beta
            np.sqrt(v, out=v)
        out = v.reshape(-1, 1, 1)
        return out[0] if single else out.reshape(np.asarray(x).shape[:-1] + (1, 1))

    theta = (1.0 - math.sqrt(beta) * math.sqrt(math.pi) / 2.0) ** 2
    if theta <= 0:
        raise FieldError(f"log_example: beta={beta} destroys ellipticity (needs beta < 4/pi)")
    meta = FieldMeta(theta=theta, hoelder_K=2.0 * math.sqrt(beta),
                     hoelder_alpha=0.5, bound_M=1.0 + math.sqrt(beta * math.pi) / 2.0)
    return VectorFieldSet(1, 1, A, DA, meta, name="log_example", params={"beta": beta},
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
    return factory(**params)


def field_to_json(fs: VectorFieldSet) -> dict:
    """Serializable description: {name, params, n, m, meta}."""
    meta = {
        "theta": fs.meta.theta,
        "hoelder_K": fs.meta.hoelder_K,
        "hoelder_alpha": fs.meta.hoelder_alpha,
        "bound_M": fs.meta.bound_M if math.isfinite(fs.meta.bound_M) else None,
        "growth": fs.meta.growth,
    }
    return {"name": fs.name, "params": fs.params, "n": fs.n, "m": fs.m, "meta": meta}


def field_from_json(doc: dict) -> VectorFieldSet:
    name = doc["name"]
    if name not in _BUILTINS:
        raise FieldError(
            f"field {name!r} is not a built-in; custom fields are registered programmatically"
        )
    fs = builtin_field(name, **doc.get("params", {}))
    if "n" in doc and doc["n"] != fs.n:
        raise FieldError(f"declared n={doc['n']} does not match constructed n={fs.n}")
    if "m" in doc and doc["m"] != fs.m:
        raise FieldError(f"declared m={doc['m']} does not match constructed m={fs.m}")
    return fs


# ---------------------------------------------------------------------------
# regularity checkers


def ellipticity_margin(fs: VectorFieldSet, sample_points) -> float:
    """Smallest eigenvalue of a(x) = A(x) A(x)^T over the sample points."""
    pts, _ = _as_batch(np.asarray(sample_points, dtype=float), fs.n)
    if pts.shape[0] == 0:
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


def hoelder_estimate(fs: VectorFieldSet, alpha: float, pairs) -> float:
    """Empirical lower bound for the Hoelder constant over point pairs.

    Returns max over pairs and field indices of |A_l(x) - A_l(y)| / |x-y|^alpha.
    """
    if not (0.0 < alpha <= 1.0):
        raise FieldError(f"alpha must lie in (0, 1], got {alpha}")
    best = 0.0
    for x, y in pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        gap = float(np.linalg.norm(x - y))
        if gap == 0.0:
            raise FieldError(f"coincident pair at {x}")
        for l in range(fs.m + 1):
            diff = float(np.linalg.norm(fs.A(l, x) - fs.A(l, y)))
            best = max(best, diff / gap ** alpha)
    return best


def g_function(fs: VectorFieldSet, x) -> np.ndarray | float:
    """Sum over l of the squared Frobenius norm of the weak derivative at x.

    A declared zero drift is not evaluated; its DA(0) adds nothing."""
    fs.require_dfield()
    pts, single = _as_batch(np.asarray(x, dtype=float), fs.n)
    first = 1 if fs.zero_drift else 0
    total = _g_sum([None] * first + [fs.DA(l, pts) for l in range(first, fs.m + 1)])
    if single:
        return float(total[0])
    return total.reshape(np.asarray(x).shape[:-1])


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
    fs.require_dfield()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    scale = T0 * (2.0 * math.pi) ** (fs.n / 2.0)

    def one_batch(rng, k):
        s = rng.uniform(0.0, T0, k)
        y = x + np.sqrt(s)[:, None] * rng.standard_normal((k, fs.n))
        g = g_function(fs, y)
        with np.errstate(over="ignore"):
            vals = np.exp(sigma * np.asarray(g))
        return vals

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


# ---------------------------------------------------------------------------
# radial cutoff


def _radius(pts):
    """|x| over the last axis, shape (..., 1).  Where squaring the entries
    overflows, the point is first scaled by max_i |x_i|, so the radius of a
    finite point is finite whenever it is below the largest double; above
    it, the radius is inf, with no warning."""
    with np.errstate(over="ignore"):
        r = np.linalg.norm(pts, axis=-1, keepdims=True)
        big = np.isinf(r[..., 0]) & np.all(np.isfinite(pts), axis=-1)
        if np.any(big):
            s = np.max(np.abs(pts[big]), axis=-1, keepdims=True)
            r[big] = s * np.linalg.norm(pts[big] / s, axis=-1, keepdims=True)
    return r


def _unit(pts):
    """x / |x| over the last axis, taken through the scaled point
    u = x / max_i |x_i|, whose norm lies in [1, sqrt(n)]: the direction of
    every finite point is finite, even where |x| exceeds the largest double.
    The origin maps to itself."""
    s = np.max(np.abs(pts), axis=-1, keepdims=True)
    u = pts / np.where(s > 0, s, 1.0)
    ru = np.linalg.norm(u, axis=-1, keepdims=True)
    return u / np.where(ru > 0, ru, 1.0)


def radial_cutoff(fs: VectorFieldSet, N: float) -> VectorFieldSet:
    """Clamp every field at radius N along rays through the origin.

    Inside the closed ball of radius N the family is unchanged.  Outside,
    fields take their value at the radial projection N x / |x| and the
    derivative follows by the chain rule through that projection.  On the
    sphere |x| = N itself the inside limit is used; the mismatch lives on a
    measure-zero set and does not affect the simulated flows.  The
    projection goes through the unit direction of x, never through |x|, so
    a finite point whose norm exceeds the largest double still lands on the
    sphere.  A constant field stays constant, so the declarations carry over.
    """
    if N <= 0:
        raise FieldError("radial_cutoff: N must be positive")
    n = fs.n

    def project(pts):
        r = _radius(pts)
        outside = r[..., 0] > N
        safe_r = np.where(r > 0, r, 1.0)
        proj = np.where(outside[..., None], N * _unit(pts), pts)
        # force projected radii to land at <= N so the cutoff is exactly
        # idempotent despite rounding in the rescale
        for _ in range(3):
            r2 = np.linalg.norm(proj, axis=-1)
            high = r2 > N
            if not np.any(high):
                break
            proj[high] = np.nextafter(proj[high], 0.0)
        return proj, outside, safe_r

    def A(l, x):
        pts, single = _as_batch(x, n)
        proj, _, _ = project(pts)
        out = fs.A(l, proj)
        return out[0] if single else out.reshape(np.asarray(x).shape)

    DA = None
    if fs.DA is not None:
        def DA(l, x):
            pts, single = _as_batch(x, n)
            proj, outside, safe_r = project(pts)
            base = fs.DA(l, proj)                      # (N, n, n) at projected points
            # d/dx of x -> N x / |x| is (N/|x|) (I - xhat xhat^T)
            xhat = _unit(pts)
            tang = np.eye(n) - xhat[:, :, None] * xhat[:, None, :]
            jac = (N / safe_r)[:, :, None] * tang
            out = np.where(outside[:, None, None], base @ jac, base)
            return out[0] if single else out.reshape(np.asarray(x).shape[:-1] + (n, n))

    meta = replace(fs.meta, growth="bounded")
    return VectorFieldSet(n, fs.m, A, DA, meta, name=f"{fs.name}|cutoff",
                          params={**fs.params, "cutoff_N": N}, zero_drift=fs.zero_drift,
                          constant_diffusion=fs.constant_diffusion)


def finite_difference_dfield(fs: VectorFieldSet, l: int, x, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference Jacobian of field l at x (test oracle)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = fs.n
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        out[:, j] = (fs.A(l, x + e) - fs.A(l, x - e)) / (2.0 * step)
    return out
