import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sdem.fields import FieldError, VectorFieldSet
from sdem.flow import BrownianBatch, JacSupNorm, TimeGrid, run_ensemble, run_multi, unflagged
from sdem.inputs import NUMBER, points, read
from sdem.kernel import _CHUNK
from sdem.malliavin import CameronMartinPath, DivergenceWeight, bismut_gradient
from sdem.mollify import mollify_field


def scalar_drift_field(f, df=None, name="scalar"):
    """Wrap a scalar function as the drift of a 1-d field set (unit noise)."""

    def A(l, x):
        return np.asarray(f(x[:, 0]), dtype=float)[:, None] if l == 0 else np.ones_like(x)

    DA = None
    if df is not None:
        def DA(l, x):
            v = np.asarray(df(x[:, 0]), dtype=float) if l == 0 else np.zeros(len(x))
            return v.reshape(-1, 1, 1)

    return VectorFieldSet(1, 1, A, DA, name=name)


def mollified_scalar(f, eps, n=1, nodes=16):
    """A scalar field on R^n, f mapping an (N, n) batch to (N,) values,
    smoothed at scale eps: `mollify_field` of a zero-drift field set with
    one noise, whose A(1) carries f in its first column, read back as (N,)
    values."""

    def A(l, x):
        out = np.zeros_like(x)
        if l == 1:
            out[:, 0] = f(x)
        return out

    smoothed = mollify_field(VectorFieldSet(n, 1, A, name="scalar", zero_drift=True), eps, nodes)
    return lambda x: smoothed.A(1, x)[:, 0]


def counting(fs):
    """fs, with its declarations, as a field set whose A and DA count what
    they are asked: (fields, calls, rows), the Counters keyed by ("A" or
    "DA", l) and counting calls and rows.  A field set without DA stays
    without one."""
    calls, rows = Counter(), Counter()

    def counted(name, fn):
        def wrapped(l, x):
            calls[name, l] += 1
            rows[name, l] += len(x)
            return fn(l, x)
        return wrapped

    fields = VectorFieldSet(fs.n, fs.m, counted("A", fs.A),
                            None if fs.DA is None else counted("DA", fs.DA), name=fs.name,
                            zero_drift=fs.zero_drift, affine_drift=fs.affine_drift,
                            constant_diffusion=fs.constant_diffusion)
    return fields, calls, rows


def engine_inputs(fs, x0, t, paths, seed, dt=1e-3):
    """(fs, x0, noise) for `paths` paths of fs from x0 to the horizon t
    on steps of about dt, the noise drawn from `seed`."""
    grid = TimeGrid(t, max(1, round(t / dt)))
    return fs, x0, BrownianBatch(seed, paths, grid, fs.m)


def bismut_report(f, v0, fs, x0, noise):
    """The Bismut route of ``gradient_routes`` alone: one run of fs from x0
    carrying the divergence weight of the constant direction v0, without
    the two bumped runs the other routes need."""
    res = run_ensemble(fs, x0, noise,
                       trackers=(DivergenceWeight(CameronMartinPath.constant(v0)),))
    return bismut_gradient(f, unflagged(res.state_T, res.flag),
                           unflagged(res.extras["div_weight"], res.flag), noise.grid.T,
                           res.n_flagged)


def finite_difference_dfield(fs, l, x, step=1e-5):
    """Central finite-difference Jacobian of field l at the point x, the
    reference that supplied and chain-rule derivatives are checked against.
    Row j of the batches x +/- step e is x +/- step e_j, which gives column j."""
    x = np.asarray(x, dtype=float)
    e = step * np.eye(len(x))
    return ((fs.A(l, x + e) - fs.A(l, x - e)) / (2.0 * step)).T


def ellipticity_margin(fs: VectorFieldSet, sample_points) -> float:
    """Smallest eigenvalue of a(x) = A(x) A(x)^T over the (N, n) sample points:
    no family declares its ellipticity floor, so the tests measure it."""
    pts = points(sample_points, fs.n, "ellipticity_margin")
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
    alpha = read("hoelder_estimate: alpha", alpha, NUMBER)
    if not 0.0 < alpha <= 1.0:
        raise FieldError(f"alpha must lie in (0, 1], got {alpha}")
    x = points(x, fs.n, "hoelder_estimate")
    y = points(y, fs.n, "hoelder_estimate")
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


def within(rep, target, k=3.0) -> bool:
    """True if the report's estimate lies within k standard errors of target."""
    return abs(rep.estimate - target) <= k * rep.se


def spatial_derivative_check(fs, x0, v0, h, noise):
    """The derivative flow against a central spatial finite difference.

    Three runs share identical increments: starts x0 +/- h v0 (states only)
    and x0, whose derivative matrix a tracker reads, so that run alone
    carries it.  Returns the ensemble means of the finite-difference
    direction and of V_T v0, and the mean pathwise gap."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    runs = [(fs, x0 + h * v0), (fs, x0 - h * v0), (fs, x0)]
    results, _ = run_multi(runs, noise, trackers=(JacSupNorm(2),))
    plus, minus, at, flag = *results, results[0].flag
    fd_paths = (unflagged(plus.state_T, flag) - unflagged(minus.state_T, flag)) / (2.0 * h)
    vt_paths = np.einsum("bij,j->bi", unflagged(at.jac_T, flag), v0)
    gap = float(np.mean(np.linalg.norm(fd_paths - vt_paths, axis=1)))
    return fd_paths.mean(axis=0), vt_paths.mean(axis=0), gap


def sup_error(f, f_eps, grid) -> float:
    """Max over an (N, n) grid of |f_eps(x) - f(x)| for scalar fields."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise FieldError("sup_error: empty grid")
    a = np.asarray(f(grid), dtype=float)
    b = np.asarray(f_eps(grid), dtype=float)
    return float(np.max(np.abs(b - a)))


def density_estimate_oracle(pts, query):
    """The KDE as first written, one (rows, Q) kernel matrix per _CHUNK of
    samples, every kernel evaluated: the reference that `density_estimate`,
    which streams each column over tiles and sums only the kernels that can
    move a sum, must match bit for bit.  numpy sums each column of the
    matrix row after row when Q >= 2; a single column it sums pairwise, so
    the reference holds for two or more query points.  `pts` is an (N, n)
    float array."""
    N, n = pts.shape
    h = query.bandwidth
    norm = 1.0 / ((2.0 * math.pi) ** (n / 2.0) * h ** n)
    q = query.query_points
    total = np.zeros(len(q))
    total_sq = np.zeros(len(q))
    for lo in range(0, N, _CHUNK):
        block = pts[lo:lo + _CHUNK]
        d2 = np.sum((block[:, None, :] - q[None, :, :]) ** 2, axis=-1)
        k = norm * np.exp(-d2 / (2.0 * h * h))
        total += k.sum(axis=0)
        total_sq += (k * k).sum(axis=0)
    mean = total / N
    var = np.maximum(total_sq / N - mean ** 2, 0.0)
    se = np.sqrt(var / (N - 1))
    return mean, se


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak, in bytes, of the memory traced
    while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
