import math

import numpy as np
import pytest

from sdem.fields import FieldMeta, VectorFieldSet, _as_batch
from sdem.flow import BrownianBatch, TimeGrid
from sdem.kernel import _CHUNK


def scalar_drift_field(f, df=None, name="scalar"):
    """Wrap a scalar function as the drift of a 1-d field set (unit noise)."""

    def A(l, x):
        pts, single = _as_batch(np.asarray(x, dtype=float), 1)
        out = np.asarray(f(pts[:, 0]), dtype=float)[:, None] if l == 0 else np.ones_like(pts)
        return out[0] if single else out.reshape(np.asarray(x).shape)

    DA = None
    if df is not None:
        def DA(l, x):
            pts, single = _as_batch(np.asarray(x, dtype=float), 1)
            v = np.asarray(df(pts[:, 0]), dtype=float) if l == 0 else np.zeros(pts.shape[0])
            out = v.reshape(-1, 1, 1)
            return out[0] if single else out.reshape(np.asarray(x).shape[:-1] + (1, 1))

    return VectorFieldSet(1, 1, A, DA, FieldMeta(theta=1.0), name=name)


def engine_inputs(fs, x0, t, paths, seed, dt=1e-3):
    """(fs, x0, grid, noise) for `paths` paths of fs from x0 to the horizon t
    on steps of about dt, the noise drawn from `seed`."""
    grid = TimeGrid(t, max(1, round(t / dt)))
    return fs, x0, grid, BrownianBatch(seed, paths, grid, fs.m)


def finite_difference_dfield(fs, l, x, step=1e-5):
    """Central finite-difference Jacobian of field l at x, the reference
    that supplied and chain-rule derivatives are checked against."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = fs.n
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        out[:, j] = (fs.A(l, x + e) - fs.A(l, x - e)) / (2.0 * step)
    return out


def density_estimate_oracle(pts, query):
    """The KDE as first written, one (rows, Q) kernel matrix per _CHUNK of
    samples: the reference that the tiled `density_estimate` must match bit
    for bit.  `pts` is an (N, n) float array."""
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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
