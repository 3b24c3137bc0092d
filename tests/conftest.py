import math

import numpy as np
import pytest

from sdem.fields import FieldMeta, VectorFieldSet
from sdem.flow import BrownianBatch, TimeGrid
from sdem.kernel import _CHUNK


def scalar_drift_field(f, df=None, name="scalar"):
    """Wrap a scalar function as the drift of a 1-d field set (unit noise)."""

    def A(l, x):
        return np.asarray(f(x[:, 0]), dtype=float)[:, None] if l == 0 else np.ones_like(x)

    DA = None
    if df is not None:
        def DA(l, x):
            v = np.asarray(df(x[:, 0]), dtype=float) if l == 0 else np.zeros(len(x))
            return v.reshape(-1, 1, 1)

    return VectorFieldSet(1, 1, A, DA, FieldMeta(theta=1.0), name=name)


def engine_inputs(fs, x0, t, paths, seed, dt=1e-3):
    """(fs, x0, grid, noise) for `paths` paths of fs from x0 to the horizon t
    on steps of about dt, the noise drawn from `seed`."""
    grid = TimeGrid(t, max(1, round(t / dt)))
    return fs, x0, grid, BrownianBatch(seed, paths, grid, fs.m)


def finite_difference_dfield(fs, l, x, step=1e-5):
    """Central finite-difference Jacobian of field l at the point x, the
    reference that supplied and chain-rule derivatives are checked against.
    Row j of the batches x +/- step e is x +/- step e_j, which gives column j."""
    x = np.asarray(x, dtype=float)
    e = step * np.eye(len(x))
    return ((fs.A(l, x + e) - fs.A(l, x - e)) / (2.0 * step)).T


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
