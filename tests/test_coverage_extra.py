"""Cross-module cases: higher dimensions, extra noise channels and the
moment-bound inequality on the rough field itself."""

import math

import numpy as np

from sdem.fields import FieldMeta, VectorFieldSet, builtin_field
from sdem.flow import (BrownianBatch, IntegratedG, JacSupNorm, PathRecorder, TimeGrid,
                       exp_g_functional, moment_sup, run_ensemble)
from sdem.harness import ExperimentConfig, run_command
from sdem.malliavin import bismut_gradient
from conftest import engine_inputs


# ---------------------------------------------------------------------------
# public surface


def test_every_all_entry_star_imports():
    # a name deleted from a module but left in its __all__ breaks
    # `from sdem.x import *`; star-import every module that declares one
    import importlib
    import pkgutil

    import sdem

    names = ["sdem"] + [f"sdem.{m.name}" for m in pkgutil.iter_modules(sdem.__path__)]
    checked = 0
    for name in names:
        if hasattr(importlib.import_module(name), "__all__"):
            exec(f"from {name} import *", {})
            checked += 1
    assert checked >= 6


# ---------------------------------------------------------------------------
# two-dimensional and multi-noise flows


def _linear_2d(mat):
    mat = np.asarray(mat, dtype=float)

    def A(l, x):
        return x @ mat.T if l == 0 else np.broadcast_to(np.eye(2)[l - 1], x.shape).copy()

    def DA(l, x):
        return np.broadcast_to(mat if l == 0 else np.zeros((2, 2)), (len(x), 2, 2)).copy()

    return VectorFieldSet(2, 2, A, DA, FieldMeta(theta=1.0), name="linear2d")


def test_2d_linear_derivative_flow_is_matrix_power():
    mat = np.array([[-1.0, 0.5], [0.0, -2.0]])
    fs = _linear_2d(mat)
    grid = TimeGrid(1.0, 400)
    noise = BrownianBatch(seed=61, paths=4, grid=grid, m=2)
    res = run_ensemble(fs, [0.3, -0.2], grid, noise, trackers=(PathRecorder(),))
    jacs = res.extras["paths_jacs"]
    expect = np.linalg.matrix_power(np.eye(2) + mat * grid.dt, grid.steps)
    assert np.max(np.abs(jacs[:, -1] - expect)) < 1e-12
    assert np.allclose(jacs[:, 0], np.eye(2))


def test_2d_bm_bismut_gradient_picks_the_direction():
    run = engine_inputs(builtin_field("bm", n=2), [0.0, 0.0], 0.5, paths=20_000, seed=62,
                        dt=2e-3)
    f = lambda s: s[:, 0]
    along = bismut_gradient(f, [1.0, 0.0], *run)
    across = bismut_gradient(f, [0.0, 1.0], *run)
    assert along.within(1.0)
    assert across.within(0.0)


def test_redundant_noise_channels_m_greater_than_n():
    fs = builtin_field("const_shift", matrix=[[1.0, 1.0]], shift=[0.0])
    grid = TimeGrid(0.5, 200)
    noise = BrownianBatch(seed=63, paths=8, grid=grid, m=2)
    res = run_ensemble(fs, [0.2], grid, noise, trackers=(PathRecorder(),))
    dW = noise.block_increments(0)
    w = np.cumsum(dW[:, :, 0] + dW[:, :, 1], axis=1)
    expect = 0.2 + np.concatenate([np.zeros((8, 1)), w], axis=1)
    assert np.max(np.abs(res.extras["paths_states"][:, :, 0] - expect)) < 1e-13
    # the semigroup of x + W^1 + W^2 still has unit gradient for f(x) = x
    run = engine_inputs(fs, [0.0], 0.5, paths=20_000, seed=64, dt=2e-3)
    rep = bismut_gradient(lambda s: s[:, 0], [1.0], *run)
    assert rep.within(1.0)


# ---------------------------------------------------------------------------
# moment bound on the rough field without smoothing


def test_moment_bound_inequality_unmollified_log_example():
    log = builtin_field("log_example", beta=1.0)
    grid = TimeGrid(0.25, 250)
    noise = BrownianBatch(seed=65, paths=8_000, grid=grid, m=1)
    res = run_ensemble(log, [0.0], grid, noise,
                       trackers=(JacSupNorm(), IntegratedG()), workers=2)
    p = 2.0
    sup = moment_sup(res, p)
    bound = exp_g_functional(res, p)
    se_log = math.hypot(sup.se / sup.estimate, bound.se / bound.estimate)
    assert math.log(sup.estimate) <= math.log(bound.estimate) + 3.0 * se_log
    # same shape for the ou field, where both sides are deterministic
    ou = builtin_field("ou", lam=1.0)
    res2 = run_ensemble(ou, [0.0], grid, noise,
                        trackers=(JacSupNorm(), IntegratedG()))
    assert moment_sup(res2, p).estimate <= exp_g_functional(res2, p).estimate


def test_exp_g_functional_log_example_small_horizon_stable():
    # below the integrability threshold the estimate stabilizes under
    # doubling the ensemble
    log = builtin_field("log_example", beta=1.0)
    grid = TimeGrid(0.1, 100)
    vals = []
    for paths in (4_000, 8_000):
        noise = BrownianBatch(seed=66, paths=paths, grid=grid, m=1)
        res = run_ensemble(log, [0.0], grid, noise, trackers=(IntegratedG(),))
        rep = exp_g_functional(res, 1.0)
        assert math.isfinite(rep.estimate) and rep.overflowed == 0
        vals.append(rep.estimate)
    assert abs(vals[1] / vals[0] - 1.0) < 0.1


# ---------------------------------------------------------------------------
# determinism of a second subcommand across worker counts


def test_gradient_command_worker_determinism(tmp_path):
    doc = ExperimentConfig(field_spec={"name": "ou", "params": {"lam": 1.0}},
                           T=0.25, steps=125, paths=4_000, seed=67, x0=(0.0,),
                           options={"t": 0.25, "f": "sin"}).to_dict()
    texts = []
    for w, sub in ((1, "a"), (6, "b")):
        out = tmp_path / sub
        cfg = ExperimentConfig.from_dict(doc, out=str(out), workers=w)
        res = run_command("gradient", cfg)
        assert res.ok, res.failures
        texts.append((out / "gradient.json").read_bytes())
    assert texts[0] == texts[1]
