"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and budget is fixed here, nothing is calibrated at
run time.
"""

import math
import time

import numpy as np

from sdem.fields import builtin_field, condition_g_estimate
from sdem.flow import BrownianBatch, PathRecorder, TimeGrid, run_ensemble
from sdem.harness import ExperimentConfig, run_command
from sdem.malliavin import (CameronMartinPath, gradient_routes, ibp_check,
                            right_inverse)
from sdem.mollify import mollify_field
from conftest import engine_inputs, mollified_scalar

WORKERS = 4


def _verdict(name: str, elapsed: float, budget: float, detail: str):
    print(f"{name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s) - {detail}")


def test_ac1_right_inverse_residual():
    t0 = time.time()
    rng = np.random.default_rng(101)
    families = [builtin_field("bm", n=2), builtin_field("ou", lam=1.0),
                builtin_field("log_example", beta=1.0)]
    for eps in (0.1, 0.05):
        families.append(mollify_field(builtin_field("log_example", beta=1.0), eps))
        families.append(mollify_field(builtin_field("ou", lam=1.0), eps))
        families.append(mollify_field(builtin_field("bm", n=2), eps))
    worst = 0.0
    for fs in families:
        pts = rng.uniform(-3, 3, (1000, fs.n))
        amat = np.asarray(fs.diffusion_matrix(pts))
        res = amat @ right_inverse(amat, pts) - np.eye(fs.n)
        worst = max(worst, float(np.max(np.sqrt(np.sum(res * res, axis=(1, 2))))))
    elapsed = time.time() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    _verdict("AC1 right-inverse residual", elapsed, 5, f"max residual {worst:.2e}")


def test_ac2_constant_coefficient_exactness():
    t0 = time.time()
    fs = builtin_field("const_shift", matrix=[[2.0]], shift=[1.0])
    grid = TimeGrid(1.0, 1000)
    noise = BrownianBatch(seed=202, paths=1000, grid=grid, m=1)
    worst = 0.0
    times = grid.times()
    exact = []
    for b in range(noise.n_blocks):
        dW = noise.block_increments(b)
        w = np.concatenate([np.zeros((dW.shape[0], 1)),
                            np.cumsum(dW[:, :, 0], axis=1)], axis=1)
        exact.append(0.5 + 2.0 * w + times[None, :])
        xi = np.full(dW.shape[0], 0.5)
        dev = 0.0
        for k in range(grid.steps):
            xi = xi + 2.0 * dW[:, k, 0] + 1.0 * grid.dt
            dev = max(dev, float(np.max(np.abs(xi - exact[-1][:, k + 1]))))
        worst = max(worst, dev)
    # same check on the engine's recorded states, every path and every step
    res = run_ensemble(fs, [0.5], noise, trackers=(PathRecorder(with_jac=False),))
    states = res.extras["paths_states"][:, :, 0]
    assert states.shape == (1000, grid.steps + 1)
    worst = max(worst, float(np.max(np.abs(states - np.concatenate(exact)))))
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    _verdict("AC2 constant-coefficient exactness", elapsed, 5,
             f"max deviation {worst:.2e}")


def test_ac3_gradient_triple_agreement():
    t0 = time.time()
    target = math.exp(-0.5)
    run = engine_inputs(builtin_field("ou", lam=1.0), [0.0], 0.5, paths=100_000,
                        seed=20260703)
    f = lambda s: s[:, 0]
    df = lambda s: np.ones_like(s)
    reps = gradient_routes(f, df, [1.0], *run, bump=1e-3, workers=WORKERS)
    pooled = math.sqrt(sum(r.se ** 2 for r in reps.values()))
    for name, rep in reps.items():
        assert abs(rep.estimate - target) <= 3.0 * pooled, (name, rep.estimate)
        assert abs(rep.estimate - target) <= 0.01 * target, (name, rep.estimate)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _verdict("AC3 gradient triple agreement", elapsed, 60,
             "  ".join(f"{k}={v.estimate:.5f}" for k, v in reps.items())
             + f"  target={target:.5f}")


def test_ac4_mollifier_regularity():
    t0 = time.time()
    f = lambda p: np.sqrt(np.abs(p[..., 0]))
    grid = np.linspace(-1.0, 1.0, 801)
    pts = grid.reshape(-1, 1)
    details = []
    for eps in (0.1, 0.01):
        fe = mollified_scalar(f, eps)
        vals = fe(pts)
        base = f(pts)
        sup = float(np.max(np.abs(vals - base)))
        assert sup <= math.sqrt(eps) + 1e-6, (eps, sup)
        # empirical Hoelder(1/2) constant over all grid pairs
        idx = np.arange(0, len(grid), 8)
        xs, ys = np.meshgrid(grid[idx], grid[idx])
        fv = vals[idx]
        num = np.abs(fv[:, None] - fv[None, :])
        den = np.sqrt(np.abs(xs - ys))
        mask = den > 0
        hoelder = float(np.max(num[mask] / den[mask]))
        # add fine pairs straddling the kink
        fine = np.concatenate([-np.geomspace(1e-4, 0.5, 40),
                               np.geomspace(1e-4, 0.5, 40)]).reshape(-1, 1)
        fvals = fe(fine)
        numf = np.abs(fvals[:, None] - fvals[None, :])
        denf = np.sqrt(np.abs(fine[:, 0][:, None] - fine[:, 0][None, :]))
        maskf = denf > 0
        hoelder = max(hoelder, float(np.max(numf[maskf] / denf[maskf])))
        assert hoelder <= 1.0 + 1e-6, (eps, hoelder)
        details.append(f"eps={eps}: sup={sup:.4f} K={hoelder:.6f}")
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _verdict("AC4 mollifier regularity", elapsed, 10, "  ".join(details))


def _ac5_config():
    return ExperimentConfig(
        field_spec={"name": "log_example", "params": {"beta": 1.0}},
        eps=(0.2, 0.1, 0.05, 0.025), T=0.25, steps=250, paths=10_000,
        seed=20260505, x0=(0.0,), workers=WORKERS, options={"p": 2.0})


def test_ac5_convergence_trends():
    t0 = time.time()
    flow_res = run_command("converge-flow", _ac5_config())
    deriv_res = run_command("converge-derivative", _ac5_config())
    assert flow_res.ok, flow_res.failures
    assert deriv_res.ok, deriv_res.failures
    elapsed = time.time() - t0
    assert elapsed < 180.0
    fl = [p["estimate"] for p in flow_res.payload["pairs"]]
    dv = [p["estimate"] for p in deriv_res.payload["pairs"]]
    _verdict("AC5 convergence trends", elapsed, 180,
             f"state {fl[0]:.2e} -> {fl[-1]:.2e}; deriv {dv[0]:.2e} -> {dv[-1]:.2e}")


def test_ac6_kernel_bound():
    t0 = time.time()
    cfg = ExperimentConfig(field_spec={"name": "bm", "params": {"n": 1}},
                           T=1.0, steps=16, paths=1_000_000, seed=20260606,
                           x0=(0.0,), workers=WORKERS,
                           options={"t": 1.0, "c1": 1.05, "c1_max": 1.1,
                                    "query": [-4.0, 4.0, 21]})
    res = run_command("kernel-bound", cfg)
    assert res.ok, res.failures
    assert res.payload["ok_at_target"]
    assert res.payload["C1_min"] <= 1.1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _verdict("AC6 kernel bound", elapsed, 60,
             f"C1_min={res.payload['C1_min']:.3f} at C1=1.05 margin 3 SE")


def test_ac7_condition_g_classifier():
    t0 = time.time()
    fs = builtin_field("log_example", beta=1.0)
    fine = condition_g_estimate(fs, 0.5, 1.0, np.zeros(1), 100_000, seed=20260707)
    assert math.isfinite(fine.estimate)
    assert not fine.diverging
    assert abs(fine.growth_ratio - 1.0) <= 0.05       # stable under doubling
    coarse = condition_g_estimate(fs, 2.0, 1.0, np.zeros(1), 100_000, seed=20260707)
    assert coarse.diverging
    assert coarse.growth_ratio > 2.0
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _verdict("AC7 condition-G classifier", elapsed, 30,
             f"sigma=0.5: est {fine.estimate:.3f} ratio {fine.growth_ratio:.3f}; "
             f"sigma=2: ratio {coarse.growth_ratio:.1f} diverging")


def test_ac8_integration_by_parts():
    t0 = time.time()
    T, x0 = 0.5, 0.0
    F = lambda xT: np.sin(xT[:, 0])
    dF = lambda xT, vT: np.cos(xT[:, 0]) * vT[:, 0]
    h = CameronMartinPath.constant([1.0])
    target = T * math.cos(x0) * math.exp(-T / 2.0)
    details = []
    for name, fs in (("bm", builtin_field("bm", n=1)),
                     ("ou", builtin_field("ou", lam=1.0))):
        run = engine_inputs(fs, [x0], T, paths=100_000, seed=20260808)
        res = ibp_check(F, dF, h, *run, workers=WORKERS)
        assert res.gap <= 3.0 * res.se_pooled, (name, res.gap, res.se_pooled)
        if name == "bm":
            assert abs(res.lhs.estimate - target) <= 3.0 * res.lhs.se
            assert abs(res.rhs.estimate - target) <= 3.0 * res.rhs.se
        details.append(f"{name}: gap {res.gap:.1e} <= 3x{res.se_pooled:.1e}")
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _verdict("AC8 integration by parts", elapsed, 60, "  ".join(details))


def test_ac9_determinism_across_workers(tmp_path):
    t0 = time.time()
    doc = ExperimentConfig(
        field_spec={"name": "log_example", "params": {"beta": 1.0}},
        eps=(0.2, 0.1, 0.05), T=0.25, steps=125, paths=2_000,
        seed=20260909, x0=(0.0,), options={"p": 2.0}).to_dict()
    blobs = []
    for workers, sub in ((1, "w1"), (8, "w8")):
        out = tmp_path / sub
        cfg = ExperimentConfig.from_dict(doc, out=str(out), workers=workers)
        res = run_command("converge-flow", cfg)
        assert res.ok
        blobs.append((out / "converge_flow.csv").read_bytes())
    assert blobs[0] == blobs[1]
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _verdict("AC9 determinism across workers", elapsed, 120,
             f"{len(blobs[0])} CSV bytes identical for workers 1 and 8")


def test_ac10_moment_bound_shape():
    t0 = time.time()
    details = []
    for label, spec, extra in (
            ("ou", {"name": "ou", "params": {"lam": 1.0}}, {}),
            ("log_example eps=0.05",
             {"name": "log_example", "params": {"beta": 1.0}},
             {"mollify_eps": 0.05})):
        cfg = ExperimentConfig(field_spec=spec, T=0.25, steps=250, paths=10_000,
                               seed=20261010, x0=(0.0,), workers=WORKERS,
                               options={"p": 2.0, **extra})
        res = run_command("moment", cfg)
        assert res.ok, res.failures
        assert res.payload["inequality_ok"]
        lhs = res.payload["sup_moment"]["estimate"]
        rhs = res.payload["exp_g_bound"]["estimate"]
        details.append(f"{label}: log {math.log(lhs):.3f} <= {math.log(rhs):.3f}")
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _verdict("AC10 moment bound shape", elapsed, 120, "  ".join(details))
