import math

import numpy as np
import pytest

from sdem.fields import FieldError, builtin_field
from sdem.mollify import mollify_field
from sdem.flow import (BLOCK, BrownianBatch, IntegratedG, JacSupNorm, TimeGrid,
                       coupled_family, exp_g_functional, integrate, moment_sup,
                       run_ensemble, spatial_derivative_check, sup_distance)
from conftest import scalar_drift_field


def test_time_grid_endpoint_exact():
    g = TimeGrid(0.25, 250)
    assert g.times()[-1] == 0.25
    assert g.times()[0] == 0.0
    assert g.dt > 0
    with pytest.raises(FieldError):
        TimeGrid(-1.0, 10)
    with pytest.raises(FieldError):
        TimeGrid(1.0, 0)


# ---------------------------------------------------------------------------
# Brownian increments


def test_increments_pure_in_seed_path_step():
    g = TimeGrid(1.0, 8)
    full = BrownianBatch(seed=42, paths=BLOCK + 7, grid=g, m=2)
    small = BrownianBatch(seed=42, paths=6, grid=g, m=2)
    # same path, different ensemble sizes
    assert np.array_equal(full.increments(5), small.increments(5))
    # across a block boundary
    assert full.increments(BLOCK + 3).shape == (8, 2)
    # block view agrees with per-path view
    blk = full.block_increments(0)
    assert np.array_equal(blk[5], full.increments(5))
    blk1 = full.block_increments(1)
    assert np.array_equal(blk1[3], full.increments(BLOCK + 3))


def test_increment_moments():
    g = TimeGrid(1.0, 50)
    noise = BrownianBatch(seed=9, paths=2000, grid=g, m=2)
    sample = np.concatenate([noise.block_increments(b)
                             for b in range(noise.n_blocks)], axis=0)
    n_draws = sample.size
    assert abs(sample.mean()) < 4.0 / math.sqrt(n_draws) * math.sqrt(g.dt)
    assert sample.var() == pytest.approx(g.dt, rel=0.01)


def test_different_seeds_differ():
    g = TimeGrid(1.0, 4)
    a = BrownianBatch(seed=1, paths=3, grid=g, m=1)
    b = BrownianBatch(seed=2, paths=3, grid=g, m=1)
    assert not np.array_equal(a.increments(0), b.increments(0))


# ---------------------------------------------------------------------------
# single-path integration


def test_bm_path_is_cumulative_sum():
    g = TimeGrid(1.0, 200)
    noise = BrownianBatch(seed=3, paths=4, grid=g, m=1)
    path = integrate(builtin_field("bm", n=1), [0.0], g, noise, 1)
    dW = noise.increments(1)
    expect = np.concatenate([[0.0], np.cumsum(dW[:, 0])])
    assert np.max(np.abs(path.states[:, 0] - expect)) < 1e-13
    assert np.all(path.jacs == 1.0)
    assert not path.flagged


def test_const_shift_euler_is_exact():
    g = TimeGrid(1.0, 500)
    noise = BrownianBatch(seed=4, paths=3, grid=g, m=1)
    fs = builtin_field("const_shift", matrix=[[2.0]], shift=[1.0])
    path = integrate(fs, [0.3], g, noise, 2)
    w = np.concatenate([[0.0], np.cumsum(noise.increments(2)[:, 0])])
    t = g.times()
    assert np.max(np.abs(path.states[:, 0] - (0.3 + 2.0 * w + t))) < 1e-12


def test_ou_derivative_flow_matches_product_and_exponential():
    g = TimeGrid(1.0, 1000)
    noise = BrownianBatch(seed=5, paths=2, grid=g, m=1)
    path = integrate(builtin_field("ou", lam=1.0), [1.0], g, noise, 0)
    # 1-d commutative system: Euler V_k is the running product
    prod = np.cumprod(np.concatenate([[1.0], np.full(1000, 1.0 - g.dt)]))
    assert np.max(np.abs(path.jacs[:, 0, 0] - prod)) < 1e-12
    # Richardson halving estimates the O(dt) constant
    errs = []
    for steps in (500, 1000):
        gg = TimeGrid(1.0, steps)
        nn = BrownianBatch(seed=5, paths=2, grid=gg, m=1)
        p = integrate(builtin_field("ou", lam=1.0), [1.0], gg, nn, 0)
        errs.append(abs(p.jacs[-1, 0, 0] - math.exp(-1.0)))
    assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.05)
    assert errs[1] <= 1.0 * gg.dt


def test_integrate_is_the_ensemble_path():
    # one integrator: a single path is bit for bit the ensemble's path,
    # in the first block and past it
    fs = mollify_field(builtin_field("log_example", beta=1.0), 0.1)
    g = TimeGrid(0.25, 20)
    noise = BrownianBatch(seed=3, paths=BLOCK + 10, grid=g, m=1)
    res = run_ensemble(fs, [0.2], g, noise)
    for i in (0, 5, BLOCK + 3):
        path = integrate(fs, [0.2], g, noise, i)
        assert np.array_equal(path.states[-1], res.state_T[i])
        assert np.array_equal(path.jacs[-1], res.jac_T[i])


def test_integrate_validates_inputs():
    g = TimeGrid(1.0, 10)
    noise = BrownianBatch(seed=1, paths=2, grid=g, m=1)
    fs = builtin_field("ou", lam=1.0)
    with pytest.raises(FieldError):
        integrate(fs, [math.nan], g, noise, 0)
    with pytest.raises(FieldError):
        integrate(fs, [0.0], TimeGrid(1.0, 20), noise, 0)
    bare = scalar_drift_field(lambda x: x)
    with pytest.raises(FieldError):
        integrate(bare, [0.0], g, noise, 0)


def test_flagged_explosive_path():
    # cubic drift with a long step blows up in finite steps
    fs = scalar_drift_field(lambda x: x ** 9, df=lambda x: 9.0 * x ** 8)
    g = TimeGrid(5.0, 40)
    noise = BrownianBatch(seed=8, paths=64, grid=g, m=1)
    res = run_ensemble(fs, [2.0], g, noise, trackers=(JacSupNorm(),))
    assert res.n_flagged == 64
    path = integrate(fs, [2.0], g, noise, 0)
    assert path.flagged and np.isnan(path.states[-1, 0])
    with pytest.raises(FieldError):
        moment_sup(res, 2.0)     # nothing left after exclusion


# ---------------------------------------------------------------------------
# distances and moments


def test_sup_distance_cases():
    g = TimeGrid(1.0, 100)
    noise = BrownianBatch(seed=6, paths=4, grid=g, m=1)
    bm = builtin_field("bm", n=1)
    a = integrate(bm, [0.0], g, noise, 0)
    assert sup_distance(a, a, 2.0) == (0.0, 0.0)
    b = integrate(bm, [1.0], g, noise, 0)        # same increments, shifted start
    ds, dj = sup_distance(a, b, 1.0)
    assert ds == pytest.approx(1.0, abs=1e-14)
    assert dj == 0.0
    ou = builtin_field("ou", lam=1.0)
    oa = integrate(ou, [0.0], g, noise, 1)
    ob = integrate(ou, [1.0], g, noise, 1)
    ds, _ = sup_distance(oa, ob, 1.0)
    assert ds == pytest.approx(1.0, abs=1e-12)   # gap decays from 1 at t=0
    with pytest.raises(FieldError):
        sup_distance(a, integrate(bm, [0.0], TimeGrid(1.0, 50),
                                  BrownianBatch(seed=6, paths=4,
                                                grid=TimeGrid(1.0, 50), m=1), 0), 1.0)


def test_moment_sup_bm_and_ou():
    g = TimeGrid(1.0, 100)
    noise = BrownianBatch(seed=7, paths=256, grid=g, m=1)
    bm_res = run_ensemble(builtin_field("bm", n=1), [0.0], g, noise,
                          trackers=(JacSupNorm(),))
    rep = moment_sup(bm_res, 3.0)
    assert rep.estimate == 1.0 and rep.se == 0.0
    ou_res = run_ensemble(builtin_field("ou", lam=1.0), [0.0], g, noise,
                          trackers=(JacSupNorm(),))
    rep2 = moment_sup(ou_res, 2.0)
    assert rep2.estimate == pytest.approx(1.0, abs=1e-12)   # sup at t = 0


def test_exp_g_functional_values():
    g = TimeGrid(1.0, 100)
    noise = BrownianBatch(seed=7, paths=128, grid=g, m=1)
    bm_res = run_ensemble(builtin_field("bm", n=1), [0.0], g, noise,
                          trackers=(IntegratedG(builtin_field("bm", n=1)),))
    assert exp_g_functional(bm_res, 2.0).estimate == 1.0
    ou = builtin_field("ou", lam=1.0)
    ou_res = run_ensemble(ou, [0.0], g, noise, trackers=(IntegratedG(ou),))
    rep = exp_g_functional(ou_res, 1.0)
    assert rep.estimate == pytest.approx(math.exp(6.0), rel=1e-12)
    assert rep.overflowed == 0


def test_exp_g_overflow_reported_as_inf():
    fs = scalar_drift_field(lambda x: -x, df=lambda x: np.full_like(x, -30.0))
    g = TimeGrid(1.0, 50)
    noise = BrownianBatch(seed=2, paths=16, grid=g, m=1)
    res = run_ensemble(fs, [0.0], g, noise, trackers=(IntegratedG(fs),))
    rep = exp_g_functional(res, 5.0)     # exp(6 * 25 * 900) overflows
    assert math.isinf(rep.estimate)
    assert rep.overflowed == 16


# ---------------------------------------------------------------------------
# coupled smoothing levels (common random numbers)


def test_coupled_family_constant_fields_collapse():
    g = TimeGrid(0.5, 50)
    noise = BrownianBatch(seed=10, paths=512, grid=g, m=1)
    fam = coupled_family(builtin_field("bm", n=1), [0.2, 0.1, 0.05], [0.0], g, noise)
    for pair, vals in fam.pair_state_sup.items():
        assert np.all(vals == 0.0), pair
    for pair, vals in fam.pair_jac_sup.items():
        assert np.all(vals == 0.0)


def test_coupled_family_linear_drift_collapses():
    # an affine field passes through the even kernel unchanged
    g = TimeGrid(0.5, 50)
    noise = BrownianBatch(seed=11, paths=256, grid=g, m=1)
    fam = coupled_family(builtin_field("ou", lam=1.0), [0.2, 0.1], [1.0], g, noise)
    assert np.max(fam.pair_state_sup[(0.2, 0.1)]) < 1e-12
    assert np.max(fam.pair_jac_sup[(0.2, 0.1)]) < 1e-12


def test_coupled_family_log_example_trend():
    g = TimeGrid(0.25, 125)
    noise = BrownianBatch(seed=12, paths=2000, grid=g, m=1)
    log = builtin_field("log_example", beta=1.0)
    fam = coupled_family(log, [0.2, 0.1, 0.05, 0.025], [0.0], g, noise)
    ests = [fam.sup_moment(e, 0.025, 2.0).estimate for e in (0.2, 0.1, 0.05)]
    assert ests[0] > ests[1] > ests[2]
    jests = [fam.sup_moment(e, 0.025, 2.0, which="jac").estimate
             for e in (0.2, 0.1, 0.05)]
    assert jests[0] > jests[1] > jests[2]
    # reference (unmollified) run is present under key 0.0
    assert 0.0 in fam.levels
    assert fam.n_flagged == 0


def test_coupled_family_triangle_inequality_pathwise():
    g = TimeGrid(0.25, 125)
    noise = BrownianBatch(seed=13, paths=500, grid=g, m=1)
    log = builtin_field("log_example", beta=1.0)
    fam = coupled_family(log, [0.2, 0.1, 0.05], [0.0], g, noise, include_base=False)
    d13 = fam.pair_state_sup[(0.2, 0.05)]
    d12 = fam.pair_state_sup[(0.2, 0.1)]
    d23 = fam.pair_state_sup[(0.1, 0.05)]
    assert np.all(d13 <= d12 + d23 + 1e-15)


def test_coupled_family_validates_ladder():
    g = TimeGrid(0.5, 10)
    noise = BrownianBatch(seed=1, paths=4, grid=g, m=1)
    with pytest.raises(FieldError):
        coupled_family(builtin_field("bm", n=1), [0.1, 0.2], [0.0], g, noise)
    with pytest.raises(FieldError):
        coupled_family(builtin_field("bm", n=1), [0.1, -0.2], [0.0], g, noise)


def test_coupled_family_keep_paths():
    g = TimeGrid(0.5, 20)
    noise = BrownianBatch(seed=14, paths=32, grid=g, m=1)
    fam = coupled_family(builtin_field("ou", lam=1.0), [0.1], [1.0], g, noise,
                         keep_paths=True)
    states = fam.levels[0.1].extras["states"]
    assert states.shape == (32, 21, 1)
    assert np.allclose(states[:, 0, 0], 1.0)


# ---------------------------------------------------------------------------
# determinism and parallel reduction


def test_worker_count_does_not_change_results():
    g = TimeGrid(0.5, 100)
    noise = BrownianBatch(seed=15, paths=3000, grid=g, m=1)
    ou = builtin_field("ou", lam=1.0)
    runs = [run_ensemble(ou, [0.5], g, noise, trackers=(JacSupNorm(),), workers=w)
            for w in (1, 4)]
    assert np.array_equal(runs[0].state_T, runs[1].state_T)
    assert np.array_equal(runs[0].extras["sup_jac"], runs[1].extras["sup_jac"])


def test_env_variable_sets_default_workers(monkeypatch):
    from sdem.flow import _resolve_workers
    monkeypatch.setenv("SDEM_WORKERS", "3")
    assert _resolve_workers(None) == 3
    assert _resolve_workers(2) == 2
    monkeypatch.delenv("SDEM_WORKERS")
    assert _resolve_workers(None) == 1


# ---------------------------------------------------------------------------
# spatial derivative check


def test_spatial_check_bm_is_exact():
    g = TimeGrid(0.5, 50)
    noise = BrownianBatch(seed=16, paths=128, grid=g, m=1)
    chk = spatial_derivative_check(builtin_field("bm", n=1), [0.0], [1.0], 1e-3,
                                   g, noise)
    assert chk.gap < 1e-12
    assert chk.fd[0] == pytest.approx(1.0, abs=1e-10)


def test_spatial_check_ou_small_gap():
    g = TimeGrid(1.0, 1000)
    noise = BrownianBatch(seed=17, paths=512, grid=g, m=1)
    chk = spatial_derivative_check(builtin_field("ou", lam=1.0), [1.0], [1.0],
                                   1e-3, g, noise)
    assert chk.gap <= 1e-2
    assert chk.vt[0] == pytest.approx(math.exp(-1.0), abs=2e-3)


def test_spatial_check_log_example_trend():
    log = builtin_field("log_example", beta=1.0)
    gaps = []
    for steps, h in ((25, 4e-2), (50, 2e-2), (100, 1e-2)):
        g = TimeGrid(0.1, steps)
        noise = BrownianBatch(seed=18, paths=1024, grid=g, m=1)
        gaps.append(spatial_derivative_check(log, [0.0], [1.0], h, g, noise).gap)
    assert gaps[0] > gaps[2]
