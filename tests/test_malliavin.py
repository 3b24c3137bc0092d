import math

import numpy as np
import pytest

from sdem.fields import FieldError, builtin_field
from sdem.flow import BrownianBatch, TimeGrid, run_ensemble
from sdem.malliavin import (CameronMartinPath, DivergenceWeight, MCConfig,
                            IbpResult, RightInverseError, bismut_gradient,
                            divergence, fd_gradient, ibp_check,
                            intertwine_gradient, right_inverse)
from sdem.mollify import mollify_field
from sdem.report import EstimatorReport
from conftest import scalar_drift_field


# ---------------------------------------------------------------------------
# right inverse


def test_right_inverse_identity_for_bm():
    fs = builtin_field("bm", n=2)
    assert np.allclose(right_inverse(fs, np.zeros(2)), np.eye(2))


def test_right_inverse_scalar():
    fs = builtin_field("const_shift", matrix=[[2.0]], shift=[0.0])
    assert right_inverse(fs, np.zeros(1))[0, 0] == pytest.approx(0.5)


def test_right_inverse_minimum_norm():
    fs = builtin_field("const_shift", matrix=[[1.0, 1.0]], shift=[0.0])
    y = right_inverse(fs, np.zeros(1))
    assert np.allclose(y.ravel(), [0.5, 0.5])


def test_right_inverse_residual_contract(rng):
    families = [builtin_field("bm", n=2),
                builtin_field("ou", lam=1.0),
                builtin_field("log_example", beta=1.0)]
    families += [mollify_field(builtin_field("log_example", beta=1.0), e)
                 for e in (0.1, 0.05)]
    for fs in families:
        pts = rng.uniform(-3, 3, (1000, fs.n))
        y = right_inverse(fs, pts)
        amat = np.asarray(fs.diffusion_matrix(pts))
        res = amat @ y - np.eye(fs.n)
        assert np.max(np.sqrt(np.sum(res * res, axis=(1, 2)))) <= 1e-10


def test_right_inverse_singular_point_reports_location():
    fs = scalar_drift_field(lambda x: x)     # unit diffusion
    # build a degenerate diffusion: A_1(x) = x vanishes at 0
    from sdem.fields import VectorFieldSet, FieldMeta, _as_batch

    def A(l, x):
        pts, single = _as_batch(np.asarray(x, dtype=float), 1)
        out = np.zeros_like(pts) if l == 0 else pts.copy()
        return out[0] if single else out

    degen = VectorFieldSet(1, 1, A, None, FieldMeta(), name="degenerate")
    with pytest.raises(RightInverseError, match="singular"):
        right_inverse(degen, np.zeros(1))
    y = right_inverse(degen, np.array([2.0]))
    assert y[0, 0] == pytest.approx(0.5)


def test_right_inverse_scalar_is_reciprocal(rng):
    fs = mollify_field(builtin_field("log_example", beta=1.0), 0.1)
    pts = rng.uniform(-2, 2, (1000, 1))
    y = right_inverse(fs, pts)
    assert np.array_equal(y, 1.0 / fs.diffusion_matrix(pts))


def test_right_inverse_subnormal_diffusion_raises():
    from sdem.fields import VectorFieldSet, FieldMeta, _as_batch

    def A(l, x):
        pts, single = _as_batch(np.asarray(x, dtype=float), 1)
        out = np.zeros_like(pts) if l == 0 else np.full_like(pts, 1e-320)
        return out[0] if single else out

    tiny = VectorFieldSet(1, 1, A, None, FieldMeta(), name="subnormal")
    with pytest.raises(RightInverseError, match="singular at"):
        right_inverse(tiny, np.array([[0.5], [1.0]]))


def test_right_inverse_nan_row_passes_through():
    fs = builtin_field("log_example", beta=1.0)
    y = right_inverse(fs, np.array([[0.3], [np.nan], [-0.5]]))
    assert np.isnan(y[1, 0, 0])
    assert np.all(np.isfinite(y[[0, 2]]))


def test_mollified_right_inverse_converges(rng):
    # sup_x |Y_eps - Y| shrinks along the smoothing ladder
    fs = builtin_field("log_example", beta=1.0)
    pts = rng.uniform(-2, 2, (1000, 1))
    y_base = right_inverse(fs, pts)
    gaps = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        y_eps = right_inverse(mollify_field(fs, eps), pts)
        gaps.append(np.max(np.abs(y_eps - y_base)))
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


# ---------------------------------------------------------------------------
# gradient estimators against closed forms


def test_bismut_bm_linear():
    cfg = MCConfig(builtin_field("bm", n=1), paths=20_000, dt=1e-3, seed=30)
    rep = bismut_gradient(lambda s: s[:, 0], [0.3], [1.0], 0.5, cfg)
    assert rep.within(1.0)


def test_bismut_constant_function_is_zero():
    cfg = MCConfig(builtin_field("bm", n=1), paths=20_000, dt=1e-3, seed=31)
    rep = bismut_gradient(lambda s: np.ones(len(s)), [0.0], [1.0], 0.5, cfg)
    assert abs(rep.estimate) <= 3.0 * rep.se


def test_bismut_shift_invariance():
    cfg = MCConfig(builtin_field("ou", lam=1.0), paths=20_000, dt=1e-3, seed=32)
    a = bismut_gradient(lambda s: s[:, 0], [0.0], [1.0], 0.5, cfg)
    b = bismut_gradient(lambda s: s[:, 0] + 7.0, [0.0], [1.0], 0.5, cfg)
    assert abs(a.estimate - b.estimate) <= 3.0 * math.hypot(a.se, b.se)


def test_bismut_indicator_function():
    # beyond C^1: f = 1_{x > 0}; the gradient of P_t f at 0 is the
    # transition density at the threshold, (2 pi t)^{-1/2}
    t = 0.5
    cfg = MCConfig(builtin_field("bm", n=1), paths=40_000, dt=1e-3, seed=33)
    rep = bismut_gradient(lambda s: (s[:, 0] > 0).astype(float), [0.0], [1.0], t, cfg)
    assert rep.within(1.0 / math.sqrt(2 * math.pi * t))


def test_intertwine_closed_forms():
    t = 0.5
    cfg = MCConfig(builtin_field("bm", n=1), paths=20_000, dt=1e-3, seed=34)
    rep = intertwine_gradient(lambda s: np.cos(s), [0.2], [1.0], t, cfg)
    assert rep.within(math.cos(0.2) * math.exp(-t / 2.0))
    ou_cfg = MCConfig(builtin_field("ou", lam=1.0), paths=5_000, dt=1e-3, seed=35)
    rep2 = intertwine_gradient(lambda s: np.ones_like(s), [0.0], [1.0], t, ou_cfg)
    assert rep2.se < 1e-15          # deterministic up to mean-rounding noise
    assert rep2.estimate == pytest.approx((1.0 - 1e-3) ** 500, rel=1e-12)
    rep3 = intertwine_gradient(lambda s: np.zeros_like(s), [0.0], [1.0], t, ou_cfg)
    assert rep3.estimate == 0.0


def test_fd_gradient_cases():
    cfg = MCConfig(builtin_field("bm", n=1), paths=5_000, dt=1e-3, seed=36)
    rep = fd_gradient(lambda s: s[:, 0], [0.0], [1.0], 0.5, 1e-3, cfg)
    assert rep.estimate == pytest.approx(1.0, abs=1e-10)     # CRN cancels the noise
    rep0 = fd_gradient(lambda s: np.ones(len(s)), [0.0], [1.0], 0.5, 1e-3, cfg)
    assert rep0.estimate == 0.0
    ou_cfg = MCConfig(builtin_field("ou", lam=1.0), paths=5_000, dt=1e-3, seed=37)
    rep2 = fd_gradient(lambda s: s[:, 0], [0.0], [1.0], 0.5, 1e-3, ou_cfg)
    assert rep2.estimate == pytest.approx(math.exp(-0.5), abs=2e-3)


def test_triple_agreement_matrix():
    # every estimator route agrees pairwise within 3 pooled SE across the
    # field x test-function x horizon matrix
    log_eps = mollify_field(builtin_field("log_example", beta=1.0), 0.05)
    fields = [builtin_field("bm", n=1), builtin_field("ou", lam=1.0), log_eps]
    cases = [(lambda s: s[:, 0], lambda s: np.ones_like(s)),
             (lambda s: np.sin(s[:, 0]), lambda s: np.cos(s))]
    for fi, fs in enumerate(fields):
        for ci, (f, df) in enumerate(cases):
            for t in (0.25, 0.5):
                cfg = MCConfig(fs, paths=8_000, dt=1e-3,
                               seed=5000 + 100 * fi + 10 * ci + int(t * 4),
                               workers=2)
                reps = {
                    "bismut": bismut_gradient(f, [0.0], [1.0], t, cfg),
                    "intertwine": intertwine_gradient(df, [0.0], [1.0], t, cfg),
                    "fd": fd_gradient(f, [0.0], [1.0], t, 1e-3, cfg),
                }
                pooled_all = math.sqrt(sum(r.se ** 2 for r in reps.values()))
                names = list(reps)
                for i, a in enumerate(names):
                    for b in names[i + 1:]:
                        gap = abs(reps[a].estimate - reps[b].estimate)
                        assert gap <= 3.0 * pooled_all + 1e-4, (
                            f"{fs.name} case{ci} t={t}: {a} vs {b} gap {gap:.2e} "
                            f"pooled {pooled_all:.2e}")


# ---------------------------------------------------------------------------
# divergence


def test_divergence_bm_is_brownian_endpoint():
    g = TimeGrid(0.5, 100)
    noise = BrownianBatch(seed=40, paths=4, grid=g, m=1)
    h = CameronMartinPath.constant([1.0])
    vals = divergence(h, builtin_field("bm", n=1), [0.0], g, noise)
    w_T = noise.block_increments(0)[:, :, 0].sum(axis=1)
    assert vals.shape == (4,)
    assert vals == pytest.approx(w_T, abs=1e-12)


def test_divergence_scaled_diffusion():
    g = TimeGrid(0.5, 100)
    noise = BrownianBatch(seed=41, paths=4, grid=g, m=1)
    fs = builtin_field("const_shift", matrix=[[2.0]], shift=[0.0])
    h = CameronMartinPath.constant([1.0])
    w_T = noise.block_increments(0)[:, :, 0].sum(axis=1)
    assert divergence(h, fs, [0.0], g, noise) == pytest.approx(w_T / 2.0, abs=1e-12)


def test_divergence_ou_ito_isometry():
    # delta = sum e^{-lam t_k} dW_k is centered with variance ~ (1-e^{-2T})/2
    T, steps, paths = 1.0, 200, 4096
    g = TimeGrid(T, steps)
    noise = BrownianBatch(seed=42, paths=paths, grid=g, m=1)
    ou = builtin_field("ou", lam=1.0)
    res = run_ensemble(ou, [0.0], g, noise,
                       trackers=(DivergenceWeight(CameronMartinPath.constant([1.0])),))
    delta = res.extras["div_weight"]
    target_var = (1.0 - math.exp(-2.0 * T)) / 2.0
    se_var = delta.var(ddof=1) * math.sqrt(2.0 / (paths - 1))
    assert abs(delta.mean()) <= 3.0 * delta.std(ddof=1) / math.sqrt(paths)
    assert abs(delta.var(ddof=1) - target_var) <= 3.0 * se_var + 2.0 * g.dt
    assert np.allclose(res.extras["div_energy"], T)
    assert np.allclose(res.extras["div_h_T"][:, 0], T)


# ---------------------------------------------------------------------------
# integration by parts


def _sin_functionals():
    F = lambda xT: np.sin(xT[:, 0])
    dF = lambda xT, vT: np.cos(xT[:, 0]) * vT[:, 0]
    return F, dF


def test_ibp_bm_linear_endpoint():
    # F(path) = path_T with hdot = 1: both sides equal T
    T = 0.5
    cfg = MCConfig(builtin_field("bm", n=1), paths=20_000, dt=1e-3, seed=43)
    h = CameronMartinPath.constant([1.0])
    res = ibp_check(lambda xT: xT[:, 0], lambda xT, vT: vT[:, 0], h, cfg, t=T,
                    x=[0.0])
    assert res.lhs.estimate == pytest.approx(T, rel=1e-12)   # deterministic side
    assert abs(res.rhs.estimate - T) <= 3.0 * res.rhs.se
    assert res.ok


def test_ibp_bm_sin_matches_closed_form():
    T, x0 = 0.5, 0.0
    cfg = MCConfig(builtin_field("bm", n=1), paths=20_000, dt=1e-3, seed=44)
    F, dF = _sin_functionals()
    res = ibp_check(F, dF, CameronMartinPath.constant([1.0]), cfg, t=T, x=[x0])
    target = T * math.cos(x0) * math.exp(-T / 2.0)
    assert abs(res.lhs.estimate - target) <= 3.0 * res.lhs.se
    assert abs(res.rhs.estimate - target) <= 3.0 * res.rhs.se
    assert res.gap <= 3.0 * res.se_pooled


def test_ibp_ou_sin():
    cfg = MCConfig(builtin_field("ou", lam=1.0), paths=20_000, dt=1e-3, seed=45)
    F, dF = _sin_functionals()
    res = ibp_check(F, dF, CameronMartinPath.constant([1.0]), cfg, t=0.5, x=[0.0])
    assert res.gap <= 3.0 * res.se_pooled


def test_ibp_constant_functional():
    cfg = MCConfig(builtin_field("bm", n=1), paths=10_000, dt=1e-3, seed=46)
    res = ibp_check(lambda xT: np.ones(len(xT)), lambda xT, vT: np.zeros(len(xT)),
                    CameronMartinPath.constant([1.0]), cfg, t=0.5, x=[0.0])
    assert res.lhs.estimate == 0.0
    assert abs(res.rhs.estimate) <= 3.0 * res.rhs.se


def test_ibp_adapted_direction():
    # hdot_s = tanh(xi_s) reads only the current state: still a valid
    # adapted Cameron-Martin direction, and the identity must survive
    cfg = MCConfig(builtin_field("bm", n=1), paths=40_000, dt=1e-3, seed=47)
    h = CameronMartinPath(lambda k, state: np.tanh(state))
    res = ibp_check(lambda xT: xT[:, 0], lambda xT, vT: vT[:, 0], h, cfg, t=0.25,
                    x=[0.0])
    assert res.gap <= 3.0 * res.se_pooled + 1e-3


def test_ibp_full_path_functional():
    # F(path) = mean_k sin(path_k); on flat noise both sides match termwise
    T = 0.5
    cfg = MCConfig(builtin_field("bm", n=1), paths=20_000, dt=1e-3, seed=48)

    def F(times, states):
        return np.mean(np.sin(states[:, :, 0]), axis=1)

    def dF(times, states, direction):
        return np.mean(np.cos(states[:, :, 0]) * direction[:, :, 0], axis=1)

    res = ibp_check(F, dF, CameronMartinPath.constant([1.0]), cfg, t=T, x=[0.0],
                    full_path=True)
    assert res.gap <= 3.0 * res.se_pooled


def test_ibp_verdict_uses_paired_se():
    # lhs and rhs share their paths, so the SE of their difference is the
    # paired one; a gap within 3 paired SE passes even above 3 pooled SE
    rep = EstimatorReport(0.0, 1.0, 100)
    assert IbpResult(rep, rep, gap=3.2, se_pooled=1.0, se_paired=1.1).ok
    assert not IbpResult(rep, rep, gap=3.4, se_pooled=1.2, se_paired=1.1).ok


def test_mc_config_grid():
    cfg = MCConfig(builtin_field("bm", n=1), paths=10, dt=1e-3, seed=0)
    grid = cfg.grid_for(0.5)
    assert grid.steps == 500 and grid.T == 0.5
    with pytest.raises(Exception):
        cfg.grid_for(-1.0)


def test_direction_of_the_wrong_length_fails_before_any_noise(monkeypatch):
    # a v0 or a constant direction that does not match the field set's n is
    # rejected, naming the key, before a block of noise is drawn
    def no_noise(*args, **kwargs):
        raise AssertionError("a rejected run drew noise")

    monkeypatch.setattr(BrownianBatch, "block_increments", no_noise)
    fs = builtin_field("bm", n=2)
    cfg = MCConfig(fs, paths=8, dt=0.1, seed=0)
    f = lambda s: s[:, 0]
    df = lambda s: np.ones_like(s)
    grid = cfg.grid_for(0.5)
    noise = cfg.noise_for(grid)
    F, dF = (lambda xT: xT[:, 0]), (lambda xT, vT: vT[:, 0])
    for bad in ([1.0, 0.0, 0.0], [1.0]):
        h = CameronMartinPath.constant(bad)
        rows = [
            (lambda: bismut_gradient(f, [0.0, 0.0], bad, 0.5, cfg), "v0"),
            (lambda: intertwine_gradient(df, [0.0, 0.0], bad, 0.5, cfg), "v0"),
            (lambda: fd_gradient(f, [0.0, 0.0], bad, 0.5, 1e-3, cfg), "v0"),
            (lambda: ibp_check(F, dF, h, cfg, t=0.5, x=[0.0, 0.0]), "direction h"),
            (lambda: divergence(h, fs, [0.0, 0.0], grid, noise), "direction h"),
        ]
        for call, key in rows:
            with pytest.raises(FieldError, match=key):
                call()
    # the right length goes on to draw the noise
    with pytest.raises(AssertionError, match="drew noise"):
        bismut_gradient(f, [0.0, 0.0], [0.6, -0.8], 0.5, cfg)
