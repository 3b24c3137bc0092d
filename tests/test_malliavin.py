import math
import re
import warnings

import numpy as np
import pytest

from sdem.fields import FieldError, builtin_field
from sdem.flow import BrownianBatch, TimeGrid, run_ensemble
from sdem.malliavin import (CameronMartinPath, DivergenceWeight, IbpResult,
                            RightInverseError, divergence, gradient_routes,
                            ibp_check, right_inverse)
from sdem.mollify import mollify_field
from sdem.report import EstimatorReport
from conftest import bismut_report, engine_inputs, scalar_drift_field, within


# ---------------------------------------------------------------------------
# right inverse


def _right_inverse_at(fs, pts):
    """Y of the field set's diffusion at the points pts (B, n)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return right_inverse(fs.diffusion_matrix(pts), pts)


def test_right_inverse_identity_for_bm():
    fs = builtin_field("bm", n=2)
    assert np.allclose(_right_inverse_at(fs, np.zeros(2))[0], np.eye(2))


def test_right_inverse_scalar():
    fs = builtin_field("const_shift", matrix=[[2.0]], shift=[0.0])
    assert _right_inverse_at(fs, np.zeros(1))[0, 0, 0] == pytest.approx(0.5)


def test_right_inverse_minimum_norm():
    fs = builtin_field("const_shift", matrix=[[1.0, 1.0]], shift=[0.0])
    y = _right_inverse_at(fs, np.zeros(1))
    assert np.allclose(y.ravel(), [0.5, 0.5])


def test_right_inverse_residual_contract(rng):
    families = [builtin_field("bm", n=2),
                builtin_field("ou", lam=1.0),
                builtin_field("log_example", beta=1.0)]
    families += [mollify_field(builtin_field("log_example", beta=1.0), e)
                 for e in (0.1, 0.05)]
    for fs in families:
        pts = rng.uniform(-3, 3, (1000, fs.n))
        y = _right_inverse_at(fs, pts)
        amat = np.asarray(fs.diffusion_matrix(pts))
        res = amat @ y - np.eye(fs.n)
        assert np.max(np.sqrt(np.sum(res * res, axis=(1, 2)))) <= 1e-10


def test_right_inverse_singular_point_reports_location():
    fs = scalar_drift_field(lambda x: x)     # unit diffusion
    # build a degenerate diffusion: A_1(x) = x vanishes at 0
    from sdem.fields import VectorFieldSet

    def A(l, x):
        return np.zeros_like(x) if l == 0 else x.copy()

    degen = VectorFieldSet(1, 1, A, None, name="degenerate")
    with pytest.raises(RightInverseError, match=r"singular at \[0\.\]"):
        _right_inverse_at(degen, np.zeros(1))
    # a flagged (NaN) path in the same block is not the point named
    with pytest.raises(RightInverseError, match=r"singular at \[0\.\]: min eigenvalue 0"):
        _right_inverse_at(degen, np.array([[np.nan], [0.0], [1.0]]))
    y = _right_inverse_at(degen, np.array([2.0]))
    assert y[0, 0, 0] == pytest.approx(0.5)


def test_right_inverse_scalar_is_reciprocal(rng):
    fs = mollify_field(builtin_field("log_example", beta=1.0), 0.1)
    pts = rng.uniform(-2, 2, (1000, 1))
    y = _right_inverse_at(fs, pts)
    assert np.array_equal(y, 1.0 / fs.diffusion_matrix(pts))


def test_right_inverse_subnormal_diffusion_raises():
    from sdem.fields import VectorFieldSet

    def A(l, x):
        return np.zeros_like(x) if l == 0 else np.full_like(x, 1e-320)

    tiny = VectorFieldSet(1, 1, A, None, name="subnormal")
    with pytest.raises(RightInverseError, match="singular at"):
        _right_inverse_at(tiny, np.array([[0.5], [1.0]]))


def test_right_inverse_nan_row_passes_through():
    fs = builtin_field("log_example", beta=1.0)
    y = _right_inverse_at(fs, np.array([[0.3], [np.nan], [-0.5]]))
    assert np.isnan(y[1, 0, 0])
    assert np.all(np.isfinite(y[[0, 2]]))


def _conditioned_2x2(seed, small, count):
    """count random 2x2 diffusions with singular values 1 and small."""
    gen = np.random.default_rng(seed)

    def rot(a):
        return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])

    return np.array([rot(a) @ np.diag([1.0, small]) @ rot(b)
                     for a, b in gen.uniform(0.0, 2.0 * math.pi, (count, 2))])


def _residual(amat, y):
    res = amat @ y - np.eye(amat.shape[-2])
    return np.sqrt(np.sum(res * res, axis=(-2, -1)))


def _plain_and_refined(amat):
    """Residuals of the Gram right inverse and of its one Newton refinement."""
    at = np.swapaxes(amat, -1, -2)
    gram = amat @ at
    inv = np.linalg.inv(gram)
    refined = inv @ (2.0 * np.eye(amat.shape[-2]) - gram @ inv)
    return _residual(amat, at @ inv), _residual(amat, at @ refined)


def test_right_inverse_refines_a_row_the_plain_inverse_misses():
    # about one in twenty such diffusions lands above 1e-10 on the plain Gram
    # inverse and under it after one Newton step
    amat = _conditioned_2x2(20261020, 10 ** -3.5, 200)
    plain, refined = _plain_and_refined(amat)
    (hits,) = np.nonzero((plain > 1e-10) & (refined <= 1e-10))
    assert len(hits) > 0
    stack = np.stack([np.eye(2), amat[hits[0]]])
    y = right_inverse(stack, np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert np.all(_residual(stack, y) <= 1e-10)


def test_right_inverse_names_the_point_when_refinement_fails():
    amat = _conditioned_2x2(20261020, 1e-5, 1)
    plain, refined = _plain_and_refined(amat)
    assert plain[0] > 1e-10 and refined[0] > 1e-10
    stack = np.stack([np.eye(2), amat[0]])
    low = np.linalg.eigvalsh(amat @ np.swapaxes(amat, -1, -2))[0, 0]
    with pytest.raises(RightInverseError,
                       match=re.escape(f"singular at [3. 4.]: min eigenvalue {low:.3e}")):
        right_inverse(stack, np.array([[0.0, 0.0], [3.0, 4.0]]))


def test_mollified_right_inverse_converges(rng):
    # sup_x |Y_eps - Y| shrinks along the smoothing ladder
    fs = builtin_field("log_example", beta=1.0)
    pts = rng.uniform(-2, 2, (1000, 1))
    y_base = _right_inverse_at(fs, pts)
    gaps = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        y_eps = _right_inverse_at(mollify_field(fs, eps), pts)
        gaps.append(np.max(np.abs(y_eps - y_base)))
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


# ---------------------------------------------------------------------------
# gradient estimators against closed forms


def test_bismut_bm_linear():
    run = engine_inputs(builtin_field("bm", n=1), [0.3], 0.5, paths=20_000, seed=30)
    rep = bismut_report(lambda s: s[:, 0], [1.0], *run)
    assert within(rep, 1.0)


def test_bismut_constant_function_is_zero():
    run = engine_inputs(builtin_field("bm", n=1), [0.0], 0.5, paths=20_000, seed=31)
    rep = bismut_report(lambda s: np.ones(len(s)), [1.0], *run)
    assert abs(rep.estimate) <= 3.0 * rep.se


def test_bismut_shift_invariance():
    run = engine_inputs(builtin_field("ou", lam=1.0), [0.0], 0.5, paths=20_000, seed=32)
    a = bismut_report(lambda s: s[:, 0], [1.0], *run)
    b = bismut_report(lambda s: s[:, 0] + 7.0, [1.0], *run)
    assert abs(a.estimate - b.estimate) <= 3.0 * math.hypot(a.se, b.se)


def test_bismut_indicator_function():
    # beyond C^1: f = 1_{x > 0}; the gradient of P_t f at 0 is the
    # transition density at the threshold, (2 pi t)^{-1/2}
    t = 0.5
    run = engine_inputs(builtin_field("bm", n=1), [0.0], t, paths=40_000, seed=33)
    rep = bismut_report(lambda s: (s[:, 0] > 0).astype(float), [1.0], *run)
    assert within(rep, 1.0 / math.sqrt(2 * math.pi * t))


def test_intertwine_closed_forms():
    t = 0.5
    run = engine_inputs(builtin_field("bm", n=1), [0.2], t, paths=20_000, seed=34)
    rep = gradient_routes(lambda s: np.sin(s[:, 0]), lambda s: np.cos(s), [1.0], *run,
                          bump=1e-3)["intertwine"]
    assert within(rep, math.cos(0.2) * math.exp(-t / 2.0))
    ou_run = engine_inputs(builtin_field("ou", lam=1.0), [0.0], t, paths=5_000, seed=35)
    rep2 = gradient_routes(lambda s: s[:, 0], lambda s: np.ones_like(s), [1.0], *ou_run,
                           bump=1e-3)["intertwine"]
    assert rep2.se < 1e-15          # deterministic up to mean-rounding noise
    assert rep2.estimate == pytest.approx((1.0 - 1e-3) ** 500, rel=1e-12)
    rep3 = gradient_routes(lambda s: np.zeros(len(s)), lambda s: np.zeros_like(s), [1.0],
                           *ou_run, bump=1e-3)["intertwine"]
    assert rep3.estimate == 0.0


def test_fd_gradient_cases():
    run = engine_inputs(builtin_field("bm", n=1), [0.0], 0.5, paths=5_000, seed=36)
    rep = gradient_routes(lambda s: s[:, 0], None, [1.0], *run, bump=1e-3)["fd"]
    assert rep.estimate == pytest.approx(1.0, abs=1e-10)     # CRN cancels the noise
    rep0 = gradient_routes(lambda s: np.ones(len(s)), None, [1.0], *run, bump=1e-3)["fd"]
    assert rep0.estimate == 0.0
    ou_run = engine_inputs(builtin_field("ou", lam=1.0), [0.0], 0.5, paths=5_000, seed=37)
    rep2 = gradient_routes(lambda s: s[:, 0], None, [1.0], *ou_run, bump=1e-3)["fd"]
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
                run = engine_inputs(fs, [0.0], t, paths=8_000,
                                    seed=5000 + 100 * fi + 10 * ci + int(t * 4))
                reps = gradient_routes(f, df, [1.0], *run, bump=1e-3, workers=2)
                pooled_all = math.sqrt(sum(r.se ** 2 for r in reps.values()))
                names = list(reps)
                for i, a in enumerate(names):
                    for b in names[i + 1:]:
                        gap = abs(reps[a].estimate - reps[b].estimate)
                        assert gap <= 3.0 * pooled_all + 1e-4, (
                            f"{fs.name} case{ci} t={t}: {a} vs {b} gap {gap:.2e} "
                            f"pooled {pooled_all:.2e}")


def test_a_path_flagged_in_a_bumped_run_leaves_every_route():
    # the drift is NaN on a band near x0 + bump v0, which paths from there
    # reach far more often than paths from x0; flags of the three lockstep
    # runs are pooled, so such a path leaves every route
    fs = scalar_drift_field(lambda x: np.where(np.abs(x - 0.8) < 0.2, np.nan, 0.0),
                            lambda x: np.zeros_like(x))
    run = engine_inputs(fs, [0.0], 0.1, paths=400, seed=70, dt=5e-3)
    f, df = (lambda s: s[:, 0]), (lambda s: np.ones_like(s))
    weight = DivergenceWeight(CameronMartinPath.constant([1.0]))
    alone = [run_ensemble(fs, [x], *run[2:], trackers=(weight,)) for x in (0.0, 0.5, -0.5)]
    flag = alone[0].flag | alone[1].flag | alone[2].flag
    assert np.any(alone[1].flag & ~alone[0].flag)
    reps = gradient_routes(f, df, [1.0], *run, bump=0.5)
    assert sorted(reps) == ["bismut", "fd", "intertwine"]
    for rep in reps.values():
        assert (rep.excluded, rep.samples) == (flag.sum(), (~flag).sum())
    ok = ~flag
    bismut = f(alone[0].state_T[ok]) * alone[0].extras["div_weight"][ok] / 0.1
    assert reps["bismut"].estimate == bismut.mean()
    fd = (f(alone[1].state_T[ok]) - f(alone[2].state_T[ok])) / 1.0
    assert reps["fd"].estimate == fd.mean()
    assert reps["intertwine"].estimate == 1.0


# ---------------------------------------------------------------------------
# divergence


def test_divergence_bm_is_brownian_endpoint():
    g = TimeGrid(0.5, 100)
    noise = BrownianBatch(seed=40, paths=4, grid=g, m=1)
    h = CameronMartinPath.constant([1.0])
    vals = divergence(h, builtin_field("bm", n=1), [0.0], noise)
    w_T = noise.block_increments(0)[:, :, 0].sum(axis=1)
    assert vals.shape == (4,)
    assert vals == pytest.approx(w_T, abs=1e-12)


def test_divergence_scaled_diffusion():
    g = TimeGrid(0.5, 100)
    noise = BrownianBatch(seed=41, paths=4, grid=g, m=1)
    fs = builtin_field("const_shift", matrix=[[2.0]], shift=[0.0])
    h = CameronMartinPath.constant([1.0])
    w_T = noise.block_increments(0)[:, :, 0].sum(axis=1)
    assert divergence(h, fs, [0.0], noise) == pytest.approx(w_T / 2.0, abs=1e-12)


def test_divergence_ou_ito_isometry():
    # delta = sum e^{-lam t_k} dW_k is centered with variance ~ (1-e^{-2T})/2
    T, steps, paths = 1.0, 200, 4096
    g = TimeGrid(T, steps)
    noise = BrownianBatch(seed=42, paths=paths, grid=g, m=1)
    ou = builtin_field("ou", lam=1.0)
    res = run_ensemble(ou, [0.0], noise,
                       trackers=(DivergenceWeight(CameronMartinPath.constant([1.0])),))
    delta = res.extras["div_weight"]
    target_var = (1.0 - math.exp(-2.0 * T)) / 2.0
    se_var = delta.var(ddof=1) * math.sqrt(2.0 / (paths - 1))
    assert abs(delta.mean()) <= 3.0 * delta.std(ddof=1) / math.sqrt(paths)
    assert abs(delta.var(ddof=1) - target_var) <= 3.0 * se_var + 2.0 * g.dt
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
    run = engine_inputs(builtin_field("bm", n=1), [0.0], T, paths=20_000, seed=43)
    h = CameronMartinPath.constant([1.0])
    res = ibp_check(lambda xT: xT[:, 0], lambda xT, vT: vT[:, 0], h, *run)
    assert res.lhs.estimate == pytest.approx(T, rel=1e-12)   # deterministic side
    assert abs(res.rhs.estimate - T) <= 3.0 * res.rhs.se
    assert res.ok


def test_ibp_bm_sin_matches_closed_form():
    T, x0 = 0.5, 0.0
    run = engine_inputs(builtin_field("bm", n=1), [x0], T, paths=20_000, seed=44)
    F, dF = _sin_functionals()
    res = ibp_check(F, dF, CameronMartinPath.constant([1.0]), *run)
    target = T * math.cos(x0) * math.exp(-T / 2.0)
    assert abs(res.lhs.estimate - target) <= 3.0 * res.lhs.se
    assert abs(res.rhs.estimate - target) <= 3.0 * res.rhs.se
    assert res.gap <= 3.0 * res.se_pooled


def test_ibp_ou_sin():
    run = engine_inputs(builtin_field("ou", lam=1.0), [0.0], 0.5, paths=20_000, seed=45)
    F, dF = _sin_functionals()
    res = ibp_check(F, dF, CameronMartinPath.constant([1.0]), *run)
    assert res.gap <= 3.0 * res.se_pooled


def test_ibp_constant_functional():
    run = engine_inputs(builtin_field("bm", n=1), [0.0], 0.5, paths=10_000, seed=46)
    res = ibp_check(lambda xT: np.ones(len(xT)), lambda xT, vT: np.zeros(len(xT)),
                    CameronMartinPath.constant([1.0]), *run)
    assert res.lhs.estimate == 0.0
    assert abs(res.rhs.estimate) <= 3.0 * res.rhs.se


def test_ibp_adapted_direction():
    # hdot_s = tanh(xi_s) reads only the current state: still a valid
    # adapted Cameron-Martin direction, and the identity must survive
    run = engine_inputs(builtin_field("bm", n=1), [0.0], 0.25, paths=40_000, seed=47)
    h = CameronMartinPath(lambda k, state: np.tanh(state))
    res = ibp_check(lambda xT: xT[:, 0], lambda xT, vT: vT[:, 0], h, *run)
    assert res.gap <= 3.0 * res.se_pooled + 1e-3


def test_ibp_flags_paths_whose_weight_is_not_finite():
    # the state and V of every path stay finite, but the rate is infinite
    # above 0.3, so the weights of the paths that get there are not: the
    # flag rule reads the trackers' outputs too, and those paths leave both sides
    fs = builtin_field("bm", n=1)
    run = engine_inputs(fs, [0.0], 1.0, paths=200, seed=7, dt=0.1)
    h = CameronMartinPath(lambda k, state: np.where(state > 0.3, np.inf, 1.0))
    weights = divergence(h, *run)
    assert np.sum(~np.isfinite(weights)) == 114
    F, dF = _sin_functionals()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = ibp_check(F, dF, h, *run)
    assert math.isfinite(res.lhs.estimate) and math.isfinite(res.rhs.estimate)
    assert res.lhs.excluded == res.rhs.excluded == 114


def test_ibp_full_path_functional():
    # F(path) = mean_k sin(path_k); on flat noise both sides match termwise
    T = 0.5
    run = engine_inputs(builtin_field("bm", n=1), [0.0], T, paths=20_000, seed=48)

    def F(times, states):
        return np.mean(np.sin(states[:, :, 0]), axis=1)

    def dF(times, states, direction):
        return np.mean(np.cos(states[:, :, 0]) * direction[:, :, 0], axis=1)

    res = ibp_check(F, dF, CameronMartinPath.constant([1.0]), *run, full_path=True)
    assert res.gap <= 3.0 * res.se_pooled


def test_ibp_verdict_uses_paired_se():
    # lhs and rhs share their paths, so the SE of their difference is the
    # paired one; a gap within 3 paired SE passes even above 3 pooled SE
    rep = EstimatorReport(0.0, 1.0, 100)
    assert IbpResult(rep, rep, gap=3.2, se_pooled=1.0, se_paired=1.1).ok
    assert not IbpResult(rep, rep, gap=3.4, se_pooled=1.2, se_paired=1.1).ok
    # an overflowed side has an infinite SE, which must not pass its gap
    assert not IbpResult(rep, rep, gap=math.inf, se_pooled=math.inf, se_paired=math.inf).ok


def test_ibp_paired_se_of_one_path_is_infinite_as_every_report_se():
    # one path has no spread to estimate: the paired SE follows the report
    # rule, inf with no warning, so the verdict cannot fail on a NaN bound
    run = engine_inputs(builtin_field("bm", n=1), [0.0], 0.5, paths=1, seed=49, dt=0.05)
    F, dF = _sin_functionals()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ibp_check(F, dF, CameronMartinPath.constant([1.0]), *run)
    assert res.se_paired == res.lhs.se == math.inf
    assert res.ok


def test_direction_of_the_wrong_length_fails_before_any_noise(monkeypatch):
    # a v0 or a constant direction that does not match the field set's n is
    # rejected, naming the key, before a block of noise is drawn
    def no_noise(*args, **kwargs):
        raise AssertionError("a rejected run drew noise")

    monkeypatch.setattr(BrownianBatch, "block_increments", no_noise)
    run = engine_inputs(builtin_field("bm", n=2), [0.0, 0.0], 0.5, paths=8, seed=0, dt=0.1)
    f = lambda s: s[:, 0]
    df = lambda s: np.ones_like(s)
    F, dF = (lambda xT: xT[:, 0]), (lambda xT, vT: vT[:, 0])
    for bad in ([1.0, 0.0, 0.0], [1.0]):
        h = CameronMartinPath.constant(bad)
        rows = [
            (lambda: gradient_routes(f, df, bad, *run, bump=1e-3), "v0"),
            (lambda: ibp_check(F, dF, h, *run), "direction h"),
            (lambda: divergence(h, *run), "direction h"),
        ]
        for call, key in rows:
            with pytest.raises(FieldError, match=key):
                call()
    # the right length goes on to draw the noise
    with pytest.raises(AssertionError, match="drew noise"):
        gradient_routes(f, df, [0.6, -0.8], *run, bump=1e-3)


def test_every_caller_vector_needs_n_finite_entries_before_any_noise(monkeypatch):
    # one rule for x0, v0 and a constant h: n entries, each finite, or a
    # FieldError naming the key before a block of noise is drawn
    def no_noise(*args, **kwargs):
        raise AssertionError("a rejected run drew noise")

    monkeypatch.setattr(BrownianBatch, "block_increments", no_noise)
    fs, x0, noise = engine_inputs(builtin_field("bm", n=2), [0.0, 0.0], 0.5,
                                  paths=8, seed=0, dt=0.1)
    f = lambda s: s[:, 0]
    df = lambda s: np.ones_like(s)
    F, dF = (lambda xT: xT[:, 0]), (lambda xT, vT: vT[:, 0])
    # gradient_routes bumps x0 along v0, and rejects a short x0 before it does
    with pytest.raises(FieldError, match="x0 has dimension 1"):
        gradient_routes(f, df, [1.0, 0.0], fs, [0.0], noise, bump=1e-3)
    for bad in (math.nan, math.inf):
        v0 = [1.0, bad]
        # a constant direction reads its entries where it is made
        h = lambda: CameronMartinPath.constant(v0)
        rows = [(lambda: gradient_routes(f, df, v0, fs, x0, noise, bump=1e-3),
                 "v0 .* not finite"),
                (lambda: gradient_routes(f, df, [1.0, 0.0], fs, x0, noise, bump=bad),
                 "bump"),
                (lambda: ibp_check(F, dF, h(), fs, x0, noise), "direction h .* not finite"),
                (lambda: divergence(h(), fs, x0, noise), "direction h .* not finite")]
        for call, key in rows:
            with pytest.raises(FieldError, match=key):
                call()


def test_every_direction_is_checked_by_its_rate_before_any_noise(monkeypatch):
    # constant or adapted, a direction's rate at step 0 from x0 must be one
    # row of n finite entries; a wrong width, a non-finite entry, a 1-d row
    # or a row per path is a FieldError naming the direction, before a block
    # of noise is drawn
    def no_noise(*args, **kwargs):
        raise AssertionError("a rejected run drew noise")

    monkeypatch.setattr(BrownianBatch, "block_increments", no_noise)
    fs, x0, noise = engine_inputs(builtin_field("bm", n=2), [0.0, 0.0], 0.5,
                                  paths=8, seed=0, dt=0.1)
    F, dF = (lambda xT: xT[:, 0]), (lambda xT, vT: vT[:, 0])
    rates = [lambda k, s: np.ones((len(s), 3)),
             lambda k, s: np.full((len(s), 2), math.nan),
             lambda k, s: np.full((len(s), 2), math.inf),
             lambda k, s: np.ones(2),
             lambda k, s: np.ones((2, 2))]
    for rate in rates:
        h = CameronMartinPath(rate)
        for call in (lambda: ibp_check(F, dF, h, fs, x0, noise),
                     lambda: divergence(h, fs, x0, noise)):
            with pytest.raises(FieldError, match="direction h"):
                call()
    # an adapted direction of one row per path goes on to draw the noise
    h = CameronMartinPath(lambda k, s: np.tanh(s))
    with pytest.raises(AssertionError, match="drew noise"):
        divergence(h, fs, x0, noise)
