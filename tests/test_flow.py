import dataclasses
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdem import flow
from sdem.fields import DerivativeUnavailableError, FieldError, builtin_field
from sdem.malliavin import (CameronMartinPath, DivergenceWeight, _DirectionRecorder,
                            divergence, gradient_routes, ibp_check)
from sdem.mollify import mollify_field
from sdem.flow import (BLOCK, TILE, BrownianBatch, IntegratedG, JacSupNorm, PathRecorder,
                       TimeGrid, Tracker, mm, _PairSup, coupled_family, exp_g_functional,
                       moment_sup, run_ensemble, run_multi)
from conftest import counting, scalar_drift_field, spatial_derivative_check


def test_time_grid_endpoint_exact():
    g = TimeGrid(0.25, 250)
    assert g.times()[-1] == 0.25
    assert g.times()[0] == 0.0
    assert g.dt > 0
    for T in (-1.0, math.nan, math.inf):
        with pytest.raises(FieldError, match="horizon T"):
            TimeGrid(T, 10)
    with pytest.raises(FieldError):
        TimeGrid(1.0, 0)


# ---------------------------------------------------------------------------
# Brownian increments


def test_increments_pure_in_seed_path_step():
    g = TimeGrid(1.0, 8)
    full = BrownianBatch(seed=42, paths=BLOCK + 7, grid=g, m=2)
    small = BrownianBatch(seed=42, paths=6, grid=g, m=2)
    # same path, different ensemble sizes
    assert np.array_equal(full.block_increments(0)[5], small.block_increments(0)[5])
    # across a block boundary: the partial second block holds the last 7 paths
    assert full.block_increments(1).shape == (7, 8, 2)
    assert not np.array_equal(full.block_increments(1)[3], full.block_increments(0)[3])


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
    assert not np.array_equal(a.block_increments(0)[0], b.block_increments(0)[0])


def test_block_increments_are_the_stream_stored_step_major():
    # the engine reads dW[:, k, :] once per step, so a block is stored
    # step-major; its values are still the path-major draw times sqrt(dt).
    # The draw goes TILE values at a time and the generator fills in order, so
    # the tiles continue one stream: a full block, and a partial block whose
    # row count is not a multiple of the tile, equal the whole-block draw
    g = TimeGrid(0.5, 20)
    for m in (1, 2):
        per = TILE // (g.steps * m)
        assert BLOCK % per and BLOCK > 2 * per
        noise = BrownianBatch(seed=31, paths=BLOCK + 2 * per + 77, grid=g, m=m)
        out = np.full((g.steps, BLOCK, m), np.nan)
        for b in range(noise.n_blocks):
            sl = noise.block_slice(b)
            ss = np.random.SeedSequence(31, spawn_key=(b,))
            ref = (np.random.default_rng(ss).standard_normal((sl.stop - sl.start, 20, m))
                   * math.sqrt(g.dt))
            fresh, again = noise.block_increments(b), noise.block_increments(b)
            into = noise.block_increments(b, out=out)
            for dW in (fresh, again, into):
                assert dW.shape == ref.shape
                assert dW.tobytes() == ref.tobytes()
                assert all(dW[:, k, :].flags.c_contiguous for k in range(g.steps))
            # out= fills the leading rows of the buffer and returns a view of it
            assert np.shares_memory(into, out)
            # two calls without out= return arrays the caller owns
            assert not np.shares_memory(fresh, again)
            fresh[...] = 0.0
            assert again.tobytes() == ref.tobytes()
        with pytest.raises(FieldError, match="out must be"):
            noise.block_increments(0, out=np.empty((g.steps, BLOCK - 1, m)))
        with pytest.raises(FieldError, match="out must be"):
            noise.block_increments(0, out=np.empty((g.steps, BLOCK, m), dtype=np.float32))


def test_noise_block_numpy_cannot_index_is_rejected_before_any_draw():
    # a finite horizon can still ask for more steps than numpy can index
    grid = TimeGrid(1e300, 10 ** 303)
    with pytest.raises(FieldError, match="steps"):
        BrownianBatch(seed=0, paths=10, grid=grid, m=1)
    # the largest block that does fit is accepted: the check is on one block
    rows_max = np.iinfo(np.intp).max // 8
    BrownianBatch(seed=0, paths=BLOCK * 4, grid=TimeGrid(1.0, rows_max // BLOCK), m=1)


@settings(max_examples=40, deadline=None)
@given(i=st.integers(0, 3 * BLOCK - 1),
       extra=st.tuples(st.integers(0, 2 * BLOCK), st.integers(0, 2 * BLOCK)),
       m=st.sampled_from([1, 2]))
def test_increments_do_not_depend_on_path_or_block_count(i, extra, m):
    g = TimeGrid(1.0, 4)
    a, c = (BrownianBatch(seed=5, paths=i + 1 + e, grid=g, m=m) for e in extra)
    b, r = divmod(i, BLOCK)
    inc = a.block_increments(b)[r]
    assert inc.shape == (4, m)
    assert np.array_equal(inc, c.block_increments(b)[r])


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), B=st.integers(1, 40), q=st.integers(1, 4))
def test_scalar_product_is_the_1x1_matmul_bit_for_bit(data, B, q):
    a = np.array(data.draw(st.lists(_ENTRIES, min_size=B, max_size=B))).reshape(B, 1, 1)
    b = np.array(data.draw(st.lists(_ENTRIES, min_size=B * q, max_size=B * q)))
    b = b.reshape(B, 1, q)
    for x, y in ((a, b), (b.transpose(0, 2, 1), a)):
        with np.errstate(all="ignore"):
            got, want = mm(x, y), x @ y
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        # -0 included; only the sign of NaN * NaN, which IEEE 754 leaves
        # open, may follow the operand order
        assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])


def test_matrix_product_keeps_the_matmul_for_n_2(rng):
    a, b = rng.standard_normal((5, 2, 2)), rng.standard_normal((5, 2, 2))
    assert np.array_equal(mm(a, b), a @ b)
    row, col = rng.standard_normal((5, 1, 2)), rng.standard_normal((5, 2, 1))
    assert mm(row, col).shape == (5, 1, 1)
    assert np.array_equal(mm(row, col), row @ col)


# ---------------------------------------------------------------------------
# recorded trajectories


def _cumulative_noise(noise):
    """W at every grid time for every path, (paths, steps + 1) for m = 1."""
    dW = np.concatenate([noise.block_increments(b)[:, :, 0]
                         for b in range(noise.n_blocks)], axis=0)
    return np.concatenate([np.zeros((noise.paths, 1)), np.cumsum(dW, axis=1)], axis=1)


def test_bm_path_is_cumulative_sum():
    g = TimeGrid(1.0, 200)
    noise = BrownianBatch(seed=3, paths=4, grid=g, m=1)
    res = run_ensemble(builtin_field("bm", n=1), [0.0], noise, trackers=(PathRecorder(),))
    assert res.extras["paths_states"].shape == (4, 201, 1)
    assert np.max(np.abs(res.extras["paths_states"][:, :, 0] - _cumulative_noise(noise))) < 1e-13
    assert np.all(res.extras["paths_jacs"] == 1.0)
    assert res.n_flagged == 0


def test_const_shift_euler_is_exact():
    g = TimeGrid(1.0, 500)
    noise = BrownianBatch(seed=4, paths=3, grid=g, m=1)
    fs = builtin_field("const_shift", matrix=[[2.0]], shift=[1.0])
    res = run_ensemble(fs, [0.3], noise, trackers=(PathRecorder(),))
    exact = 0.3 + 2.0 * _cumulative_noise(noise) + g.times()
    assert np.max(np.abs(res.extras["paths_states"][:, :, 0] - exact)) < 1e-12


def test_ou_derivative_flow_matches_product_and_exponential():
    g = TimeGrid(1.0, 1000)
    noise = BrownianBatch(seed=5, paths=2, grid=g, m=1)
    res = run_ensemble(builtin_field("ou", lam=1.0), [1.0], noise, trackers=(PathRecorder(),))
    # 1-d commutative system: Euler V_k is the running product
    prod = np.cumprod(np.concatenate([[1.0], np.full(1000, 1.0 - g.dt)]))
    assert np.max(np.abs(res.extras["paths_jacs"][:, :, 0, 0] - prod)) < 1e-12
    # Richardson halving estimates the O(dt) constant
    errs = []
    for steps in (500, 1000):
        gg = TimeGrid(1.0, steps)
        nn = BrownianBatch(seed=5, paths=2, grid=gg, m=1)
        r = run_ensemble(builtin_field("ou", lam=1.0), [1.0], nn, trackers=(JacSupNorm(),))
        errs.append(abs(r.jac_T[0, 0, 0] - math.exp(-1.0)))
    assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.05)
    assert errs[1] <= 1.0 * gg.dt


def test_each_field_is_evaluated_once_per_step():
    # the Euler update and every tracker share one evaluation of each field;
    # a drift declared identically zero (bm's) is never evaluated, a declared
    # affine drift (const_shift's and ou's) has its derivative evaluated on
    # one row per step, and a declared constant diffusion (all three here) is
    # evaluated on one row per step, with its zero derivative never evaluated
    g = TimeGrid(0.25, 4)
    shifted = builtin_field("const_shift", matrix=[[1.0, 0.5], [0.0, 2.0]], shift=[0.1, 0.0])
    cases = ((shifted, [0.0, 0.0], [1.0, -1.0]),
             (builtin_field("bm", n=2), [0.0, 0.0], [1.0, -1.0]),
             (builtin_field("ou", lam=1.0), [0.0], [1.0]))
    for base, x0, hdot in cases:
        assert base.constant_diffusion
        noise = BrownianBatch(seed=5, paths=BLOCK + 10, grid=g, m=base.m)
        fs, calls, rows = counting(base)
        per_step = g.steps * noise.n_blocks
        first = 1 if base.zero_drift else 0
        expect_calls = {("A", l): per_step for l in range(first, base.m + 1)}
        expect_rows = {("A", l): per_step if l else g.steps * noise.paths
                       for l in range(first, base.m + 1)}
        if first == 0:
            assert base.affine_drift
            expect_calls["DA", 0] = expect_rows["DA", 0] = per_step
        for trackers in ((DivergenceWeight(CameronMartinPath.constant(hdot)),),
                         (JacSupNorm(), IntegratedG())):
            calls.clear()
            rows.clear()
            run_ensemble(fs, x0, noise, trackers=trackers, workers=1)
            assert dict(calls) == expect_calls, base.name
            assert dict(rows) == expect_rows, base.name


def test_a_run_carries_v_exactly_when_a_tracker_reads_it():
    # DA is evaluated, and jac_T kept, only in the runs that a tracker reads
    # V of.  gradient_routes' bumped runs are states alone, so a mollified
    # field's DA is evaluated once per step and block, not three times,
    # while its A still is three times
    g = TimeGrid(0.25, 4)
    noise = BrownianBatch(seed=5, paths=BLOCK + 10, grid=g, m=1)
    per_step, rows_per_step = g.steps * noise.n_blocks, g.steps * noise.paths
    log = builtin_field("log_example", beta=1.0)
    fs, calls, rows = counting(mollify_field(log, 0.1))
    gradient_routes(np.sin, np.cos, [1.0], fs, [0.3], noise, bump=1e-2)
    assert dict(calls) == {("A", 1): 3 * per_step, ("DA", 1): per_step}
    assert dict(rows) == {("A", 1): 3 * rows_per_step, ("DA", 1): rows_per_step}
    # a run that no tracker reads V of evaluates no DA and keeps no V
    calls.clear()
    results, _ = run_multi([(fs, [0.3]), (fs, [-0.3])], noise, trackers=(JacSupNorm(1),))
    assert dict(calls) == {("A", 1): 2 * per_step, ("DA", 1): per_step}
    assert results[0].jac_T is None and results[1].jac_T.shape == (noise.paths, 1, 1)
    # nor does a state-only family, whose levels evaluate their base's DA
    # nowhere; with derivative gaps every level does
    base, calls, _ = counting(log)
    for with_jac in (False, True):
        calls.clear()
        fam = coupled_family(base, [0.2, 0.1], [0.3], noise, with_jac=with_jac)
        assert (("DA", 1) in calls) == with_jac
        assert all((res.jac_T is None) != with_jac for res in fam.levels.values())


def test_zero_drift_skip_and_state_only_runs_are_bit_exact():
    # skipping a declared zero drift moves no bit of the states, derivative
    # flows, flags or derivative energy; a state-only run has the same states
    log = builtin_field("log_example", beta=1.0)
    plain = dataclasses.replace(log, zero_drift=False)
    g = TimeGrid(0.25, 50)
    noise = BrownianBatch(seed=21, paths=400, grid=g, m=1)
    for wrap in (lambda fs: fs, lambda fs: mollify_field(fs, 0.1)):
        assert wrap(log).zero_drift and not wrap(plain).zero_drift
        out = []
        for fs in (wrap(log), wrap(plain)):
            (res,), extras = run_multi([(fs, [0.3])], noise, trackers=(IntegratedG(),))
            (state,), _ = run_multi([(fs, [0.3])], noise)
            out.append([a.tobytes() for a in (res.state_T, res.jac_T, res.flag,
                                               extras["int_g"], state.state_T, state.flag)])
        assert out[0] == out[1]
        assert out[0][0] == out[0][4] and out[0][2] == out[0][5]


def test_constant_diffusion_declaration_is_bit_exact():
    # evaluating a declared constant diffusion on one row, skipping its zero
    # derivative and inverting it once per block moves no bit of what a
    # study reads, on the raw and mollified views
    def both(fs):
        return fs, dataclasses.replace(fs, constant_diffusion=False)

    ou = builtin_field("ou", lam=1.0)
    bm2 = builtin_field("bm", n=2)
    wide = builtin_field("const_shift", matrix=[[1.0, 0.5, -0.3], [0.2, 2.0, 0.7]],
                         shift=[0.1, -0.2])
    cases = [(both(ou), [0.3], [1.0]),
             (both(bm2), [0.3, -0.2], [0.6, -0.8]),
             (both(wide), [0.3, -0.2], [0.6, -0.8]),
             ([mollify_field(fs, 0.1) for fs in both(ou)], [0.3], [1.0])]
    g = TimeGrid(0.25, 30)
    for (declared, plain), x0, hdot in cases:
        assert declared.constant_diffusion and not plain.constant_diffusion
        noise = BrownianBatch(seed=23, paths=300, grid=g, m=declared.m)
        out = []
        for fs in (declared, plain):
            trackers = (DivergenceWeight(CameronMartinPath.constant(hdot)), IntegratedG())
            res = run_ensemble(fs, x0, noise, trackers=trackers)
            out.append([a.tobytes() for a in (res.state_T, res.jac_T, res.flag)]
                       + [res.extras[key].tobytes() for key in
                          ("div_weight", "div_h_T", "int_g")])
        assert out[0] == out[1], declared.name
    # a one-path block has one row too; its (varying) diffusion must still be
    # inverted at every step, so its path reads as it does in a larger block
    log = builtin_field("log_example", beta=1.0)
    weights = []
    for paths in (1, 3):
        noise = BrownianBatch(seed=24, paths=paths, grid=g, m=1)
        res = run_ensemble(log, [0.3], noise,
                           trackers=(DivergenceWeight(CameronMartinPath.constant([1.0])),))
        weights.append(res.extras["div_weight"][0])
    assert weights[0] == weights[1]


def test_one_row_derivative_flow_is_byte_identical():
    # under a declared affine drift and a constant diffusion V is carried as
    # one row that every path shares; declared or not, at 1 worker or cut
    # into 3 slices, every output byte is the same, and a recorded V has one
    # row per path
    def both(fs):
        return fs, dataclasses.replace(fs, affine_drift=False)

    ou = builtin_field("ou", lam=1.0)
    shifted = builtin_field("const_shift", matrix=[[1.0, 0.5], [0.0, 2.0]], shift=[0.1, -0.2])
    cases = [(both(ou), [0.3], [1.0]),
             (both(shifted), [0.3, -0.2], [0.6, -0.8]),
             ([mollify_field(fs, 0.1) for fs in both(ou)], [0.3], [1.0])]
    g = TimeGrid(0.25, 20)
    for (declared, plain), x0, hdot in cases:
        assert declared.affine_drift and not plain.affine_drift
        noise = BrownianBatch(seed=26, paths=300, grid=g, m=declared.m)
        out = []
        for fs in (declared, plain):
            for workers in (1, 3):
                trackers = (JacSupNorm(), IntegratedG(),
                            DivergenceWeight(CameronMartinPath.constant(hdot)), PathRecorder())
                res = run_ensemble(fs, x0, noise, trackers=trackers, workers=workers)
                n = fs.n
                assert res.jac_T.shape == (300, n, n)
                assert res.extras["paths_jacs"].shape == (300, g.steps + 1, n, n)
                out.append([a.tobytes() for a in (res.state_T, res.jac_T, res.flag)]
                           + [res.extras[key].tobytes() for key in sorted(res.extras)])
        assert all(o == out[0] for o in out), declared.name


@pytest.mark.parametrize("drift, ddrift, x0, state_finite", [
    # the state overflows, on each flagged row at a step of its own
    (lambda x: x ** 3, lambda x: 3.0 * x ** 2, [0.5], False),
    # V overflows while the state, plain Brownian motion, stays finite
    (lambda x: 0.0 * x, lambda x: 1e6 * x * x, [0.0], True),
])
def test_flags_at_the_end_match_the_recorded_trajectory(drift, ddrift, x0, state_finite):
    # the engine checks its states and V once, after the last step; a row is
    # flagged exactly when some recorded state or V of it is non-finite
    fs = scalar_drift_field(drift, ddrift)
    g = TimeGrid(1.0, 100)
    noise = BrownianBatch(seed=31, paths=200, grid=g, m=1)
    for workers in (1, 2, 3):
        res = run_ensemble(fs, x0, noise, trackers=(PathRecorder(),), workers=workers)
        states, jacs = res.extras["paths_states"], res.extras["paths_jacs"]
        bad = (~np.isfinite(states).all(axis=2)
               | ~np.isfinite(jacs.reshape(200, g.steps + 1, -1)).all(axis=2))
        np.testing.assert_array_equal(res.flag, bad.any(axis=1))
        # the premise: some rows are flagged, some not, at several steps
        first = bad.argmax(axis=1)[res.flag]
        assert 0 < res.n_flagged < 200 and len(set(first.tolist())) > 1
        assert np.isfinite(states).all() == state_finite


def test_a_field_set_without_da_is_refused_only_where_a_tracker_reads_v(monkeypatch):
    # a run carries V exactly when a tracker that reads V names it, so a
    # field set without DA is refused, naming it, before any noise on such a
    # run, and on any other run goes on to draw the noise
    def no_noise(*args, **kwargs):
        raise AssertionError("a state-only run drew noise")

    monkeypatch.setattr(BrownianBatch, "block_increments", no_noise)
    ou = builtin_field("ou", lam=1.0)
    bare = scalar_drift_field(lambda x: -x, name="bare")
    g = TimeGrid(0.25, 10)
    noise = BrownianBatch(seed=1, paths=8, grid=g, m=1)
    h = CameronMartinPath.constant([1.0])
    readers = (JacSupNorm, IntegratedG, PathRecorder,
               lambda r: DivergenceWeight(h, r), lambda r: _DirectionRecorder(h, r))
    runs = [(ou, [0.0]), (bare, [1.0])]
    for reader in readers:
        with pytest.raises(DerivativeUnavailableError, match="'bare'"):
            run_ensemble(bare, [0.0], noise, trackers=(reader(0),))
        with pytest.raises(DerivativeUnavailableError, match="'bare'"):
            run_multi(runs, noise, trackers=(reader(1),))
        # the tracker reads V of the other run alone
        with pytest.raises(AssertionError, match="drew noise"):
            run_multi(runs, noise, trackers=(reader(0),))
    with pytest.raises(DerivativeUnavailableError, match="'bare'"):
        run_multi(runs, noise, trackers=(_PairSup(0, 1, True),))
    for trackers in ((), (PathRecorder(with_jac=False),), (_PairSup(0, 1, False),)):
        with pytest.raises(AssertionError, match="drew noise"):
            run_multi(runs, noise, trackers=trackers)


def test_a_tracker_of_a_run_that_does_not_exist_is_refused_before_any_noise(monkeypatch):
    # the runs a tracker names must be among those given, a state-only
    # tracker's too; a negative index is not one, nor is a float or a bool
    def no_noise(*args, **kwargs):
        raise AssertionError("a rejected run drew noise")

    monkeypatch.setattr(BrownianBatch, "block_increments", no_noise)
    ou = builtin_field("ou", lam=1.0)
    noise = BrownianBatch(seed=1, paths=8, grid=TimeGrid(0.25, 10), m=1)
    one, two = [(ou, [0.0])], [(ou, [0.0]), (ou, [1.0])]
    rows = [(one, JacSupNorm(run=1), r"JacSupNorm reads run 1, not one of the runs \[0\]"),
            (one, JacSupNorm(run=-1), r"JacSupNorm reads run -1, not one of the runs \[0\]"),
            (two, JacSupNorm(run=1.0), r"JacSupNorm reads run 1.0, .* \[0, 1\]"),
            (two, JacSupNorm(run=True), r"JacSupNorm reads run True, .* \[0, 1\]"),
            (two, _PairSup(False, 1, True), r"_PairSup reads run False, .* \[0, 1\]"),
            (two, PathRecorder(2, with_jac=False), r"PathRecorder reads run 2, .* \[0, 1\]"),
            (two, _PairSup(0, 3, False), r"_PairSup reads run 3, .* \[0, 1\]")]
    for runs, tracker, message in rows:
        with pytest.raises(FieldError, match=rf"^tracker {message}$"):
            run_multi(runs, noise, trackers=(tracker,))
    with pytest.raises(FieldError, match="reads run 1"):
        run_ensemble(ou, [0.0], noise, trackers=(JacSupNorm(run=1),))


def test_bad_start_or_missing_derivative_fails_before_any_noise(monkeypatch):
    # every run checks its start point, its worker count and, when a
    # tracker reads its V, the field set's DA before it draws a block; the
    # noise checks its seed when it is built
    def no_noise(*args, **kwargs):
        raise AssertionError("a rejected run drew noise")

    monkeypatch.setattr(BrownianBatch, "block_increments", no_noise)
    g = TimeGrid(1.0, 10)
    noise = BrownianBatch(seed=1, paths=2, grid=g, m=1)
    ou = builtin_field("ou", lam=1.0)
    bare = scalar_drift_field(lambda x: x, name="bare")
    rows = [
        (lambda: run_ensemble(ou, [math.nan], noise, trackers=(JacSupNorm(),)),
         FieldError, "x0"),
        (lambda: run_ensemble(ou, [-math.inf], noise), FieldError, "x0"),
        (lambda: run_multi([(ou, [0.0]), (ou, [math.nan])], noise), FieldError, "x0"),
        (lambda: coupled_family(ou, [0.2, 0.1], [math.inf], noise), FieldError, "x0"),
        (lambda: run_ensemble(bare, [0.0], noise, trackers=(JacSupNorm(),)),
         DerivativeUnavailableError, "'bare'"),
        (lambda: run_multi([(ou, [0.0]), (bare, [0.0])], noise, trackers=(JacSupNorm(1),)),
         DerivativeUnavailableError, "'bare'"),
        (lambda: BrownianBatch(seed=-1, paths=2, grid=g, m=1), FieldError, "seed"),
    ]
    rows += [(lambda w=w: run_ensemble(ou, [0.0], noise, workers=w), FieldError, "workers")
             for w in ("two", 0, -3)]
    for call, error, name in rows:
        with pytest.raises(error, match=name):
            call()
    # a run whose V no tracker reads needs no DA and goes on to draw the noise
    with pytest.raises(AssertionError, match="drew noise"):
        run_ensemble(bare, [0.0], noise)


def test_flagged_explosive_path():
    # cubic drift with a long step blows up in finite steps
    fs = scalar_drift_field(lambda x: x ** 9, df=lambda x: 9.0 * x ** 8)
    g = TimeGrid(5.0, 40)
    noise = BrownianBatch(seed=8, paths=64, grid=g, m=1)
    res = run_ensemble(fs, [2.0], noise,
                       trackers=(JacSupNorm(), IntegratedG(), PathRecorder()))
    assert res.n_flagged == 64
    assert not np.isfinite(res.extras["paths_states"][:, -1, 0]).any()
    # nothing is left after exclusion; each reduction says so before numpy
    # warns about the mean of an empty sample
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reduce in (moment_sup, exp_g_functional):
            with pytest.raises(FieldError, match=f"{reduce.__name__}: no unflagged paths"):
                reduce(res, 2.0)


# ---------------------------------------------------------------------------
# moments


def test_moment_sup_bm_and_ou():
    g = TimeGrid(1.0, 100)
    noise = BrownianBatch(seed=7, paths=256, grid=g, m=1)
    bm_res = run_ensemble(builtin_field("bm", n=1), [0.0], noise,
                          trackers=(JacSupNorm(),))
    rep = moment_sup(bm_res, 3.0)
    assert rep.estimate == 1.0 and rep.se == 0.0
    ou_res = run_ensemble(builtin_field("ou", lam=1.0), [0.0], noise,
                          trackers=(JacSupNorm(),))
    rep2 = moment_sup(ou_res, 2.0)
    assert rep2.estimate == pytest.approx(1.0, abs=1e-12)   # sup at t = 0


def test_exp_g_functional_values():
    g = TimeGrid(1.0, 100)
    noise = BrownianBatch(seed=7, paths=128, grid=g, m=1)
    bm_res = run_ensemble(builtin_field("bm", n=1), [0.0], noise,
                          trackers=(IntegratedG(),))
    assert exp_g_functional(bm_res, 2.0).estimate == 1.0
    ou = builtin_field("ou", lam=1.0)
    ou_res = run_ensemble(ou, [0.0], noise, trackers=(IntegratedG(),))
    rep = exp_g_functional(ou_res, 1.0)
    assert rep.estimate == pytest.approx(math.exp(6.0), rel=1e-12)
    assert rep.overflowed == 0


def test_exp_g_overflow_reported_as_inf():
    fs = scalar_drift_field(lambda x: -x, df=lambda x: np.full_like(x, -30.0))
    g = TimeGrid(1.0, 50)
    noise = BrownianBatch(seed=2, paths=16, grid=g, m=1)
    res = run_ensemble(fs, [0.0], noise, trackers=(IntegratedG(),))
    rep = exp_g_functional(res, 5.0)     # exp(6 * 25 * 900) overflows
    assert math.isinf(rep.estimate)
    assert rep.overflowed == 16


# ---------------------------------------------------------------------------
# coupled smoothing levels (common random numbers)


def test_coupled_family_constant_fields_collapse():
    g = TimeGrid(0.5, 50)
    noise = BrownianBatch(seed=10, paths=512, grid=g, m=1)
    fam = coupled_family(builtin_field("bm", n=1), [0.2, 0.1, 0.05], [0.0], noise)
    for eps, vals in fam.pair_state_sup.items():
        assert np.all(vals == 0.0), eps
    for eps, vals in fam.pair_jac_sup.items():
        assert np.all(vals == 0.0)


def test_coupled_family_linear_drift_collapses():
    # an affine field passes through the even kernel unchanged
    g = TimeGrid(0.5, 50)
    noise = BrownianBatch(seed=11, paths=256, grid=g, m=1)
    fam = coupled_family(builtin_field("ou", lam=1.0), [0.2, 0.1], [1.0], noise)
    assert np.max(fam.pair_state_sup[0.2]) < 1e-12
    assert np.max(fam.pair_jac_sup[0.2]) < 1e-12


def test_coupled_family_log_example_trend():
    g = TimeGrid(0.25, 125)
    noise = BrownianBatch(seed=12, paths=2000, grid=g, m=1)
    log = builtin_field("log_example", beta=1.0)
    fam = coupled_family(log, [0.2, 0.1, 0.05, 0.025], [0.0], noise)
    ests = [fam.sup_moment(e, 2.0).estimate for e in (0.2, 0.1, 0.05)]
    assert ests[0] > ests[1] > ests[2]
    jests = [fam.sup_moment(e, 2.0, which="jac").estimate
             for e in (0.2, 0.1, 0.05)]
    assert jests[0] > jests[1] > jests[2]
    # the family runs the mollified levels alone
    assert list(fam.levels) == [0.2, 0.1, 0.05, 0.025]
    assert fam.n_flagged == 0


def test_state_only_family_refuses_derivative_gaps():
    g = TimeGrid(0.25, 25)
    noise = BrownianBatch(seed=13, paths=300, grid=g, m=1)
    log = builtin_field("log_example", beta=1.0)
    eps = [0.2, 0.1, 0.05]
    full = coupled_family(log, eps, [0.0], noise)
    fam = coupled_family(log, eps, [0.0], noise, with_jac=False)
    assert fam.pair_jac_sup is None
    with pytest.raises(FieldError, match="state-only"):
        fam.sup_moment(0.2, 2.0, which="jac")
    # the gaps are each coarser level's to the finest, keyed by that level;
    # a level that is not a coarser one is named with the levels run
    for level in (0.3, 0.05):
        with pytest.raises(FieldError, match=rf"level {level}\b.*\[0\.2, 0\.1, 0\.05\]"):
            fam.sup_moment(level, 2.0)
    assert list(fam.pair_state_sup) == [0.2, 0.1]
    assert fam.pair_state_sup.keys() == full.pair_state_sup.keys()
    for key, vals in full.pair_state_sup.items():
        assert vals.tobytes() == fam.pair_state_sup[key].tobytes()
    assert all(res.jac_T is None for res in fam.levels.values())


def test_coupled_family_validates_ladder():
    g = TimeGrid(0.5, 10)
    noise = BrownianBatch(seed=1, paths=4, grid=g, m=1)
    with pytest.raises(FieldError):
        coupled_family(builtin_field("bm", n=1), [0.1, 0.2], [0.0], noise)
    with pytest.raises(FieldError):
        coupled_family(builtin_field("bm", n=1), [0.1, -0.2], [0.0], noise)


# ---------------------------------------------------------------------------
# determinism and parallel reduction


def test_worker_count_does_not_change_results():
    g = TimeGrid(0.5, 100)
    noise = BrownianBatch(seed=15, paths=3000, grid=g, m=1)
    ou = builtin_field("ou", lam=1.0)
    runs = [run_ensemble(ou, [0.5], noise, trackers=(JacSupNorm(),), workers=w)
            for w in (1, 4)]
    assert np.array_equal(runs[0].state_T, runs[1].state_T)
    assert np.array_equal(runs[0].extras["sup_jac"], runs[1].extras["sup_jac"])


_WORKER_FIELDS = {
    "ou": (builtin_field("ou", lam=1.0), ([0.5], [-0.25], [0.0])),
    "log_example|eps=0.1": (mollify_field(builtin_field("log_example", beta=1.0), 0.1),
                            ([0.2], [-0.1], [0.0])),
    "bm2": (builtin_field("bm", n=2), ([0.0, 0.3], [1.0, -1.0], [0.5, 0.5])),
}


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(sorted(_WORKER_FIELDS)),
       paths=st.one_of(st.integers(1, BLOCK - 1), st.integers(BLOCK + 1, 3 * BLOCK)),
       steps=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
@example(name="log_example|eps=0.1", paths=700, steps=3, seed=5)
@example(name="log_example|eps=0.1", paths=4, steps=3, seed=0)
@example(name="ou", paths=BLOCK + 1, steps=2, seed=6)
def test_outputs_do_not_depend_on_the_worker_count(name, paths, steps, seed):
    # one block, so workers > 1 cut it into row slices over the pool; or
    # 2-3 blocks, so workers > 1 run them whole or cut, by their count
    fs, starts = _WORKER_FIELDS[name]
    g = TimeGrid(0.25, steps)
    noise = BrownianBatch(seed=seed, paths=paths, grid=g, m=fs.m)
    out = []
    for w in (1, 2, 3, 5):
        results, extras = run_multi([(fs, x0) for x0 in starts], noise,
                                    trackers=(JacSupNorm(0), JacSupNorm(2),
                                              PathRecorder(1), _PairSup(0, 2, True)),
                                    workers=w)
        out.append([a.tobytes() for res in results for a in (res.state_T, res.jac_T, res.flag)]
                   + [extras[key].tobytes() for key in sorted(extras)])
    assert len(out[0]) == 9 + 6
    assert out[0] == out[1] == out[2] == out[3]


def test_worker_threads_ignore_overflow_as_the_calling_thread_does():
    # numpy's errstate is per thread: a worker thread that did not set its
    # own would let the overflow of the rows it steps escape as a warning
    # (an error here)
    fs = scalar_drift_field(lambda x: 1e3 * np.maximum(x, 0.0) ** 2,
                            lambda x: 2e3 * np.maximum(x, 0.0))
    g = TimeGrid(0.1, 20)
    noise = BrownianBatch(seed=24, paths=500, grid=g, m=1)
    runs = [(fs, [-0.5]), (fs, [0.0]), (fs, [-0.3])]
    out = []
    for w in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results, extras = run_multi(runs, noise, workers=w,
                                        trackers=(IntegratedG(1), JacSupNorm(1),
                                                  JacSupNorm(2), _PairSup(0, 1, True)))
        out.append([a.tobytes() for res in results for a in (res.state_T, res.jac_T, res.flag)]
                   + [extras[key].tobytes() for key in sorted(extras)])
    assert 0 < results[0].n_flagged < noise.paths
    assert not np.isfinite(results[1].state_T).all()
    assert out[0] == out[1]


def test_trackers_writing_the_same_extra_are_refused(monkeypatch):
    # a tracker's keys follow from its run, so only two trackers of one kind
    # on one run share a key; the declared keys show that clash before any
    # noise is drawn, and the sups of runs 0 and 1 keep keys of their own
    fs = scalar_drift_field(lambda x: x * x, df=lambda x: 2.0 * x)
    g = TimeGrid(0.25, 10)
    noise = BrownianBatch(seed=25, paths=64, grid=g, m=1)
    runs = [(fs, [0.5]), (fs, [-0.5])]

    def no_noise(*args, **kwargs):
        raise AssertionError("a run drew noise for trackers it must reject")

    with monkeypatch.context() as patch:
        patch.setattr(BrownianBatch, "block_increments", no_noise)
        with pytest.raises(FieldError, match=r"JacSupNorm and JacSupNorm.*'sup_jac'"):
            run_multi(runs, noise, trackers=(JacSupNorm(0), JacSupNorm(0)))
    _, extras = run_multi(runs, noise, trackers=(JacSupNorm(0), JacSupNorm(1)))
    assert sorted(extras) == ["sup_jac", "sup_jac_1"]
    assert not np.array_equal(extras["sup_jac"], extras["sup_jac_1"])


def test_no_entry_takes_what_its_inputs_fix():
    # the noise fixes the grid, a direction's rate its width, and a
    # tracker's kind and run its keys
    import inspect

    for entry in (run_ensemble, run_multi, coupled_family, gradient_routes, divergence,
                  ibp_check):
        assert "grid" not in inspect.signature(entry).parameters, entry.__name__
    for tracker in (JacSupNorm, IntegratedG, PathRecorder, _PairSup, DivergenceWeight,
                    _DirectionRecorder):
        assert "name" not in inspect.signature(tracker).parameters, tracker.__name__
    assert [f.name for f in dataclasses.fields(CameronMartinPath)] == ["rate"]


def test_each_tracker_writes_the_extras_it_declares():
    # the clash check reads keys(), so they must be what finish() returns
    fs = builtin_field("ou", lam=1.0)
    g = TimeGrid(0.25, 10)
    noise = BrownianBatch(seed=26, paths=16, grid=g, m=1)
    h = CameronMartinPath.constant([1.0])
    for tracker in (JacSupNorm(), IntegratedG(), PathRecorder(), PathRecorder(with_jac=False),
                    _PairSup(0, 1, True), _PairSup(0, 1, False),
                    DivergenceWeight(h), _DirectionRecorder(h)):
        _, extras = run_multi([(fs, [0.0]), (fs, [1.0])], noise, trackers=(tracker,))
        assert tuple(extras) == tracker.keys(), type(tracker).__name__


def _fails_above(fs, level, message):
    """fs whose drift raises a FieldError at any state above level, naming
    the batch's first such state: a pure field, whose error depends on the
    rows it is given and on nothing else."""

    def A(l, x):
        above = x[:, 0] > level
        if l == 0 and above.any():
            raise FieldError(f"{message} at x = {float(x[above][0, 0])!r}")
        return fs.A(l, x)

    return dataclasses.replace(fs, A=A)


@pytest.mark.parametrize("failing", [(1,), (1, 2)])
def test_a_worker_threads_error_is_the_one_worker_error_and_leaves_no_thread(failing):
    # every run starts at 0 on one block of 200 paths, and the failing runs'
    # drift is undefined above 0.5.  Row 193, in the last row slice at 2 and
    # at 3 workers, crosses first, at step 4; the first slice's rows cross at
    # step 5.  One worker raises the first failing run's error at row 193's
    # state, and so does every worker count, with threads switching at the
    # default interval and every microsecond
    ou = builtin_field("ou", lam=1.0)
    g = TimeGrid(0.1, 10)
    noise = BrownianBatch(seed=25, paths=200, grid=g, m=1)
    res = run_ensemble(ou, [0.0], noise, trackers=(PathRecorder(with_jac=False),))
    states = res.extras["paths_states"][:, :g.steps, 0]
    above = states > 0.5
    crossed = np.where(above.any(axis=1), above.argmax(axis=1), g.steps)
    assert crossed.min() == 4 and np.argmax(crossed == 4) == 193
    assert crossed[:100].min() == crossed[:67].min() == 5
    message = f"^run {failing[0]} failed at x = {re.escape(repr(float(states[193, 4])))}$"
    runs = [(_fails_above(ou, 0.5, f"run {r} failed") if r in failing else ou, [0.0])
            for r in range(3)]
    before = threading.active_count()
    interval = sys.getswitchinterval()
    try:
        for switch in (interval, 1e-6):
            sys.setswitchinterval(switch)
            for w in (1, 2, 3):
                with pytest.raises(FieldError, match=message):
                    run_multi(runs, noise, workers=w)
                assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


def test_a_one_block_run_is_cut_into_contiguous_row_slices(monkeypatch):
    # the drift records the rows each call gets and the thread it runs on;
    # after step 0 every row's state is distinct, so a call's rows can be
    # found among the rows the one-worker run steps at each step
    calls = []

    def A(l, x):
        if l == 0:
            calls.append((threading.get_ident(), x.copy()))
        return ou.A(l, x)

    ou = builtin_field("ou", lam=1.0)
    fs = dataclasses.replace(ou, A=A)
    g = TimeGrid(0.1, 4)

    def stepped(paths, w):
        calls.clear()
        run_ensemble(fs, [0.3], BrownianBatch(seed=27, paths=paths, grid=g, m=1), workers=w)
        return list(calls)

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("one worker made a thread pool")

    with monkeypatch.context() as patch:
        patch.setattr(flow, "ThreadPoolExecutor", NoPool)
        for paths in (2, 300):
            assert {t for t, _ in stepped(paths, 1)} == {threading.get_ident()}
    for paths, w in ((300, 2), (300, 3), (300, 5), (2, 5)):
        whole = [x for _, x in stepped(paths, 1)]
        cuts = min(w, paths)
        sliced = stepped(paths, w)
        assert len(sliced) == g.steps * cuts
        assert sum(len(x) for _, x in sliced) == g.steps * paths
        for k in range(1, g.steps):
            found = sorted((lo, lo + len(x)) for _, x in sliced for lo in range(paths)
                           if np.array_equal(whole[k][lo:lo + len(x)], x))
            assert len(found) == cuts
            assert [lo for lo, _ in found] == [0] + [hi for _, hi in found[:-1]]
            assert found[-1][1] == paths


def test_row_slices_agree_with_one_worker_under_frequent_thread_switches():
    # more workers than cores step slices of one block through the same
    # mollified levels, whose quadrature stacks live in per-thread
    # workspaces; a buffer shared by two threads would show as a moved byte
    fs = builtin_field("log_example", beta=1.0)
    g = TimeGrid(0.25, 5)
    noise = BrownianBatch(seed=28, paths=4000, grid=g, m=1)
    out = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for w in (1, 8):
            fam = coupled_family(fs, [0.2, 0.1], [0.1], noise, workers=w)
            out.append([a.tobytes() for res in fam.levels.values() for a in (res.state_T, res.jac_T)]
                       + [a.tobytes() for a in fam.pair_jac_sup.values()])
    finally:
        sys.setswitchinterval(interval)
    assert out[0] == out[1]


# ---------------------------------------------------------------------------
# spatial derivative check


def test_spatial_check_bm_is_exact():
    g = TimeGrid(0.5, 50)
    noise = BrownianBatch(seed=16, paths=128, grid=g, m=1)
    fd, _, gap = spatial_derivative_check(builtin_field("bm", n=1), [0.0], [1.0], 1e-3,
                                          noise)
    assert gap < 1e-12
    assert fd[0] == pytest.approx(1.0, abs=1e-10)


def test_spatial_check_ou_small_gap():
    g = TimeGrid(1.0, 1000)
    noise = BrownianBatch(seed=17, paths=512, grid=g, m=1)
    _, vt, gap = spatial_derivative_check(builtin_field("ou", lam=1.0), [1.0], [1.0],
                                          1e-3, noise)
    assert gap <= 1e-2
    assert vt[0] == pytest.approx(math.exp(-1.0), abs=2e-3)


def test_spatial_check_log_example_trend():
    log = builtin_field("log_example", beta=1.0)
    gaps = []
    for steps, h in ((25, 4e-2), (50, 2e-2), (100, 1e-2)):
        g = TimeGrid(0.1, steps)
        noise = BrownianBatch(seed=18, paths=1024, grid=g, m=1)
        gaps.append(spatial_derivative_check(log, [0.0], [1.0], h, noise)[2])
    assert gaps[0] > gaps[2]


class _CoefficientRecorder(Tracker):
    """Each listed run's A(1) and DA(1) at every step, one row per path."""

    reads_jac = True

    def __init__(self, runs):
        self.recorded = runs

    @property
    def runs(self):
        return self.recorded

    def keys(self):
        return tuple(f"{name}_{r}" for r in self.runs for name in ("A", "DA"))

    def start(self, B):
        self.seen = []

    def step(self, k, xis, Vs, dWk, dt, coefs):
        if coefs is not None:
            self.seen.append([(coefs[r][0][1].copy(), coefs[r][1][1].copy())
                              for r in self.runs])

    def finish(self):
        return {f"{name}_{r}": np.stack([seen[i][j] for seen in self.seen], axis=1)
                for i, r in enumerate(self.runs) for j, name in enumerate(("A", "DA"))}


def test_lockstep_runs_do_not_alias_field_workspaces():
    # a lockstep run holds run 0's coefficients while run 1 is evaluated, and
    # the mollified field evaluates the same raw log_example on its node
    # stack; were any returned array a workspace view, run 0's would change
    raw = builtin_field("log_example", beta=1.0)
    runs = [(raw, [0.05]), (mollify_field(raw, 0.1), [0.05])]
    g = TimeGrid(0.1, 12)
    noise = BrownianBatch(seed=23, paths=300, grid=g, m=1)
    together, extras = run_multi(runs, noise, trackers=[_CoefficientRecorder((0, 1))])
    for r, run in enumerate(runs):
        alone = run_ensemble(*run, noise, trackers=[_CoefficientRecorder((0,))])
        assert together[r].state_T.tobytes() == alone.state_T.tobytes()
        assert together[r].jac_T.tobytes() == alone.jac_T.tobytes()
        for name in ("A", "DA"):
            assert extras[f"{name}_{r}"].tobytes() == alone.extras[f"{name}_0"].tobytes()
