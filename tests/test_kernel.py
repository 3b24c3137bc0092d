import math
import tracemalloc

import numpy as np
import pytest

from sdem.fields import FieldError, builtin_field
from sdem.flow import BrownianBatch, TimeGrid, run_ensemble
from sdem.kernel import (_C1_GRID, _CHUNK, _EXP_FLOOR, _SE_MARGIN, _TILE, DensityQuery,
                         density_estimate, density_floor, gaussian_bound,
                         kernel_bound_fit, silverman_bandwidth)
from sdem.mollify import mollify_field

from conftest import density_estimate_oracle


def _bm_endpoints(paths, t=1.0, seed=21):
    grid = TimeGrid(t, 16)
    noise = BrownianBatch(seed=seed, paths=paths, grid=grid, m=1)
    res = run_ensemble(builtin_field("bm", n=1), [0.0], noise, with_jac=False)
    return res.state_T


def test_bm_density_matches_gaussian():
    samples = _bm_endpoints(200_000)
    query = DensityQuery(1.0, [0.0], np.array([[0.0], [2.0]]), bandwidth=0.05)
    dens, se = density_estimate(samples, query)
    targets = [1.0 / math.sqrt(2 * math.pi), math.exp(-2.0) / math.sqrt(2 * math.pi)]
    for d, s, tgt in zip(dens, se, targets):
        # 3 SE plus a small allowance for the O(h^2) smoothing bias
        assert abs(d - tgt) <= 3.0 * s + 1e-3


def test_kde_integrates_to_one():
    samples = _bm_endpoints(100_000)
    grid = np.linspace(-5, 5, 201)
    query = DensityQuery(1.0, [0.0], grid[:, None],
                         bandwidth=silverman_bandwidth(samples))
    dens, _ = density_estimate(samples, query)
    mass = np.trapezoid(dens, grid)
    assert 0.97 <= mass <= 1.03


def test_degenerate_samples():
    clumped = np.zeros((20_000, 1))
    with pytest.raises(FieldError):
        silverman_bandwidth(clumped)
    query = DensityQuery(1.0, [0.0], np.array([[0.0]]), bandwidth=0.1)
    dens, se = density_estimate(clumped, query)
    # every kernel sits at its peak; se collapses to rounding noise
    assert dens[0] == pytest.approx(1.0 / (math.sqrt(2 * math.pi) * 0.1))
    assert se[0] < 1e-8


def test_density_estimate_preconditions():
    query = DensityQuery(1.0, [0.0], np.array([[0.0]]), bandwidth=0.1)
    with pytest.raises(FieldError):
        density_estimate(np.zeros((100, 1)), query)
    with pytest.raises(FieldError):
        DensityQuery(1.0, [0.0], np.array([[0.0]]), bandwidth=0.0)
    with pytest.raises(FieldError):
        DensityQuery(-1.0, [0.0], np.array([[0.0]]), bandwidth=0.1)
    # a value that is not finite is named before any kernel is evaluated
    for bad in (math.nan, math.inf):
        with pytest.raises(FieldError, match=f"bandwidth .* got {bad}"):
            DensityQuery(1.0, [0.0], np.array([[0.0]]), bandwidth=bad)
    with pytest.raises(FieldError, match="time .* got nan"):
        DensityQuery(math.nan, [0.0], np.array([[0.0]]), bandwidth=0.1)
    samples = np.zeros((20_000, 1))
    for bad in (math.nan, -math.inf):
        samples[12_345, 0] = bad
        with pytest.raises(FieldError, match=f"sample 12345 is not finite: \\[{bad}\\]"):
            density_estimate(samples, query)


def test_samples_and_query_points_are_n_column_batches():
    # a 1-d array is not a batch of 1-d samples: it is refused, naming the
    # shape, rather than read as one sample of 20,000 entries
    samples = np.random.default_rng(5).standard_normal(20_000)
    with pytest.raises(FieldError, match=r"silverman_bandwidth: .*\(N, n\).*\(20000,\)"):
        silverman_bandwidth(samples)
    assert silverman_bandwidth(samples[:, None]) > 0.0
    query = DensityQuery(1.0, [0.0], [[0.0]], 0.1)
    for bad in (samples, np.zeros((20_000, 2))):
        with pytest.raises(FieldError, match=r"density_estimate: .*\(N, 1\)"):
            density_estimate(bad, query)
    with pytest.raises(FieldError, match=r"query points: .*\(N, n\).*\(2,\)"):
        DensityQuery(1.0, [0.0], [0.0, 1.0], 0.1)


def test_density_query_point_x_has_n_finite_entries():
    # x is the centre of every bound; n is the query points' dimension
    q = [[0.0], [1.0]]
    with pytest.raises(FieldError, match="x has dimension 2, expected n=1"):
        DensityQuery(1.0, [0.0, 5.0], q, 0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(FieldError, match="x = .* is not finite"):
            DensityQuery(1.0, [bad], q, 0.1)
    assert DensityQuery(1.0, 0.5, q, 0.1).x.tolist() == [0.5]


@pytest.mark.parametrize("n", [1, 2])
def test_tiled_kde_is_bytewise_the_chunked_one(n):
    # two full chunks and a ragged tail, so the sums cross chunk and tile
    # boundaries; at this bandwidth over 30% of the kernels underflow to +0
    # and some are subnormal, the values the masked exp must reproduce.  The
    # last query point lies 1.9 beyond the outermost sample, where every
    # kernel is subnormal or zero and so is the density
    N, h = 2 * _CHUNK + 4321, 0.05
    pts = np.random.default_rng(20261019 + n).standard_normal((N, n))
    far = pts[np.argmax(pts[:, 0])] + 1.9 * np.eye(n)[0]
    q = np.vstack([np.linspace(-4.0, 4.0, 21)[:, None] + np.linspace(0.0, 0.3, n), far])
    query = DensityQuery(1.0, np.zeros(n), q, bandwidth=h)
    assert _CHUNK % (_TILE // len(q)) != 0      # each chunk ends in a short tile
    underflow = subnormal = 0
    for y in q:
        arg = -np.sum((pts - y) ** 2, axis=1) / (2.0 * h * h)
        kern = np.exp(arg)
        underflow += np.count_nonzero(arg < _EXP_FLOOR)
        subnormal += np.count_nonzero((kern > 0.0) & (kern < np.finfo(float).tiny))
    assert underflow > 0.3 * N * len(q) and subnormal > 0
    ref_dens, ref_se = density_estimate_oracle(pts, query)
    assert 0.0 < ref_dens[-1] < np.finfo(float).tiny
    # the three chunks go over the workers and are joined in chunk order
    for workers in (1, 2, 3):
        dens, se = density_estimate(pts, query, workers=workers)
        assert dens.tobytes() == ref_dens.tobytes()
        assert se.tobytes() == ref_se.tobytes()


def test_one_chunk_density_estimate_makes_no_thread(monkeypatch):
    from sdem import kernel

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk density estimate made a thread pool")

    monkeypatch.setattr(kernel.futures, "ThreadPoolExecutor", no_pool)
    pts = np.random.default_rng(7).standard_normal((_CHUNK, 1))
    query = DensityQuery(1.0, [0.0], np.linspace(-4.0, 4.0, 21)[:, None], bandwidth=0.05)
    alone = density_estimate(pts, query)
    for workers in (2, 5):
        dens, se = density_estimate(pts, query, workers=workers)
        assert dens.tobytes() == alone[0].tobytes() and se.tobytes() == alone[1].tobytes()
    # one worker maps several chunks on the calling thread
    density_estimate(np.vstack([pts, pts]), query, workers=1)


def test_exp_is_exactly_zero_from_the_floor_down():
    below = np.concatenate([[_EXP_FLOOR, -np.inf],
                            _EXP_FLOOR - np.geomspace(1e-12, 1e300, 4001),
                            np.random.default_rng(5).uniform(-2000.0, _EXP_FLOOR, 4000)])
    out = np.exp(below)
    assert np.all(out == 0.0) and not np.any(np.signbit(out))
    assert math.exp(_EXP_FLOOR) == 0.0


def test_density_estimate_works_in_a_small_workspace():
    pts = np.random.default_rng(6).standard_normal((300_000, 1))
    query = DensityQuery(1.0, [0.0], np.linspace(-4.0, 4.0, 21)[:, None], bandwidth=0.05)
    tracemalloc.start()
    try:
        # two chunks on two workers: one tile workspace each
        density_estimate(pts, query, workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (rows, Q) matrix per 262,144-row chunk would peak near 126 MB
    assert peak <= 16 * 2 ** 20


def test_bound_fit_bm_sits_at_grid_floor():
    q = np.linspace(-4, 4, 21)[:, None]
    query = DensityQuery(1.0, [0.0], q, bandwidth=0.1)
    dens = np.exp(-q[:, 0] ** 2 / 2.0) / math.sqrt(2 * math.pi)
    fit = kernel_bound_fit(dens, query)
    assert fit.satisfied and fit.c1_min == 1.0


def test_bound_fit_ou_analytic_density():
    # stationary-scale Gaussian at t=1: variance (1 - e^-2)/2 < 1
    var = (1.0 - math.exp(-2.0)) / 2.0
    q = np.linspace(-3, 3, 31)[:, None]
    query = DensityQuery(1.0, [0.0], q, bandwidth=0.1)
    dens = np.exp(-q[:, 0] ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)
    fit = kernel_bound_fit(dens, query)
    assert fit.satisfied and fit.c1_min <= 1.3


def test_bound_fit_monotone_and_strict_increase():
    q = np.linspace(-2, 2, 11)[:, None]
    query = DensityQuery(0.5, [0.0], q, bandwidth=0.1)
    # synthetic density whose fit lands inside the grid
    dens = 3.0 * np.exp(-q[:, 0] ** 2)
    fit = kernel_bound_fit(dens, query)
    assert fit.satisfied and fit.c1_min > 1.0
    doubled = kernel_bound_fit(2.0 * dens, query)
    assert doubled.c1_min > fit.c1_min
    rng = np.random.default_rng(4)
    for _ in range(10):
        bumped = dens * rng.uniform(1.0, 1.5, size=dens.shape)
        assert kernel_bound_fit(bumped, query).c1_min >= fit.c1_min


def test_bound_fit_unsatisfied_reports_violation():
    q = np.array([[0.0]])
    query = DensityQuery(1.0, [0.0], q, bandwidth=0.1)
    fit = kernel_bound_fit(np.array([1e6]), query)
    assert not fit.satisfied and fit.max_violation > 0


def test_se_margin_enters_the_fit():
    # the fit and the study's check at a given C1 use one bound and one floor
    q = np.linspace(-2, 2, 11)[:, None]
    query = DensityQuery(0.5, [0.0], q, bandwidth=0.1)
    dens = 3.0 * np.exp(-q[:, 0] ** 2)
    tight = kernel_bound_fit(dens, query)
    se = np.full(11, 0.3)
    slack = kernel_bound_fit(dens, query, se=se)
    assert slack.c1_min <= tight.c1_min
    floor = density_floor(dens, se)
    assert np.array_equal(floor, np.maximum(dens - _SE_MARGIN * se, 0.0))
    # the fit is the least grid constant whose bound holds
    k = int(np.searchsorted(_C1_GRID, slack.c1_min))
    assert np.all(floor <= gaussian_bound(slack.c1_min, query))
    assert 0 < k and not np.all(floor <= gaussian_bound(_C1_GRID[k - 1], query))
    assert np.array_equal(gaussian_bound(2.0, query),
                          2.0 * 0.5 ** -0.5 * np.exp(-q[:, 0] ** 2 / (2.0 * 2.0 * 0.5)))


def test_bound_constant_stable_across_smoothing_levels():
    # the fitted constant reflects kernel bounds that hold uniformly in eps
    log = builtin_field("log_example", beta=1.0)
    fits = {}
    for t in (0.25, 0.5):
        for eps in (0.1, 0.05):
            grid = TimeGrid(t, max(1, round(t / 1e-3)))
            noise = BrownianBatch(seed=31, paths=20_000, grid=grid, m=1)
            res = run_ensemble(mollify_field(log, eps), [0.0], noise,
                               with_jac=False, workers=2)
            samples = res.state_T[res.ok]
            q = np.linspace(-3, 3, 21)[:, None]
            query = DensityQuery(t, [0.0], q, bandwidth=silverman_bandwidth(samples))
            dens, se = density_estimate(samples, query)
            fit = kernel_bound_fit(dens, query, se=se)
            assert fit.satisfied
            fits[(t, eps)] = fit.c1_min
    for t in (0.25, 0.5):
        a, b = fits[(t, 0.1)], fits[(t, 0.05)]
        assert abs(a - b) <= 0.2 * max(a, b)
