import math

import numpy as np
import pytest

from sdem.fields import FieldError, builtin_field
from sdem.flow import BrownianBatch, TimeGrid, run_ensemble, unflagged
from sdem.kernel import (_C1_GRID, _CHUNK, _EXP_FLOOR, _NOOP, _NOOP_ROOT,
                         _SE_MARGIN, _TILE, DensityQuery, _exp_floor, density_estimate,
                         density_floor, gaussian_bound, kernel_bound_fit,
                         silverman_bandwidth)
from sdem.mollify import mollify_field

from conftest import density_estimate_oracle, traced_peak


def _bm_endpoints(paths, t=1.0, seed=21):
    grid = TimeGrid(t, 16)
    noise = BrownianBatch(seed=seed, paths=paths, grid=grid, m=1)
    res = run_ensemble(builtin_field("bm", n=1), [0.0], noise)
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


def _far_and_grid(pts, h, count=21):
    """Query points on a grid and, last, one 38 h beyond the outermost sample
    along axis 0: its kernels are exp(-722) * norm or less, subnormal or 0
    for the bandwidths below."""
    n = pts.shape[1]
    far = pts[np.argmax(pts[:, 0])] + 38.0 * h * np.eye(n)[0]
    return np.vstack([np.linspace(-4.0, 4.0, count)[:, None] + np.linspace(0.0, 0.3, n), far])


def _assert_bytewise_oracle(pts, query, workers=(1, 2, 3)):
    ref_dens, ref_se = density_estimate_oracle(pts, query)
    # the three chunks go over the workers and are joined in chunk order
    for w in workers:
        dens, se = density_estimate(pts, query, workers=w)
        assert dens.tobytes() == ref_dens.tobytes()
        assert se.tobytes() == ref_se.tobytes()
    return ref_dens


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_tiled_kde_is_bytewise_the_chunked_one(n):
    # two full chunks and a ragged tail, so the sums cross chunk and tile
    # boundaries; at this bandwidth over 30% of the kernels underflow to +0
    # and some are subnormal, the values the kept-only sums must reproduce.
    # numpy sums a row's n squared differences in turn below n = 8 and
    # pairwise from there on.  The last query point lies beyond the outermost
    # sample, where every kernel is subnormal or zero and so is the density
    N, h = 2 * _CHUNK + 4321, (0.09 if n == 8 else 0.05)
    pts = np.random.default_rng(20261019 + n).standard_normal((N, n))
    # the oracle holds (rows, Q, n) arrays: fewer points keep it small at n = 8
    q = _far_and_grid(pts, h, 21 if n < 8 else 5)
    query = DensityQuery(1.0, np.zeros(n), q, bandwidth=h)
    # a full chunk is whole tiles and the last chunk is one short tile;
    # test_density_estimate_works_in_a_small_workspace ends a chunk in a
    # short tile after a full one
    tail = N % _CHUNK
    assert _CHUNK % _TILE == 0 and 0 < tail < _TILE
    underflow = subnormal = 0
    for y in q:
        arg = -np.sum((pts - y) ** 2, axis=1) / (2.0 * h * h)
        kern = np.exp(arg)
        underflow += np.count_nonzero(arg < _EXP_FLOOR)
        subnormal += np.count_nonzero((kern > 0.0) & (kern < np.finfo(float).tiny))
    assert underflow > 0.3 * N * len(q) and subnormal > 0
    ref_dens = _assert_bytewise_oracle(pts, query)
    assert 0.0 < ref_dens[-1] < np.finfo(float).tiny


def test_tiled_kde_sums_subnormal_kernels_into_a_zero_partial():
    # at this bandwidth a column's sums stay 0 over long runs of rows, where
    # the floor stays at _EXP_FLOOR: the far point's one nonzero kernel is
    # subnormal and comes after zeros in its chunk, and the tails' first
    # kernels come more than a tile into their chunks
    N, h = 2 * _CHUNK + 4321, 0.002
    pts = np.random.default_rng(20261020).standard_normal((N, 1))
    q = _far_and_grid(pts, h)
    query = DensityQuery(1.0, [0.0], q, bandwidth=h)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * h)
    kern = norm * np.exp(-((pts - q[:, 0]) ** 2) / (2.0 * h * h))     # (N, Q)
    # the row of each column's first nonzero kernel in each chunk
    firsts = [int(np.argmax(c > 0.0)) for lo in range(0, N, _CHUNK)
              for c in kern[lo:lo + _CHUNK].T if np.any(c > 0.0)]
    assert sum(first >= _TILE for first in firsts) >= 2
    (i,) = np.flatnonzero(kern[:, -1])
    assert kern[i, -1] < np.finfo(float).tiny and i % _CHUNK > 0
    ref_dens = _assert_bytewise_oracle(pts, query, workers=(1, 2))
    assert 0.0 < ref_dens[-1]


def test_a_kernel_under_the_noop_bound_moves_no_sum():
    # at the edge of the bound: the largest float under p 2^-54 leaves p as
    # it is, as does the square of the largest under sqrt(s) 2^-27, while
    # four times either bound moves its sum.  Mantissas of every kind, odd
    # last bits included, and p and s down to the least the floor is raised for
    rng = np.random.default_rng(31)
    sums = np.concatenate([np.ldexp(rng.uniform(1.0, 2.0, 400), rng.integers(-940, 1000, 400)),
                           np.nextafter(np.ldexp(1.0, np.arange(-940, 1000, 37)), np.inf),
                           [1.0, 1.5, np.nextafter(2.0, 0.0)]])
    for p, s in zip(sums, rng.permutation(sums)):
        k = np.nextafter(p * _NOOP, 0.0)
        assert p + k == p and p + 4.0 * p * _NOOP > p
        k = np.nextafter(np.sqrt(s) * _NOOP_ROOT, 0.0)
        assert s + k * k == s and s + (4.0 * k) ** 2 > s
        # the largest argument the floor leaves out gives a kernel under both
        for norm in (1e-3, 1.0, 7.9, 1e12):
            k = np.exp(np.float64(_exp_floor(float(p), float(s), norm))) * norm
            assert (p + k).tobytes() == p.tobytes() and (s + k * k).tobytes() == s.tobytes()
    # sums too small for the bound keep the floor where every kernel is +0
    for p, s in ((0.0, 0.0), (1.0, 0.0), (5e-324, 1.0), (2.0 ** -947, 1.0)):
        assert _exp_floor(p, s, 1.0) == _EXP_FLOOR
    # and so do sums whose bound passes, under a peak so high that the
    # bound over it is below the least float
    assert _exp_floor(2.0 ** -530, 2.0 ** -1060, 2.0 ** 500) == _EXP_FLOOR


def test_a_bandwidth_the_kernel_cannot_represent_is_refused():
    # the peak 1/((2 pi)^{n/2} h^n) or 2h^2 underflows to 0, or the peak's
    # square overflows: each is refused, naming the bandwidth, before any sum
    for n, h in ((2, 1e-200), (2, 1e-170), (1, 1e-160), (1, 1e-300)):
        with pytest.raises(FieldError, match="bandwidth"):
            query = DensityQuery(1.0, np.zeros(n), np.zeros((1, n)), bandwidth=h)
            density_estimate(np.zeros((10_000, n)), query)
    # the smallest bandwidths that pass still estimate: every sample at the point
    query = DensityQuery(1.0, [0.0], [[0.0]], bandwidth=1e-150)
    dens, _ = density_estimate(np.zeros((10_000, 1)), query)
    assert dens[0] == pytest.approx(1.0 / (math.sqrt(2.0 * math.pi) * 1e-150), rel=1e-12)
    # a peak of 2^500 and, in the first tile, one kernel of about 2^-530 over
    # zeros: the next tile's no-op bound over the peak is below the least float
    h = 1.0 / (math.sqrt(2.0 * math.pi) * 2.0 ** 500)
    pts = np.ones((_TILE + 10_000, 1))
    pts[5, 0] = math.sqrt(2.0 * 1030.0 * math.log(2.0)) * h
    query = DensityQuery(1.0, [0.0], [[0.0], [1.0]], bandwidth=h)
    kern = density_estimate_oracle(pts, query)[0][0] * len(pts)
    assert 2.0 ** -531 < kern < 2.0 ** -529
    _assert_bytewise_oracle(pts, query, workers=(1,))


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
    # two chunks on two workers: one tile workspace each
    _, peak = traced_peak(density_estimate, pts, query, workers=2)
    # one (rows, Q) matrix per 262,144-row chunk would peak near 126 MB
    assert peak <= 16 * 2 ** 20
    # the second chunk is a full tile and a short one, and its floor rises
    # between them; the bytes are still the oracle's
    tail = len(pts) - _CHUNK
    assert _TILE < tail < 2 * _TILE
    _assert_bytewise_oracle(pts, query, workers=(2,))


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
            res = run_ensemble(mollify_field(log, eps), [0.0], noise, workers=2)
            samples = unflagged(res.state_T, res.flag)
            q = np.linspace(-3, 3, 21)[:, None]
            query = DensityQuery(t, [0.0], q, bandwidth=silverman_bandwidth(samples))
            dens, se = density_estimate(samples, query)
            fit = kernel_bound_fit(dens, query, se=se)
            assert fit.satisfied
            fits[(t, eps)] = fit.c1_min
    for t in (0.25, 0.5):
        a, b = fits[(t, 0.1)], fits[(t, 0.05)]
        assert abs(a - b) <= 0.2 * max(a, b)
