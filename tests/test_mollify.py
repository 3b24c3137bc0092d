import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from sdem.fields import FieldError, VectorFieldSet, builtin_field
from sdem.mollify import (MollifiedFieldSet, _eta, _grad_nodes, _kernel_nodes,
                          _mollifier_constant, _tensor_nodes, mollify_field, mollify_scalar)
from conftest import ellipticity_margin, hoelder_estimate, scalar_drift_field, sup_error


# frozen oracles, computed ahead of the build (the raw mass with 45-digit
# mpmath, the moment by adaptive quadrature):
#   int_{-1}^{1} exp(1/(x^2-1)) dx        = 0.44399381616807944
#   int eta(z) |z| dz (unit mass kernel)  = 0.334453997709974
RAW_MASS_1D = 0.44399381616807944
ABS_MOMENT_1D = 0.334453997709974
# the kernel's normalizing constant on R^n, n = 1 to 4, with 45-digit mpmath
MOLLIFIER_CONSTANT = {1: 2.252283621043581, 2: 2.1435657757922364,
                      3: 2.2671167396083263, 4: 2.611132508627123}


def test_eta_vanishes_outside_unit_ball(rng):
    pts = rng.uniform(1.0, 5.0, (200, 1)) * np.sign(rng.normal(size=(200, 1)))
    assert np.all(_eta(pts)[0] == 0.0)
    assert _eta(np.array([[1.0]]))[0][0] == 0.0


def test_eta_center_value_matches_quadrature_oracle():
    # C = 1 / 0.443994...; eta(0) = C / e
    val, _ = integrate.quad(lambda x: math.exp(1.0 / (x * x - 1.0)), -1, 1)
    assert val == pytest.approx(RAW_MASS_1D, abs=1e-12)
    assert _eta(np.array([[0.0]]))[0][0] == pytest.approx(math.exp(-1.0) / RAW_MASS_1D, rel=1e-10)


def test_eta_unit_mass_1d_and_2d():
    assert _mollifier_constant(1) == pytest.approx(1.0 / RAW_MASS_1D, rel=1e-9)
    val, _ = integrate.quad(lambda r: 2 * math.pi * r * math.exp(1.0 / (r * r - 1.0)), 0, 1)
    assert _mollifier_constant(2) == pytest.approx(1.0 / val, rel=1e-8)


@pytest.mark.parametrize("n", sorted(MOLLIFIER_CONSTANT))
def test_the_mollifier_constant_is_within_2_ulp_of_a_45_digit_reference(n):
    exact = MOLLIFIER_CONSTANT[n]
    assert abs(_mollifier_constant(n) - exact) <= 2 * math.ulp(exact)


def test_eta_is_even(rng):
    pts = rng.uniform(-1.2, 1.2, (1000, 2))
    assert np.allclose(_eta(pts)[0], _eta(-pts)[0], rtol=0, atol=0)


def test_eta_grad_matches_finite_differences(rng):
    pts = rng.uniform(-0.9, 0.9, (50, 2))
    h = 1e-6
    g = _eta(pts)[1]
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (_eta(pts + e)[0] - _eta(pts - e)[0]) / (2 * h)
        assert np.allclose(g[:, j], fd, atol=1e-5)


# ---------------------------------------------------------------------------
# mollified fields


def test_constant_field_is_fixed_point():
    # exact, not approximate: constants mollify to themselves bit for bit on
    # both derivative routes, whatever the batch size (1, 7 and 512 take
    # different BLAS kernel paths); a local generator leaves the shared
    # `rng` stream of the later tests as it was
    rng = np.random.default_rng(7)
    shift = builtin_field("const_shift", matrix=[[2.0]], shift=[0.7])
    ou = builtin_field("ou", lam=1.3)       # constant weak derivative -lam

    def const_A(l, x):
        # read-only views, which the quadrature must not write into
        return np.broadcast_to(2.0 if l == 0 else 1.0, x.shape)

    no_da = VectorFieldSet(1, 1, const_A, None, name="const")
    scalar = lambda p: np.full(p.shape[:-1], -2.5)
    for eps in (0.3, 0.2, 0.1, 0.05, 0.025):
        mf_shift, mf_ou, mf_no_da = (mollify_field(fs, eps) for fs in (shift, ou, no_da))
        fe = mollify_scalar(scalar, eps)
        assert mf_shift.A(0, np.array([[1.3]]))[0, 0] == 0.7
        assert mf_shift.A(1, np.array([[-2.0]]))[0, 0] == 2.0
        assert fe(np.array([[0.4]]))[0] == -2.5
        for size in (1, 7, 512):
            xs = rng.uniform(-3, 3, (size, 1))
            assert np.all(mf_shift.A(0, xs) == 0.7)
            assert np.all(mf_shift.A(1, xs) == 2.0)
            assert np.all(mf_shift.DA(0, xs) == 0.0)
            assert np.all(mf_ou.DA(0, xs) == -1.3)
            assert np.all(mf_no_da.A(0, xs) == 2.0)
            assert np.all(mf_no_da.DA(0, xs) == 0.0)
            assert np.all(mf_no_da.DA(1, xs) == 0.0)
            assert np.all(fe(xs) == -2.5)


def test_a_row_has_the_same_bytes_alone_and_in_any_batch():
    # the nodes are added in a fixed order, so a row's value depends on that
    # row alone, and the engine may cut a batch of paths anywhere
    fs = builtin_field("log_example", beta=1.0)
    weak, grad = mollify_field(fs, 0.1), mollify_field(dataclasses.replace(fs, DA=None), 0.1)
    scalar = mollify_scalar(lambda p: fs.A(1, p)[:, 0], 0.1)
    xs = np.random.default_rng(11).uniform(-1.5, 1.5, (5000, 1))
    for name, evaluate in (("A", weak.A), ("weak DA", weak.DA), ("kernel-gradient DA", grad.DA),
                           ("mollify_scalar", lambda l, x: scalar(x))):
        whole = evaluate(1, xs)
        for lo in range(0, len(xs), 7):
            lo = min(lo, len(xs) - 7)
            assert whole[lo:lo + 7].tobytes() == evaluate(1, xs[lo:lo + 7]).tobytes(), name
        for i in range(len(xs)):
            assert whole[i].tobytes() == evaluate(1, xs[i:i + 1]).tobytes(), (name, i)


@pytest.mark.parametrize("n, nodes, value, gradient",
                         [(1, 16, 14, 14), (1, 24, 22, 22), (2, 16, 136, 136), (2, 24, 280, 288)])
def test_a_node_is_kept_when_its_weight_can_reach_the_sum(n, nodes, value, gradient):
    # the grid's weights, final before any node is dropped: the kernel
    # weights normalized to unit mass, and a row of kernel-gradient weights
    # per node (its size is the row's norm)
    eps = 0.1
    offsets, kw, raw = _tensor_nodes(n, eps, nodes)
    gw = raw[:, None] * (_eta(offsets / eps)[1] / eps ** (n + 1))
    for (kept, weights, ref), full, size, count in (
            (_kernel_nodes(n, eps, nodes), kw, kw, value),
            (_grad_nodes(n, eps, nodes), gw, np.linalg.norm(gw, axis=1), gradient)):
        assert len(kept) == len(weights) == count
        index = np.array([np.flatnonzero(np.all(offsets == o, axis=1))[0] for o in kept])
        assert np.all(np.diff(index) > 0)
        # each kept weight has the bytes it had before the drop
        assert weights.tobytes() == full[index].tobytes()
        dropped = np.ones(len(full), bool)
        dropped[index] = False
        assert np.all(size[index] > 2.0 ** -53 * size.max())
        assert np.all(size[dropped] <= 2.0 ** -53 * size.max())
        assert np.sum(size[dropped]) <= len(full) * 2.0 ** -53 * size.max()
    # the value route's reference carries the largest weight, the gradient
    # route's is the kept node nearest the centre
    _, kw_kept, r = _kernel_nodes(n, eps, nodes)
    assert kw_kept[r] == kw.max()
    kept, _, r = _grad_nodes(n, eps, nodes)
    assert np.sum(kept[r] ** 2) == np.min(np.sum(offsets ** 2, axis=1))


def test_linear_field_is_fixed_point():
    # eta is even, so first moments vanish node-by-node
    fs = builtin_field("ou", lam=1.0)
    mf = mollify_field(fs, 0.2)
    xs = np.linspace(-2, 2, 41).reshape(-1, 1)
    assert np.allclose(mf.A(0, xs), fs.A(0, xs), atol=1e-14)


def _affine(mat, shift):
    # drift x -> mat x + shift, unit noise columns
    mat, shift = np.asarray(mat, dtype=float), np.asarray(shift, dtype=float)
    n = len(shift)

    def A(l, x):
        return x @ mat.T + shift if l == 0 else np.ones_like(x) * np.eye(n)[l - 1]

    return VectorFieldSet(n, n, A, None, name="affine")


@settings(max_examples=30, deadline=None)
@given(eps=st.floats(0.005, 0.5), n=st.sampled_from([1, 2]))
def test_unit_mass_and_fixed_points_at_any_eps(eps, n):
    _, kw, _ = _kernel_nodes(n, eps, 16)
    assert abs(math.fsum(kw) - 1.0) <= 4 * 2.0 ** -52
    mat = [[2.0, 0.5], [-0.3, 1.5]] if n == 2 else [[2.0]]
    shift = [0.7, -0.4][:n]
    xs = np.random.default_rng(7).uniform(-2, 2, (16, n))
    const = builtin_field("const_shift", matrix=mat, shift=shift)
    mf = mollify_field(const, eps)
    for l in range(n + 1):
        assert np.array_equal(mf.A(l, xs), const.A(l, xs))
        assert np.all(mf.DA(l, xs) == 0.0)
    affine = _affine(mat, shift)
    assert np.allclose(mollify_field(affine, eps).A(0, xs), affine.A(0, xs), atol=1e-14)


def test_abs_value_at_origin_scales_like_eps():
    f = lambda p: np.abs(p[..., 0])
    for eps in (0.2, 0.05):
        # default GL-16 carries ~0.8% relative error across the kink
        fe = mollify_scalar(f, eps)
        assert fe(np.array([[0.0]]))[0] == pytest.approx(ABS_MOMENT_1D * eps, rel=1e-2)
    # the finer rule should approach the oracle
    fe = mollify_scalar(f, 0.1, nodes=96)
    assert fe(np.array([[0.0]]))[0] == pytest.approx(ABS_MOMENT_1D * 0.1, rel=5e-4)


def test_sup_error_cases():
    grid = np.linspace(-1, 1, 501).reshape(-1, 1)
    const = lambda p: np.full(p.shape[:-1], 2.5)
    assert sup_error(const, mollify_scalar(const, 0.1), grid) < 1e-15
    ident = lambda p: p[..., 0]
    assert sup_error(ident, mollify_scalar(ident, 0.1), grid) < 1e-13
    sq = lambda p: np.sqrt(np.abs(p[..., 0]))
    assert sup_error(sq, mollify_scalar(sq, 0.01), grid) <= 0.1 + 1e-6


def test_sup_error_empty_grid():
    with pytest.raises(FieldError):
        sup_error(lambda p: p[..., 0], lambda p: p[..., 0], np.zeros((0, 1)))


def test_hoelder_constant_never_increases():
    fs = builtin_field("log_example", beta=1.0)
    pts = np.linspace(-1.5, 1.5, 25)
    i, j = np.array([(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts), 5)]).T
    x, y = pts[i, None], pts[j, None]
    base_k = hoelder_estimate(fs, 0.5, x, y)
    for eps in (0.1, 0.05):
        mf = mollify_field(fs, eps)
        assert hoelder_estimate(mf, 0.5, x, y) <= base_k + 1e-6


def test_local_sup_bound():
    # |f_eps(x)| <= sup_{|y-x|<=eps} |f(y)| at sampled points
    fs = builtin_field("log_example", beta=1.0)
    mf = mollify_field(fs, 0.1)
    for x in np.linspace(-1.5, 1.5, 31):
        near = np.linspace(x - 0.1, x + 0.1, 201).reshape(-1, 1)
        local_sup = np.max(np.abs(fs.A(1, near)))
        assert abs(mf.A(1, np.array([[x]]))[0, 0]) <= local_sup + 1e-12


def test_ellipticity_survives_mollification():
    # each floor from its formula: 1 for ou, (1 - sqrt(beta pi)/2)^2 for
    # log_example at beta = 1
    grid1 = np.linspace(-3, 3, 301).reshape(-1, 1)
    for name, params, floor in (("ou", {"lam": 1.0}, 1.0),
                                ("log_example", {"beta": 1.0},
                                 (1.0 - math.sqrt(math.pi) / 2.0) ** 2)):
        fs = builtin_field(name, **params)
        for eps in (0.1, 0.05, 0.01):
            mf = mollify_field(fs, eps)
            assert ellipticity_margin(mf, grid1) >= floor / 2.0
    fs2 = builtin_field("bm", n=2)
    grid2 = np.stack(np.meshgrid(np.linspace(-3, 3, 11), np.linspace(-3, 3, 11)),
                     axis=-1).reshape(-1, 2)
    for eps in (0.1, 0.05, 0.01):
        assert ellipticity_margin(mollify_field(fs2, eps), grid2) >= 0.5


def test_derivative_routes_agree_for_smooth_fields(rng):
    # route 1 smooths the supplied derivative, route 2 differentiates the
    # kernel; GL-64 resolves the kernel gradient to below the 1e-6 contract
    f = lambda x: np.sin(3.0 * x)
    df = lambda x: 3.0 * np.cos(3.0 * x)
    with_da = scalar_drift_field(f, df)
    without = scalar_drift_field(f)
    pts = rng.uniform(-2, 2, (100, 1))
    d1 = mollify_field(with_da, 0.1, nodes=64).DA(0, pts)
    d2 = mollify_field(without, 0.1, nodes=64).DA(0, pts)
    assert np.max(np.abs(d1 - d2)) < 1e-6


def test_gradient_route_matches_fd_of_smoothed_field(rng):
    fs = scalar_drift_field(lambda x: np.abs(x))     # no derivative supplied
    mf = mollify_field(fs, 0.2, nodes=48)
    for x in (-0.15, 0.0, 0.3):
        h = 1e-6
        fd = (mf.A(0, np.array([[x + h]]))[0, 0] - mf.A(0, np.array([[x - h]]))[0, 0]) / (2 * h)
        # the kink keeps GL-48 at ~1e-3 here; exactness for smooth fields is
        # covered by the route-agreement test above
        assert mf.DA(0, np.array([[x]]))[0, 0, 0] == pytest.approx(fd, abs=5e-3)


def test_local_l2_convergence_for_sqrt():
    f = lambda p: np.sqrt(np.abs(p[..., 0]))
    grid = np.linspace(-1, 1, 2001)
    pts = grid.reshape(-1, 1)
    errs = []
    for eps in (0.2, 0.1, 0.05):
        fe = mollify_scalar(f, eps)
        diff = (fe(pts) - f(pts)) ** 2
        errs.append(np.trapezoid(diff, grid))
    assert errs[0] > errs[1] > errs[2]


def test_default_rule_agrees_with_doubled_nodes():
    # the default 16 nodes per axis resolve log_example's diffusion to 1e-3
    fs = builtin_field("log_example", beta=1.0)
    g16 = mollify_field(fs, 0.1)
    g32 = mollify_field(fs, 0.1, nodes=32)
    xs = np.linspace(-1.5, 1.5, 61).reshape(-1, 1)
    assert np.max(np.abs(g16.A(1, xs) - g32.A(1, xs))) < 1e-3


def test_quadspec_preconditions():
    fs = builtin_field("bm", n=1)
    ident = lambda p: p[..., 0]
    for call, name in ((lambda: mollify_field(fs, -0.1), "eps"),
                       (lambda: mollify_scalar(ident, -0.1), "eps"),
                       (lambda: mollify_field(fs, math.nan), "eps"),
                       (lambda: mollify_field(fs, math.inf), "eps"),
                       (lambda: mollify_scalar(ident, math.nan), "eps"),
                       (lambda: mollify_scalar(ident, math.inf), "eps"),
                       (lambda: mollify_field(fs, 0.1, nodes=4), "nodes"),
                       (lambda: mollify_scalar(ident, 0.1, nodes=7), "nodes")):
        with pytest.raises(FieldError, match=name):
            call()


def test_mollified_set_delegates_metadata():
    fs = builtin_field("log_example", beta=1.0)
    mf = mollify_field(fs, 0.1)
    assert (mf.n, mf.m) == (1, 1)
    assert isinstance(mf, MollifiedFieldSet)
    assert mf.diffusion_matrix(np.array([[0.2]])).shape == (1, 1, 1)


# one example of every built-in; a new built-in must join this list
BUILTIN_EXAMPLES = [("bm", {"n": 1}), ("bm", {"n": 2}), ("ou", {"lam": 1.0}),
                    ("const_shift", {"matrix": [[1.0, 0.5], [0.0, 2.0]], "shift": [0.1, 0.0]}),
                    ("log_example", {"beta": 1.0})]


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
       eps=st.floats(0.005, 0.5))
def test_declared_zero_drift_is_exactly_zero(xs, eps):
    # the engine skips A(0) and DA(0) of a field that declares a zero drift,
    # so a wrong declaration must fail here: raw and mollified
    from sdem import fields as fields_mod

    assert {name for name, _ in BUILTIN_EXAMPLES} == set(fields_mod._BUILTINS)
    fixed = [0.0, -0.0, 5e-324, 0.5, -1.0, 1.0, 1.5, -3.0, 1e6, -1e300, 1e300]
    declared = set()
    for name, params in BUILTIN_EXAMPLES:
        fs = builtin_field(name, **params)
        if not fs.zero_drift:
            continue
        declared.add(name)
        vals = np.array(fixed + xs)
        pts = np.resize(vals, (len(vals), fs.n))
        for view in (fs, mollify_field(fs, eps)):
            assert view.zero_drift
            assert np.all(view.A(0, pts) == 0.0), view.name
            assert np.all(view.DA(0, pts) == 0.0), view.name
    assert declared == {"bm", "log_example"}


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
       eps=st.floats(0.005, 0.5))
def test_declared_affine_drift_is_exact(xs, eps):
    # the engine evaluates DA(0) of a declared affine drift at the origin
    # alone, so a wrong declaration must fail here: raw and mollified
    from dataclasses import replace

    fixed = [0.0, -0.0, 5e-324, 0.5, -1.0, 1.0, 1.5, -3.0, 1e6, -1e300, 1e300]
    vals = np.array(fixed + xs)
    declared = set()
    for name, params in BUILTIN_EXAMPLES:
        fs = builtin_field(name, **params)
        if not fs.affine_drift:
            continue
        declared.add(name)
        pts = np.resize(vals, (len(vals), fs.n))
        origin = np.zeros((1, fs.n))
        for view in (fs, mollify_field(fs, eps)):
            assert view.affine_drift
            assert np.all(view.DA(0, pts) == view.DA(0, origin)), view.name
    assert declared == {"ou", "const_shift"}
    # the kernel-gradient route, taken when the base has no DA, is not exact
    # on an affine drift, so the mollified view declares nothing
    assert not mollify_field(replace(builtin_field("ou", lam=1.0), DA=None), eps).affine_drift


def _assert_constant_diffusion(view, pts):
    """A(l >= 1) equals its value at the origin and DA(l >= 1) is exactly 0."""
    origin = np.zeros((1, view.n))
    for l in range(1, view.m + 1):
        assert np.all(view.A(l, pts) == view.A(l, origin)), (view.name, l)
        assert np.all(view.DA(l, pts) == 0.0), (view.name, l)


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12),
       eps=st.floats(0.005, 0.5))
def test_declared_constant_diffusion_is_exact(xs, eps):
    # the engine evaluates each A(l >= 1) of a declared constant diffusion at
    # the origin alone and never its DA(l >= 1), so a wrong declaration must
    # fail here: raw and mollified
    from dataclasses import replace

    from sdem import fields as fields_mod

    assert {name for name, _ in BUILTIN_EXAMPLES} == set(fields_mod._BUILTINS)
    fixed = [0.0, -0.0, 5e-324, 0.5, -1.0, 1.0, 1.5, -3.0, 1e6, -1e300, 1e300]
    vals = np.array(fixed + xs)
    declared = set()
    for name, params in BUILTIN_EXAMPLES:
        fs = builtin_field(name, **params)
        if not fs.constant_diffusion:
            continue
        declared.add(name)
        pts = np.resize(vals, (len(vals), fs.n))
        for view in (fs, mollify_field(fs, eps)):
            assert view.constant_diffusion
            _assert_constant_diffusion(view, pts)
    assert declared == {"bm", "ou", "const_shift"}
    # a false declaration fails the check
    false = replace(builtin_field("log_example", beta=1.0), constant_diffusion=True)
    with pytest.raises(AssertionError):
        _assert_constant_diffusion(false, vals[:, None])


@pytest.mark.parametrize("which", ["A", "DA"])
def test_repeated_quadrature_reuses_its_workspaces(which):
    # the shifted node stack, the differences to the reference node and
    # log_example's temporaries live in per-thread workspaces, so a repeated
    # call allocates little beyond the one stack of values the base returns
    fs = mollify_field(builtin_field("log_example", beta=1.0), 0.1)
    x = np.linspace(-1.5, 1.5, 10_000)[:, None]
    stack = len(_kernel_nodes(1, 0.1, fs.nodes)[0]) * len(x) * 8
    evaluate = getattr(fs, which)
    first = evaluate(1, x)
    tracemalloc.start()
    try:
        again = evaluate(1, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * stack
    assert again.tobytes() == first.tobytes() and not np.shares_memory(again, first)


@pytest.mark.parametrize("which", ["A", "DA"])
def test_the_levels_of_a_ladder_share_their_workspaces(which):
    # every mollified set of one depth builds its stacks in the same
    # workspace, so a new level of a ladder allocates no stacks of its own
    raw = builtin_field("log_example", beta=1.0)
    x = np.linspace(-1.5, 1.5, 10_000)[:, None]
    getattr(mollify_field(raw, 0.1), which)(1, x)
    level = mollify_field(raw, 0.05)
    stack = len(_kernel_nodes(1, 0.05, level.nodes)[0]) * len(x) * 8
    tracemalloc.start()
    try:
        getattr(level, which)(1, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * stack


def _fresh_quadrature(fs, which, l, x):
    """``fs.A`` or ``fs.DA`` with the quadrature of every mollified level
    written out on fresh arrays, in the same order of operations."""
    if not isinstance(fs, MollifiedFieldSet):
        return getattr(fs, which)(l, x)
    offsets, kw, r = _kernel_nodes(fs.n, fs.eps, fs.nodes)
    shifted = (x[None, :, :] - offsets[:, None, :]).reshape(-1, fs.n)
    vals = _fresh_quadrature(fs.base, which, l, shifted)
    vals = vals.reshape((len(offsets), len(x)) + vals.shape[1:])
    d = vals - vals[r]
    acc = kw[0] * d[0]
    for q in range(1, len(kw)):
        acc = acc + kw[q] * d[q]
    return vals[r] + acc


@pytest.mark.parametrize("which", ["A", "DA"])
def test_a_field_mollified_twice_keeps_its_stacks_apart(which):
    # the outer level holds its shifted stack while the inner level, one
    # depth lower, builds its own in another workspace; the second call runs
    # on workspaces the first one grew, and both match fresh arrays
    twice = mollify_field(mollify_field(builtin_field("log_example", beta=1.0), 0.1), 0.05)
    x = np.linspace(-1.5, 1.5, 101)[:, None]
    expected = _fresh_quadrature(mollify_field(mollify_field(
        builtin_field("log_example", beta=1.0), 0.1), 0.05), which, 1, x)
    for _ in range(2):
        assert getattr(twice, which)(1, x).tobytes() == expected.tobytes()
