import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from sdem.fields import (DerivativeUnavailableError, FieldError, builtin_field,
                         condition_g_estimate, ellipticity_margin,
                         field_from_json, g_function,
                         hoelder_estimate, radial_cutoff)
from conftest import finite_difference_dfield, scalar_drift_field


# ---------------------------------------------------------------------------
# built-in families


def test_bm_fields_are_basis_vectors():
    fs = builtin_field("bm", n=2)
    x = np.array([0.3, -1.2])
    assert np.array_equal(fs.A(1, x), [1.0, 0.0])
    assert np.array_equal(fs.A(2, x), [0.0, 1.0])
    assert np.array_equal(fs.A(0, x), [0.0, 0.0])
    for l in range(3):
        assert np.all(fs.DA(l, x) == 0.0)


def test_ou_linear_drift():
    fs = builtin_field("ou", lam=1.0)
    assert fs.A(1, np.array([3.0])) == pytest.approx(1.0)
    assert fs.A(0, np.array([3.0])) == pytest.approx(-3.0)
    assert fs.DA(0, np.array([3.0]))[0, 0] == pytest.approx(-1.0)


def test_log_example_weak_derivative_value():
    # sqrt(beta |log x|) at x = 0.5: sqrt(log 2)
    fs = builtin_field("log_example", beta=1.0)
    assert fs.DA(1, np.array([0.5]))[0, 0] == pytest.approx(math.sqrt(math.log(2.0)),
                                                            abs=1e-12)
    # chosen version: zero at the origin and outside the unit interval
    assert fs.DA(1, np.array([0.0]))[0, 0] == 0.0
    assert fs.DA(1, np.array([1.5]))[0, 0] == 0.0


def log_field_by_quadrature(x, beta=1.0):
    """Independent oracle for the log-modulus diffusion coefficient:
    1 + sign(x) int_0^min(|x|, 1) sqrt(beta |log y|) dy by adaptive quadrature
    (the field is constant beyond |x| = 1, where its weak derivative is 0)."""
    inner, _ = integrate.quad(lambda y: math.sqrt(beta * abs(math.log(y))),
                              0.0, min(abs(x), 1.0), epsabs=1e-13, epsrel=1e-13, limit=200)
    return 1.0 + math.copysign(inner, x)


def test_log_example_matches_closed_form():
    fs = builtin_field("log_example", beta=1.0)
    xs = np.concatenate([np.linspace(-2.0, 2.0, 801), np.geomspace(1e-6, 1.0, 80)])
    vals = fs.A(1, xs.reshape(-1, 1))[:, 0]
    expect = np.array([log_field_by_quadrature(x) for x in xs])
    assert np.max(np.abs(vals - expect)) < 1e-9
    assert fs.A(1, np.array([0.5]))[0] == pytest.approx(log_field_by_quadrature(0.5),
                                                        abs=1e-9)


def test_log_example_beta_scaling():
    fs = builtin_field("log_example", beta=0.5)
    assert fs.A(1, np.array([0.7]))[0] == pytest.approx(log_field_by_quadrature(0.7, 0.5),
                                                        abs=1e-9)


def test_log_example_dfield_consistent_with_fd_at_smooth_points():
    fs = builtin_field("log_example", beta=1.0)
    for x in (0.5, -0.4, 0.9):
        fd = finite_difference_dfield(fs, 1, [x], step=1e-5)
        assert fd[0, 0] == pytest.approx(fs.DA(1, np.array([x]))[0, 0], abs=1e-6)


def test_builtin_field_errors():
    with pytest.raises(FieldError):
        builtin_field("nope")
    with pytest.raises(FieldError):
        builtin_field("log_example", beta=-1.0)
    with pytest.raises(FieldError):
        builtin_field("const_shift", matrix=[[1.0], [1.0]], shift=[0.0, 0.0])  # m < n
    with pytest.raises(FieldError):
        builtin_field("const_shift", matrix=[[1.0, 0.0], [1.0, 0.0]], shift=[0.0, 0.0])


def test_field_json_round_trip():
    fs = builtin_field("log_example", beta=1.0)
    doc = {"name": "log_example", "params": {"beta": 1.0}, "n": 1, "m": 1}
    back = field_from_json(doc)
    assert back.A(1, np.array([0.3]))[0] == pytest.approx(fs.A(1, np.array([0.3]))[0])
    with pytest.raises(FieldError):
        field_from_json({"name": "mystery"})
    with pytest.raises(FieldError, match="'name'"):
        field_from_json({"params": {"beta": 1.0}})
    with pytest.raises(FieldError, match="'bta'"):
        field_from_json({"name": "log_example", "params": {"bta": 1.0}})
    for declared in ({"n": 2}, {"m": 2}):
        with pytest.raises(FieldError, match="does not match"):
            field_from_json({**doc, **declared})


# ---------------------------------------------------------------------------
# ellipticity


def test_ellipticity_margin_bm_is_one(rng):
    fs = builtin_field("bm", n=2)
    assert ellipticity_margin(fs, rng.uniform(-5, 5, (100, 2))) == pytest.approx(1.0)


def test_ellipticity_margin_const_shift():
    fs = builtin_field("const_shift", matrix=[[2.0, 0.0], [0.0, 1.0]], shift=[0.0, 0.0])
    assert ellipticity_margin(fs, np.zeros((1, 2))) == pytest.approx(1.0)


def test_ellipticity_margin_log_example():
    # the diffusion coefficient dips below 1 for negative arguments: its
    # infimum is 1 - sqrt(beta pi)/2, attained at x = -1
    fs = builtin_field("log_example", beta=1.0)
    theta = (1.0 - math.sqrt(math.pi) / 2.0) ** 2
    margin = ellipticity_margin(fs, np.linspace(-2, 2, 801).reshape(-1, 1))
    assert margin >= theta - 1e-9
    assert margin == pytest.approx(theta, abs=1e-4)
    assert fs.meta.theta == pytest.approx(theta)


def test_builtin_margins_dominate_meta_theta(rng):
    for fs in (builtin_field("bm", n=2), builtin_field("ou", lam=1.0),
               builtin_field("log_example", beta=1.0)):
        pts = rng.uniform(-5, 5, (1000, fs.n))
        assert ellipticity_margin(fs, pts) >= fs.meta.theta - 1e-9


def test_ellipticity_margin_empty_samples():
    with pytest.raises(FieldError):
        ellipticity_margin(builtin_field("bm", n=1), np.zeros((0, 1)))


# ---------------------------------------------------------------------------
# Hoelder estimates


def test_hoelder_estimate_constant_fields_zero(rng):
    fs = builtin_field("bm", n=2)
    pts = rng.uniform(-3, 3, (20, 2))
    pairs = [(pts[i], pts[i + 1]) for i in range(0, 18, 2)]
    assert hoelder_estimate(fs, 0.5, pairs) == 0.0


def test_hoelder_estimate_sqrt_drift():
    fs = scalar_drift_field(lambda x: np.sqrt(np.abs(x)))
    assert hoelder_estimate(fs, 0.5, [([0.0], [1.0])]) >= 1.0 - 1e-12


def test_log_example_not_lipschitz_at_origin():
    fs = builtin_field("log_example", beta=1.0)
    ratios = []
    for d in (1e-2, 1e-4, 1e-6):
        ratios.append(hoelder_estimate(fs, 1.0, [([0.0], [d])]))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 3.0          # ~ sqrt(|log d|)


def test_hoelder_estimate_rejects_bad_input():
    fs = builtin_field("bm", n=1)
    with pytest.raises(FieldError):
        hoelder_estimate(fs, 1.5, [([0.0], [1.0])])
    with pytest.raises(FieldError):
        hoelder_estimate(fs, 0.5, [([1.0], [1.0])])


# ---------------------------------------------------------------------------
# derivative energy G


def test_g_function_values(rng):
    assert g_function(builtin_field("ou", lam=1.0), np.array([7.0])) == pytest.approx(1.0)
    assert g_function(builtin_field("bm", n=2), rng.normal(size=2)) == 0.0
    val = g_function(builtin_field("log_example", beta=1.0), np.array([0.5]))
    assert val == pytest.approx(math.log(2.0), abs=1e-12)


def test_g_function_nonnegative_everywhere(rng):
    fs = builtin_field("log_example", beta=1.0)
    pts = rng.uniform(-3, 3, (500, 1))
    assert np.all(np.asarray(g_function(fs, pts)) >= 0.0)


def test_g_function_requires_weak_derivative():
    fs = scalar_drift_field(lambda x: np.abs(x))
    with pytest.raises(DerivativeUnavailableError, match="weak derivative unavailable"):
        g_function(fs, np.array([0.5]))


# ---------------------------------------------------------------------------
# condition G classifier


def test_condition_g_bm_exact():
    fs = builtin_field("bm", n=2)
    res = condition_g_estimate(fs, 1.0, 0.7, np.zeros(2), 10_000, seed=5, replicates=2)
    assert res.estimate == pytest.approx((2 * math.pi) * 0.7, rel=1e-12)
    assert not res.diverging


def test_condition_g_log_example_integrable_vs_not():
    fs = builtin_field("log_example", beta=1.0)
    fine = condition_g_estimate(fs, 0.5, 1.0, np.zeros(1), 20_000, seed=11)
    assert math.isfinite(fine.estimate) and not fine.diverging
    bad = condition_g_estimate(fs, 2.0, 1.0, np.zeros(1), 20_000, seed=11)
    assert bad.diverging


def test_condition_g_divergence_oracle():
    # independent oracle for sigma * beta = 2: the defining spatial integral
    # ~ int |y|^-2 exp(-y^2/2) dy blows up as the inner cutoff shrinks
    def inner(delta):
        val, _ = integrate.quad(lambda y: y ** -2 * math.exp(-y * y / 2), delta, 1.0)
        return val
    assert inner(1e-6) / inner(1e-3) > 100.0


def test_condition_g_rejects_small_samples():
    fs = builtin_field("bm", n=1)
    with pytest.raises(FieldError):
        condition_g_estimate(fs, 1.0, 1.0, np.zeros(1), 100, seed=0)
    with pytest.raises(FieldError, match="seed"):
        condition_g_estimate(fs, 1.0, 1.0, np.zeros(1), 10_000, seed=-1)
    bare = scalar_drift_field(lambda x: x)
    with pytest.raises(DerivativeUnavailableError):
        condition_g_estimate(bare, 1.0, 1.0, np.zeros(1), 10_000, seed=0)


# ---------------------------------------------------------------------------
# radial cutoff


def test_radial_cutoff_clamps_linear_drift():
    fs = builtin_field("ou", lam=1.0)   # drift -x in 1-d
    cut = radial_cutoff(fs, 1.0)
    assert cut.A(0, np.array([2.0]))[0] == pytest.approx(-1.0)
    assert cut.A(0, np.array([-2.0]))[0] == pytest.approx(1.0)
    assert cut.A(0, np.array([0.5]))[0] == pytest.approx(-0.5)


def test_radial_cutoff_2d_drift():
    def A(l, x):
        x = np.asarray(x, dtype=float)
        return -x if l == 0 else np.broadcast_to(np.eye(2)[l - 1], x.shape).copy()
    from sdem.fields import VectorFieldSet, FieldMeta
    fs = VectorFieldSet(2, 2, A, None, FieldMeta(), name="lin2")
    cut = radial_cutoff(fs, 1.0)
    assert np.allclose(cut.A(0, np.array([2.0, 0.0])), [-1.0, 0.0])


def test_radial_cutoff_leaves_bm_unchanged(rng):
    fs = builtin_field("bm", n=2)
    cut = radial_cutoff(fs, 3.0)
    pts = rng.uniform(-6, 6, (50, 2))
    for l in range(3):
        assert np.allclose(cut.A(l, pts), fs.A(l, pts))


def test_radial_cutoff_square_clamp():
    fs = scalar_drift_field(lambda x: x ** 2, df=lambda x: 2.0 * x)
    cut = radial_cutoff(fs, 2.0)
    assert cut.A(0, np.array([3.0]))[0] == pytest.approx(4.0)
    assert cut.A(0, np.array([-3.0]))[0] == pytest.approx(4.0)


@given(st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=20, deadline=None)
def test_radial_cutoff_idempotent(N):
    fs = builtin_field("ou", lam=2.0)
    pts = np.random.default_rng(3).uniform(-8, 8, (1000, 1))
    once = radial_cutoff(fs, N)
    twice = radial_cutoff(once, N)
    assert np.allclose(once.A(0, pts), twice.A(0, pts), atol=0, rtol=0)


def test_radial_cutoff_bounded_by_interior_sup(rng):
    fs = scalar_drift_field(lambda x: x ** 3)
    cut = radial_cutoff(fs, 2.0)
    far = rng.uniform(-50, 50, (1000, 1))
    inside = np.linspace(-2, 2, 2001).reshape(-1, 1)
    assert np.max(np.abs(cut.A(0, far))) <= np.max(np.abs(fs.A(0, inside))) + 1e-12


def test_radial_cutoff_derivative_chain_rule():
    # outside the ball the derivative must match finite differences of the
    # cutoff field itself (away from the sphere)
    def A(l, x):
        x = np.asarray(x, dtype=float)
        if l == 0:
            return np.stack([np.sin(x[..., 0]) * x[..., 1], x[..., 0] ** 2], axis=-1)
        return np.broadcast_to(np.eye(2)[l - 1], x.shape).copy()

    def DA(l, x):
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        out = np.zeros(pts.shape[:-1] + (2, 2))
        if l == 0:
            out[..., 0, 0] = np.cos(pts[..., 0]) * pts[..., 1]
            out[..., 0, 1] = np.sin(pts[..., 0])
            out[..., 1, 0] = 2 * pts[..., 0]
        return out[0] if x.ndim == 1 else out.reshape(x.shape[:-1] + (2, 2))

    from sdem.fields import VectorFieldSet, FieldMeta
    fs = VectorFieldSet(2, 2, A, DA, FieldMeta(), name="curvy")
    cut = radial_cutoff(fs, 1.5)
    for pt in ([2.0, 1.0], [-1.7, 2.2], [0.4, 0.3]):
        fd = finite_difference_dfield(cut, 0, pt, step=1e-6)
        assert np.allclose(cut.DA(0, np.array(pt)), fd, atol=5e-5)


def test_radial_cutoff_sends_huge_points_to_the_sphere(rng, recwarn):
    # squaring |x| > ~1.3e154 overflows the plain norm; such a point must
    # still land on the sphere, not at the origin, and raise no warning
    from sdem.fields import VectorFieldSet, FieldMeta, _radius
    lin2 = VectorFieldSet(2, 2, lambda l, x: -np.asarray(x, dtype=float) if l == 0
                          else np.broadcast_to(np.eye(2)[l - 1], np.shape(x)).copy(),
                          None, FieldMeta(), name="lin2")
    for fs in (builtin_field("ou", lam=1.0), lin2):
        cut = radial_cutoff(fs, 1.0)
        for v in (1e160, -1e160, 1e200, -1e200):
            for x in ([[v]] if fs.n == 1 else [[v, 0.0], [0.0, v], [v, -v], [v, 0.5 * v]]):
                u = np.array(x) / abs(v)
                assert np.allclose(cut.A(0, np.array(x)), -u / np.linalg.norm(u),
                                   rtol=1e-15, atol=0)
    assert len(recwarn) == 0
    # a point whose plain norm is finite keeps the plain norm's bits
    pts = rng.standard_normal((200, 2)) * 10.0 ** rng.integers(-300, 150, (200, 1))
    assert np.array_equal(_radius(pts), np.linalg.norm(pts, axis=-1, keepdims=True))


def test_radial_cutoff_projects_points_beyond_the_largest_double():
    # |x| itself overflows here; the projection goes through the direction
    # of x, so the point lands on the sphere, with no floating-point event
    from sdem.fields import VectorFieldSet, FieldMeta
    lin2 = VectorFieldSet(2, 2, lambda l, x: -np.asarray(x, dtype=float) if l == 0
                          else np.broadcast_to(np.eye(2)[l - 1], np.shape(x)).copy(),
                          None, FieldMeta(), name="lin2")
    cut = radial_cutoff(lin2, 1.0)
    pts = np.array([[1.5e308, 1.5e308], [1.5e308, -1.7e308], [-1.7e308, 0.0]])
    with np.errstate(all="raise"):
        out = cut.A(0, pts)
    u = pts / np.max(np.abs(pts), axis=1, keepdims=True)
    assert np.allclose(out, -u / np.linalg.norm(u, axis=1, keepdims=True), rtol=1e-15, atol=0)
    assert np.allclose(out[0], [-math.sqrt(0.5)] * 2, rtol=1e-15, atol=0)


def test_radial_cutoff_tiny_entries_raise_no_underflow():
    # squaring a tiny entry underflows; inside the cutoff the point keeps its
    # values, outside it lands on the sphere, with no floating-point event
    ou, bm2 = builtin_field("ou", lam=1.0), builtin_field("bm", n=2)
    cases = [(ou, [[1e-300]], True), (bm2, [[1e-300, 0.0]], True),
             (bm2, [[1e-300, 5e-324]], True), (bm2, [[3.0, 1e-200]], False),
             (bm2, [[0.5, 1e-320]], False)]
    for fs, x, inside in cases:
        x = np.array(x)
        for N in (0.3, 1.0):
            cut = radial_cutoff(fs, N)
            for l in range(fs.m + 1):
                with np.errstate(all="raise"):
                    a, da = cut.A(l, x), cut.DA(l, x)
                assert np.all(np.isfinite(a)) and np.all(np.isfinite(da))
                if inside:
                    assert np.array_equal(a, fs.A(l, x)) and np.array_equal(da, fs.DA(l, x))


def test_radial_cutoff_rejects_bad_radius():
    with pytest.raises(FieldError):
        radial_cutoff(builtin_field("bm", n=1), 0.0)
