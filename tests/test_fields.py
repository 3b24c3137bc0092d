import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from sdem.fields import (DerivativeUnavailableError, FieldError, VectorFieldSet,
                         builtin_field, condition_g_estimate, field_from_json, g_function)
from sdem.flow import (BrownianBatch, IntegratedG, JacSupNorm, TimeGrid, coupled_family,
                       exp_g_functional, moment_sup, run_ensemble)
from sdem.harness import ExperimentConfig
from sdem.kernel import DensityQuery, density_estimate
from sdem.malliavin import CameronMartinPath, divergence, gradient_routes
from sdem.mollify import mollify_field, mollify_scalar
from conftest import (ellipticity_margin, finite_difference_dfield, hoelder_estimate,
                      scalar_drift_field)


# ---------------------------------------------------------------------------
# built-in families


def test_bm_fields_are_basis_vectors():
    fs = builtin_field("bm", n=2)
    x = np.array([[0.3, -1.2]])
    assert np.array_equal(fs.A(1, x), [[1.0, 0.0]])
    assert np.array_equal(fs.A(2, x), [[0.0, 1.0]])
    assert np.array_equal(fs.A(0, x), [[0.0, 0.0]])
    for l in range(3):
        assert np.all(fs.DA(l, x) == 0.0)


def test_ou_linear_drift():
    fs = builtin_field("ou", lam=1.0)
    assert fs.A(1, np.array([[3.0]]))[0, 0] == pytest.approx(1.0)
    assert fs.A(0, np.array([[3.0]]))[0, 0] == pytest.approx(-3.0)
    assert fs.DA(0, np.array([[3.0]]))[0, 0, 0] == pytest.approx(-1.0)


def test_log_example_weak_derivative_value():
    # sqrt(beta |log x|) at x = 0.5: sqrt(log 2)
    fs = builtin_field("log_example", beta=1.0)
    assert fs.DA(1, np.array([[0.5]]))[0, 0, 0] == pytest.approx(math.sqrt(math.log(2.0)),
                                                                 abs=1e-12)
    # chosen version: zero at the origin and outside the unit interval
    assert fs.DA(1, np.array([[0.0]]))[0, 0, 0] == 0.0
    assert fs.DA(1, np.array([[1.5]]))[0, 0, 0] == 0.0


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
    assert fs.A(1, np.array([[0.5]]))[0, 0] == pytest.approx(log_field_by_quadrature(0.5),
                                                             abs=1e-9)


def test_log_example_beta_scaling():
    fs = builtin_field("log_example", beta=0.5)
    assert fs.A(1, np.array([[0.7]]))[0, 0] == pytest.approx(log_field_by_quadrature(0.7, 0.5),
                                                             abs=1e-9)


def test_log_example_dfield_consistent_with_fd_at_smooth_points():
    fs = builtin_field("log_example", beta=1.0)
    for x in (0.5, -0.4, 0.9):
        fd = finite_difference_dfield(fs, 1, [x], step=1e-5)
        assert fd[0, 0] == pytest.approx(fs.DA(1, np.array([[x]]))[0, 0, 0], abs=1e-6)


def test_builtin_field_errors():
    with pytest.raises(FieldError):
        builtin_field("nope")
    with pytest.raises(FieldError):
        builtin_field("log_example", beta=-1.0)
    with pytest.raises(FieldError):
        builtin_field("const_shift", matrix=[[1.0], [1.0]], shift=[0.0, 0.0])  # m < n
    with pytest.raises(FieldError):
        builtin_field("const_shift", matrix=[[1.0, 0.0], [1.0, 0.0]], shift=[0.0, 0.0])


@pytest.mark.parametrize("name, params, key", [
    ("ou", {"lam": math.nan}, "lam"),
    ("ou", {"lam": math.inf}, "lam"),
    ("ou", {"lam": 0.0}, "lam"),
    ("const_shift", {"matrix": [[1.0]], "shift": [math.nan]}, "shift"),
    ("const_shift", {"matrix": [[1.0]], "shift": [-math.inf]}, "shift"),
    ("const_shift", {"matrix": [[1.0]], "shift": [0.0, 1.0]}, "shift"),
    ("const_shift", {"matrix": [[math.inf]], "shift": [0.0]}, "matrix"),
    # an SVD of a nan matrix does not converge: refused before it is tried
    ("const_shift", {"matrix": [[math.nan]], "shift": [0.0]}, "matrix"),
    ("const_shift", {"matrix": [[1.0, 0.0], [0.0, math.nan]], "shift": [0.0, 0.0]}, "matrix"),
    # a parameter of the wrong kind, or none at all, is named as well
    ("bm", {"n": 2.5}, "bm: n must"),
    ("bm", {"n": True}, "bm: n must"),
    ("bm", {"n": -1}, "bm: n must"),
    ("ou", {"lam": "abc"}, "lam"),
    ("ou", {}, r"\['lam'\]"),
    ("log_example", {"beta": "abc"}, "beta"),
    ("const_shift", {"matrix": [[[1.0]]], "shift": [0.0]}, "matrix"),
    ("const_shift", {"matrix": "abc", "shift": [0.0]}, "matrix"),
    ("const_shift", {"matrix": [[1.0]], "shift": ["abc"]}, "shift"),
    ("bm", {"n": math.inf}, "bm: n must"),
    ("bm", {"n": "2"}, "bm: n must"),
    ("ou", {"lam": True}, "lam"),
    ("log_example", {"beta": math.nan}, "beta"),
    ("log_example", {"beta": True}, "beta"),
    # each matrix and shift entry is read by the number rule
    ("const_shift", {"matrix": [["1"]], "shift": [0.0]}, "matrix"),
    ("const_shift", {"matrix": [[True]], "shift": [0.0]}, "matrix"),
    ("const_shift", {"matrix": [[1.0]], "shift": [True]}, "shift"),
])
def test_builtin_parameters_must_be_finite(name, params, key):
    with pytest.raises(FieldError, match=key):
        builtin_field(name, **params)


_BM = builtin_field("bm", n=1)
_GRID = TimeGrid(0.25, 10)
_NOISE = BrownianBatch(seed=1, paths=8, grid=_GRID, m=1)
_QUERY = DensityQuery(1.0, [0.0], [[0.0]], 0.1)
_OU_RUN = run_ensemble(builtin_field("ou", lam=1.0), [0.0], _NOISE,
                       trackers=(JacSupNorm(), IntegratedG()))
_FAMILY = coupled_family(_BM, [0.2, 0.1], [0.0], _NOISE)


@pytest.mark.parametrize("call, key", [
    (lambda: condition_g_estimate(_BM, math.nan, 1.0, [0.0], 10_000, 0), "sigma must"),
    (lambda: condition_g_estimate(_BM, "a", 1.0, [0.0], 10_000, 0), "sigma must"),
    (lambda: condition_g_estimate(_BM, 0.5, math.inf, [0.0], 10_000, 0), "T0 must"),
    (lambda: condition_g_estimate(_BM, 0.5, 1.0, [0.0], 10_000.5, 0), "samples must"),
    (lambda: condition_g_estimate(_BM, 0.5, 1.0, [0.0], 10_000, 1.5), "seed must"),
    (lambda: TimeGrid(1.0, 2.5), "TimeGrid: steps must"),
    (lambda: TimeGrid(1.0, True), "TimeGrid: steps must"),
    (lambda: TimeGrid("a", 10), "horizon T must"),
    (lambda: BrownianBatch(seed=1, paths=10.5, grid=_GRID, m=1), "paths must"),
    (lambda: BrownianBatch(seed=1.5, paths=10, grid=_GRID, m=1), "seed must"),
    (lambda: BrownianBatch(seed=1, paths=10, grid=_GRID, m=0), "BrownianBatch: m must"),
    (lambda: mollify_field(_BM, "a"), "eps must"),
    (lambda: mollify_field(_BM, 0.1, nodes=16.5), "nodes must"),
    (lambda: mollify_scalar(lambda p: p[:, 0], True), "eps must"),
    (lambda: mollify_field(_BM, [0.1]), "eps must"),
    (lambda: mollify_scalar(lambda p: p[:, 0], [0.1]), "eps must"),
    (lambda: mollify_field(_BM, 0.1, nodes=[16]), "nodes must"),
    (lambda: mollify_scalar(lambda p: p[:, 0], 0.1, nodes=[16]), "nodes must"),
    (lambda: hoelder_estimate(_BM, "a", [[0.0]], [[1.0]]), "alpha must"),
    (lambda: DensityQuery("a", [0.0], [[0.0]], 0.1), "time t must"),
    (lambda: DensityQuery(1.0, [0.0], [[0.0]], True), "bandwidth must"),
    (lambda: gradient_routes(np.sin, None, [1.0], _BM, [0.0], _NOISE, bump="a"),
     "bump must"),
    (lambda: run_ensemble(_BM, [0.0], _NOISE, workers=2.5), "workers must"),
    # workers is a count with the default 1: None is not a count
    (lambda: run_ensemble(_BM, [0.0], _NOISE, workers=None), "workers must"),
    (lambda: density_estimate(np.zeros((10_000, 1)), _QUERY, workers=None), "workers must"),
    # one sample floor, MIN_SAMPLES, for every estimate from samples
    (lambda: condition_g_estimate(_BM, 0.5, 1.0, [0.0], 9_999, 0), "samples=9999 is below"),
    (lambda: density_estimate(np.zeros((9_999, 1)), _QUERY), "samples=9999 is below"),
    (lambda: ExperimentConfig().grid_at("a"), "'t' must"),
    # a vector's entries are numbers by the same rule
    (lambda: run_ensemble(_BM, [True], _NOISE), "x0 must be"),
    (lambda: run_ensemble(_BM, "0.5", _NOISE), "x0 must be"),
    (lambda: divergence(CameronMartinPath.constant(["1"]), _BM, [0.0], _NOISE),
     "direction h must be"),
    # numpy would promote the bool of a mixed list to a float
    (lambda: divergence(CameronMartinPath.constant([True, 0.0]), builtin_field("bm", n=2),
                        [0.0, 0.0], BrownianBatch(seed=1, paths=8, grid=_GRID, m=2)),
     "direction h must be"),
    # a field set's dimensions are counts
    (lambda: VectorFieldSet(2.5, 1, _BM.A), "VectorFieldSet: n must"),
    (lambda: VectorFieldSet(True, 1, _BM.A), "VectorFieldSet: n must"),
    (lambda: VectorFieldSet("1", 1, _BM.A), "VectorFieldSet: n must"),
    (lambda: VectorFieldSet(1, 1.5, _BM.A), "VectorFieldSet: m must"),
    # the reductions read their exponents, and condition-G its growth ratio
    (lambda: moment_sup(_OU_RUN, math.nan), "moment_sup: p must"),
    (lambda: exp_g_functional(_OU_RUN, True), "exp_g_functional: q must"),
    (lambda: _FAMILY.sup_moment(0.2, math.nan), "sup_moment: p must"),
    (lambda: _FAMILY.sup_moment(0.2, 2.0, which="jacobian"), "which must"),
    (lambda: condition_g_estimate(_BM, 0.5, 1.0, [0.0], 10_000, 0, growth_ratio="a"),
     "growth_ratio must"),
    (lambda: condition_g_estimate(_BM, 0.5, 1.0, [0.0], 10_000, 0, growth_ratio=math.nan),
     "growth_ratio must"),
], ids=["sigma-nan", "sigma-str", "T0-inf", "samples-10000.5", "seed-1.5", "steps-2.5",
        "steps-True", "T-str", "paths-10.5", "noise-seed-1.5", "m-0", "eps-str", "nodes-16.5",
        "scalar-eps-True", "eps-list", "scalar-eps-list", "nodes-list", "scalar-nodes-list",
        "alpha-str", "t-str", "bandwidth-True", "bump-str", "workers-2.5", "workers-None",
        "kde-workers-None", "samples-9999", "kde-samples-9999", "grid_at-t-str",
        "x0-True", "x0-str", "direction-str", "direction-bool", "n-2.5", "n-True", "n-str", "m-1.5",
        "moment-p-nan", "exp-q-True", "sup-p-nan", "sup-which", "growth-str",
        "growth-nan"])
def test_every_library_scalar_is_read_by_one_rule_before_any_noise(monkeypatch, call, key):
    # a count is a whole number, a seed a whole number >= 0, and every other
    # scalar a finite number; a bool is none of them.  A bad one is a
    # FieldError naming the parameter, raised before any noise is drawn
    def no_noise(*args, **kwargs):
        raise AssertionError("a rejected call drew noise")

    monkeypatch.setattr(BrownianBatch, "block_increments", no_noise)
    monkeypatch.setattr(np.random, "default_rng", no_noise)
    with pytest.raises(FieldError, match=key):
        call()


def test_field_json_round_trip():
    fs = builtin_field("log_example", beta=1.0)
    doc = {"name": "log_example", "params": {"beta": 1.0}, "n": 1, "m": 1}
    back = field_from_json(doc)
    x = np.array([[0.3]])
    assert back.A(1, x)[0, 0] == pytest.approx(fs.A(1, x)[0, 0])
    with pytest.raises(FieldError):
        field_from_json({"name": "mystery"})
    with pytest.raises(FieldError, match="'name'"):
        field_from_json({"params": {"beta": 1.0}})
    with pytest.raises(FieldError, match="'bta'"):
        field_from_json({"name": "log_example", "params": {"bta": 1.0}})
    for declared in ({"n": 2}, {"m": 2}):
        with pytest.raises(FieldError, match="does not match"):
            field_from_json({**doc, **declared})


@pytest.mark.parametrize("doc, key", [
    ({"name": "ou", "params": {"lam": 1.0}, "parms": {"lam": 2.0}}, "'parms'"),
    ({"name": "bm", "params": {"n": 1}, "n": "1"}, "'n' must be an integer"),
    ({"name": "bm", "params": {"n": 1}, "n": True}, "'n' must be an integer"),
    ({"name": "bm", "params": {"n": 1}, "m": 1.5}, "'m' must be an integer"),
    ({"name": "bm", "params": {"n": 1}, "m": 2.0}, "declared m=2 does not match"),
])
def test_field_spec_keys_are_known_and_its_dimensions_counts(doc, key):
    with pytest.raises(FieldError, match=key):
        field_from_json(doc)


def test_field_spec_declared_counts_read_as_counts():
    fs = field_from_json({"name": "bm", "params": {"n": 2}, "n": 2.0, "m": 2})
    assert (fs.n, fs.m) == (2, 2)


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


def test_builtin_margins_dominate_their_floors(rng):
    # each floor from its formula: 1 for bm and ou, the smallest singular
    # value squared for const_shift, (1 - sqrt(beta pi)/2)^2 for log_example
    matrix = np.array([[2.0, 0.5], [0.0, 1.0]])
    cases = [(builtin_field("bm", n=2), 1.0), (builtin_field("ou", lam=1.0), 1.0),
             (builtin_field("const_shift", matrix=matrix, shift=[0.0, 1.0]),
              np.linalg.svd(matrix, compute_uv=False)[-1] ** 2)]
    cases += [(builtin_field("log_example", beta=beta),
               (1.0 - math.sqrt(beta * math.pi) / 2.0) ** 2) for beta in (0.5, 1.0, 1.27)]
    for fs, floor in cases:
        pts = rng.uniform(-5, 5, (1000, fs.n))
        assert ellipticity_margin(fs, pts) >= floor - 1e-9


def test_log_example_rejects_a_beta_that_destroys_ellipticity():
    # the diffusion's infimum 1 - sqrt(beta pi)/2 reaches 0 at beta = 4/pi;
    # at beta = 2 the diffusion passes through 0 near x = -0.6
    for beta in (2.0, 4.0 / math.pi):
        with pytest.raises(FieldError, match=f"beta={re.escape(repr(beta))}"):
            builtin_field("log_example", beta=beta)
    for beta in (0.5, 1.0, 1.27):
        assert builtin_field("log_example", beta=beta).name == "log_example"


def test_ellipticity_margin_empty_samples():
    with pytest.raises(FieldError):
        ellipticity_margin(builtin_field("bm", n=1), np.zeros((0, 1)))


# ---------------------------------------------------------------------------
# Hoelder estimates


def test_hoelder_estimate_constant_fields_zero(rng):
    fs = builtin_field("bm", n=2)
    pts = rng.uniform(-3, 3, (20, 2))
    assert hoelder_estimate(fs, 0.5, pts[0:18:2], pts[1:18:2]) == 0.0


def test_hoelder_estimate_sqrt_drift():
    fs = scalar_drift_field(lambda x: np.sqrt(np.abs(x)))
    assert hoelder_estimate(fs, 0.5, [[0.0]], [[1.0]]) >= 1.0 - 1e-12


def test_log_example_not_lipschitz_at_origin():
    fs = builtin_field("log_example", beta=1.0)
    ratios = []
    for d in (1e-2, 1e-4, 1e-6):
        ratios.append(hoelder_estimate(fs, 1.0, [[0.0]], [[d]]))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 3.0          # ~ sqrt(|log d|)


def test_hoelder_estimate_rejects_bad_input():
    fs = builtin_field("bm", n=1)
    with pytest.raises(FieldError):
        hoelder_estimate(fs, 1.5, [[0.0]], [[1.0]])
    with pytest.raises(FieldError):
        hoelder_estimate(fs, 0.5, [[1.0]], [[1.0]])


# ---------------------------------------------------------------------------
# derivative energy G


def test_g_function_values(rng):
    assert g_function(builtin_field("ou", lam=1.0), np.array([[7.0]]))[0] == pytest.approx(1.0)
    assert g_function(builtin_field("bm", n=2), rng.normal(size=(1, 2)))[0] == 0.0
    val = g_function(builtin_field("log_example", beta=1.0), np.array([[0.5]]))[0]
    assert val == pytest.approx(math.log(2.0), abs=1e-12)


def test_g_function_nonnegative_everywhere(rng):
    fs = builtin_field("log_example", beta=1.0)
    pts = rng.uniform(-3, 3, (500, 1))
    assert np.all(g_function(fs, pts) >= 0.0)


def test_g_function_requires_weak_derivative():
    fs = scalar_drift_field(lambda x: np.abs(x))
    with pytest.raises(DerivativeUnavailableError, match="weak derivative unavailable"):
        g_function(fs, np.array([[0.5]]))


# ---------------------------------------------------------------------------
# condition G classifier


def test_condition_g_bm_exact():
    fs = builtin_field("bm", n=2)
    res = condition_g_estimate(fs, 1.0, 0.7, np.zeros(2), 10_000, seed=5)
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
# the point rule: evaluators take (N, n) batches, and points from a caller
# are checked once, where they enter


def _batch_only_field(with_da=True):
    """A 2-d field written for (N, 2) batches alone, with no shape handling:
    drift -x and diffusion columns (1 + sin(x_l)^2 / 2) e_l."""

    def A(l, x):
        if l == 0:
            return -x
        out = np.zeros_like(x)
        out[:, l - 1] = 1.0 + 0.5 * np.sin(x[:, l - 1]) ** 2
        return out

    def DA(l, x):
        out = np.zeros((len(x), 2, 2))
        if l == 0:
            out[:] = -np.eye(2)
        else:
            out[:, l - 1, l - 1] = 0.5 * np.sin(2.0 * x[:, l - 1])
        return out

    return VectorFieldSet(2, 2, A, DA if with_da else None, name="batch_only")


def test_a_batch_only_field_runs_everywhere():
    fs, bare = _batch_only_field(), _batch_only_field(with_da=False)
    pts = np.random.default_rng(3).uniform(-2, 2, (50, 2))
    grid = TimeGrid(0.25, 25)
    res = run_ensemble(fs, [0.1, -0.2], BrownianBatch(26, 200, grid, 2),
                       trackers=(IntegratedG(),))
    assert res.state_T.shape == (200, 2) and res.jac_T.shape == (200, 2, 2)
    assert res.n_flagged == 0
    # every derivative is diagonal, so the derivative flow stays diagonal
    assert np.all(res.jac_T[:, 0, 1] == 0.0) and np.all(res.jac_T[:, 1, 0] == 0.0)
    # both derivative routes of the smoothed field: the supplied DA smoothed,
    # and the kernel gradient of the bare field's A
    for l in range(3):
        smoothed = mollify_field(fs, 0.1, nodes=32).DA(l, pts)
        assert smoothed.shape == (50, 2, 2)
        assert np.max(np.abs(smoothed - mollify_field(bare, 0.1, nodes=32).DA(l, pts))) < 1e-3
        assert np.max(np.abs(smoothed - fs.DA(l, pts))) < 5e-3
    assert ellipticity_margin(fs, pts) >= 1.0
    g = g_function(fs, pts)
    assert g.shape == (50,)
    assert np.allclose(g, 2.0 + np.sum((0.5 * np.sin(2.0 * pts)) ** 2, axis=1),
                       rtol=0, atol=1e-14)
    # the drift -x has Hoelder-1 constant exactly 1, the diffusion 1/2
    x, y = pts[:25], pts[25:]
    assert hoelder_estimate(fs, 1.0, x, y) == pytest.approx(1.0, abs=1e-12)
    # against the loop over single pairs that the vectorised estimate replaced
    loop = max(np.linalg.norm(fs.A(l, x[i:i + 1]) - fs.A(l, y[i:i + 1]))
               / np.linalg.norm(x[i] - y[i]) ** 0.5 for i in range(25) for l in range(3))
    assert hoelder_estimate(fs, 0.5, x, y) == pytest.approx(loop, rel=4 * 2.0 ** -52, abs=0)


@pytest.mark.parametrize("bad", [np.zeros(2), np.zeros((4, 3)), np.zeros((4, 1))],
                         ids=["point", "wide", "narrow"])
def test_checkers_reject_what_is_not_an_n_column_batch(bad):
    def never(l, x):
        raise AssertionError("an evaluator saw unchecked points")

    fs = replace(_batch_only_field(), A=never, DA=never)
    good = np.ones((4, 2))
    f_eps = mollify_scalar(lambda p: never(0, p), 0.1, n=2)
    for call in (lambda: ellipticity_margin(fs, bad),
                 lambda: g_function(fs, bad),
                 lambda: hoelder_estimate(fs, 0.5, bad, good),
                 lambda: hoelder_estimate(fs, 0.5, good, bad),
                 lambda: f_eps(bad)):
        with pytest.raises(FieldError, match=re.escape(f"(N, 2) array, got shape {bad.shape}")):
            call()
