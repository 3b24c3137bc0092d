import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdem import harness, inputs
from sdem.cli import main
from sdem.fields import FieldError
from sdem.harness import (STUDIES, ExperimentConfig, run_command)


def _cfg(**kw):
    base = dict(field_spec={"name": "bm", "params": {"n": 1}}, eps=(0.2, 0.1, 0.05),
                T=0.25, steps=50, paths=1500, seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing


def test_fingerprint_stability_and_scope():
    a = _cfg()
    b = _cfg()
    assert a.fingerprint == b.fingerprint
    assert _cfg(seed=8).fingerprint != a.fingerprint
    # workers and output location must not shift the fingerprint
    assert _cfg(workers=8, out="/tmp/x").fingerprint == a.fingerprint


def test_config_file_round_trip_and_overrides(tmp_path):
    cfg = _cfg(options={"p": 2.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = ExperimentConfig.from_file(str(path))
    assert loaded.fingerprint == cfg.fingerprint
    bumped = ExperimentConfig.from_file(str(path), seed=99, paths=64)
    assert bumped.seed == 99 and bumped.paths == 64
    assert bumped.fingerprint != cfg.fingerprint


def test_grid_at_keeps_the_step_size():
    cfg = _cfg(T=0.25, steps=250)
    grid = cfg.grid_at(0.5)
    assert grid.steps == 500 and grid.T == 0.5
    assert cfg.grid_at(1e-5).steps == 1
    with pytest.raises(FieldError):
        cfg.grid_at(-1.0)
    # t / dt overflows to inf; the error names t rather than failing in round()
    with pytest.raises(FieldError, match="'t'"):
        cfg.grid_at(1e308)


def test_unknown_command_rejected():
    with pytest.raises(FieldError):
        run_command("frobnicate", _cfg())


# ---------------------------------------------------------------------------
# subcommand behavior on closed-form cases


def test_converge_flow_bm_zeros(tmp_path):
    res = run_command("converge-flow", _cfg(out=str(tmp_path)))
    assert res.ok
    assert all(p["estimate"] == 0.0 for p in res.payload["pairs"])
    csv = (tmp_path / "converge_flow.csv").read_text()
    assert csv.startswith("# config_fingerprint=")
    assert "eps,eps_ref" in csv.splitlines()[1]


def test_converge_derivative_ou_zeros():
    res = run_command("converge-derivative",
                      _cfg(field_spec={"name": "ou", "params": {"lam": 1.0}}))
    assert res.ok
    assert all(p["estimate"] <= 1e-20 for p in res.payload["pairs"])


def test_gradient_bm_identity():
    cfg = _cfg(paths=20_000, steps=250, options={"t": 0.25, "f": "identity",
                                                 "target": 1.0})
    res = run_command("gradient", cfg)
    assert res.ok, res.failures
    assert res.payload["fd"]["estimate"] == pytest.approx(1.0, abs=1e-9)


def test_gradient_constant_function_zero():
    cfg = _cfg(paths=10_000, steps=250, options={"t": 0.25, "f": "const",
                                                 "target": 0.0})
    res = run_command("gradient", cfg)
    assert res.ok, res.failures


def test_gradient_indicator_skips_intertwine():
    cfg = _cfg(paths=10_000, steps=100, options={"t": 0.1, "f": "indicator"})
    res = run_command("gradient", cfg)
    assert "intertwine" not in res.payload
    assert res.ok, res.failures


@pytest.mark.parametrize("paths,workers", [(200, 1), (200, 2), (16_385, 2)])
def test_gradient_study_is_one_engine_run_drawing_each_block_once(monkeypatch, paths,
                                                                  workers):
    from sdem import flow

    runs, drawn = [], []
    run, draw = flow._run, flow.BrownianBatch.block_increments
    monkeypatch.setattr(flow, "_run", lambda *a, **k: runs.append(1) or run(*a, **k))
    monkeypatch.setattr(flow.BrownianBatch, "block_increments",
                        lambda self, b, rows, **k: drawn.append((b, rows.start, rows.stop))
                        or draw(self, b, rows=rows, **k))
    cfg = _cfg(field_spec={"name": "ou", "params": {"lam": 1.0}}, eps=(), T=0.5, steps=10,
               paths=paths, workers=workers, options={"t": 0.5, "f": "sin"})
    run_command("gradient", cfg)
    assert len(runs) == 1
    # each block's rows are requested once, in consecutive slices: sorted,
    # the slices start at row 0, each starts where the one before it ends,
    # and the last ends at the block's last row.  Workers that draw ranges
    # of one block at once may request them in either order
    blocks = -(-paths // flow.BLOCK)
    assert sorted({b for b, _, _ in drawn}) == list(range(blocks))
    for b in range(blocks):
        edges = sorted((lo, hi) for c, lo, hi in drawn if c == b)
        size = min(flow.BLOCK, paths - b * flow.BLOCK)
        assert [lo for lo, _ in edges] == [0] + [hi for _, hi in edges[:-1]]
        assert edges[-1][1] == size


def test_gradient_verdict_names_the_allowance_it_tested(monkeypatch):
    # bismut and fd have no spread, so their gap is tested against 3 x the
    # SE pooled over every route, which intertwine's SE sets
    from sdem.report import EstimatorReport

    reports = {"bismut": EstimatorReport(0.0, 0.0, 100), "fd": EstimatorReport(5.0, 0.0, 100),
               "intertwine": EstimatorReport(2.5, 1.0, 100)}
    monkeypatch.setattr(harness, "gradient_routes", lambda *a, **k: reports)
    res = run_command("gradient", _cfg(options={"t": 0.25}))
    assert res.failures[0] == "gradient: bismut vs fd gap 5.0000e+00 > allowance 3.0000e+00"


def test_kernel_bound_bm(tmp_path):
    cfg = _cfg(paths=100_000, steps=16, T=1.0, out=str(tmp_path),
               options={"t": 1.0, "c1": 1.05, "c1_max": 1.1})
    res = run_command("kernel-bound", cfg)
    assert res.ok, res.failures
    assert res.payload["C1_min"] == 1.0
    rows = (tmp_path / "kernel_bound.csv").read_text().splitlines()
    assert rows[1] == "y,density,se,gaussian_bound_at_C1"
    assert len(rows) == 23       # comment + header + 21 query points


def test_kernel_bound_estimates_from_the_unflagged_states_alone(monkeypatch):
    # one flagged path of 10,001 stays under the 1e-4 limit, and the estimate
    # is the one of the other 10,000 states; with no path flagged, the
    # density estimate reads the run's states in place
    from sdem import kernel

    real_run, real_kde = harness.run_ensemble, kernel.density_estimate
    runs, samples = [], []

    def run_flagging(*args, **kwargs):
        res = real_run(*args, **kwargs)
        res.flag[:flagged] = True
        runs.append(res)
        return res

    def kde(sample, *args, **kwargs):
        samples.append(sample)
        return real_kde(sample, *args, **kwargs)

    monkeypatch.setattr(harness, "run_ensemble", run_flagging)
    monkeypatch.setattr(kernel, "density_estimate", kde)
    flagged = 1
    cfg = _cfg(T=1.0, steps=8, paths=10_001, options={"query": [-2.0, 2.0, 5]})
    out = run_command("kernel-bound", cfg)
    states = runs[-1].state_T[1:]
    h = kernel.silverman_bandwidth(states)
    query = kernel.DensityQuery(1.0, np.asarray(cfg.x0, dtype=float),
                                np.linspace(-2.0, 2.0, 5)[:, None], h)
    dens, se = real_kde(states, query)
    rows = [line.split(",") for line in out.files["kernel_bound.csv"].splitlines()[2:]]
    assert out.payload["flagged"] == 1 and out.payload["bandwidth"] == h
    assert [r[1:3] for r in rows] == [[repr(float(d)), repr(float(e))] for d, e in zip(dens, se)]
    flagged = 0
    run_command("kernel-bound", dataclasses.replace(cfg, paths=10_000))
    assert np.shares_memory(samples[-1], runs[-1].state_T)


def test_kernel_bound_takes_an_integral_float_query_count():
    # a count is an integer as grid.steps is: 21.0 is 21 (3.9, which is not 3,
    # is a row of test_study_dimensions_rejected_before_any_noise)
    cfg = _cfg(paths=10_000, steps=8, options={"t": 0.25, "query": [-4.0, 4.0, 21]})
    whole = run_command("kernel-bound", cfg)
    as_float = run_command("kernel-bound", dataclasses.replace(
        cfg, options={"t": 0.25, "query": [-4.0, 4.0, 21.0]}))
    assert len(whole.files["kernel_bound.csv"].splitlines()) == 2 + 21
    # the fingerprint line differs, since the config does
    assert as_float.files["kernel_bound.csv"].splitlines()[1:] == \
        whole.files["kernel_bound.csv"].splitlines()[1:]


def test_kernel_bound_rejects_2d_field_before_simulating(monkeypatch):
    from sdem import harness

    def no_run(*args, **kwargs):
        raise AssertionError("kernel-bound simulated a field it must reject")

    monkeypatch.setattr(harness, "run_ensemble", no_run)
    with pytest.raises(FieldError, match="1-d only"):
        run_command("kernel-bound", _cfg(field_spec={"name": "bm", "params": {"n": 2}},
                                         x0=(0.0, 0.0)))


def test_kernel_bound_rejects_small_sample_before_simulating(monkeypatch):
    from sdem import harness

    def no_run(*args, **kwargs):
        raise AssertionError("kernel-bound simulated a sample it must reject")

    monkeypatch.setattr(harness, "run_ensemble", no_run)
    with pytest.raises(FieldError, match="paths=9999"):
        run_command("kernel-bound", _cfg(paths=9999, options={"t": 1.0}))


def test_condition_g_log_example_both_regimes():
    good = _cfg(field_spec={"name": "log_example", "params": {"beta": 1.0}},
                paths=20_000,
                options={"sigma": 0.5, "T0": 1.0, "expect_diverging": False})
    res = run_command("condition-g", good)
    assert res.ok and not res.payload["diverging"]
    bad = _cfg(field_spec={"name": "log_example", "params": {"beta": 1.0}},
               paths=20_000,
               options={"sigma": 2.0, "T0": 1.0, "expect_diverging": True})
    res2 = run_command("condition-g", bad)
    assert res2.ok and res2.payload["diverging"]


def test_condition_g_refuses_paths_below_the_sample_floor(tmp_path, capsys, monkeypatch):
    # the floor is MIN_SAMPLES, as for kernel-bound; the study no longer
    # raises a smaller paths to it, and refuses before any draw
    from sdem import fields

    def no_draw(*args, **kwargs):
        raise AssertionError("condition-g drew samples it must refuse")

    monkeypatch.setattr(fields.np.random, "default_rng", no_draw)
    with pytest.raises(FieldError, match="samples=9999 is below the 10000"):
        run_command("condition-g", _cfg(paths=9999))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_cfg(paths=9999).to_dict()))
    assert main(["condition-g", "--config", str(cfg_path)]) == 2
    assert "samples=9999" in capsys.readouterr().err


def test_condition_g_flags_unexpected_verdict():
    cfg = _cfg(field_spec={"name": "log_example", "params": {"beta": 1.0}},
               paths=20_000,
               options={"sigma": 0.5, "T0": 1.0, "expect_diverging": True})
    res = run_command("condition-g", cfg)
    assert not res.ok and res.failures


@pytest.mark.filterwarnings("error")
def test_condition_g_counts_an_overflowed_replicate_as_diverging():
    # at lam = 1e300 every exp(sigma G) overflows, so each replicate's ratio
    # of batch means is inf / inf = nan; that is growth, not convergence
    for expect, ok in ((True, True), (False, False)):
        cfg = _cfg(field_spec={"name": "ou", "params": {"lam": 1e300}}, T=0.5, steps=50,
                   paths=10_000, seed=7, options={"expect_diverging": expect})
        res = run_command("condition-g", cfg)
        assert res.ok == ok, res.failures
        assert res.payload["diverging"] and res.payload["growth_ratio"] == math.inf
        assert res.payload["estimate"] == math.inf


def test_ibp_command_bm():
    cfg = _cfg(paths=20_000, steps=500, T=0.5,
               options={"t": 0.5, "F": "sin",
                        "target": 0.5 * math.exp(-0.25)})
    res = run_command("ibp", cfg)
    assert res.ok, res.failures
    assert res.payload["verdict"]


def test_moment_command_bm_and_ou():
    res = run_command("moment", _cfg(paths=2000, options={"p": 2.0}))
    assert res.ok
    assert res.payload["sup_moment"]["estimate"] == 1.0
    assert res.payload["exp_g_bound"]["estimate"] == 1.0
    assert res.payload["inequality_ok"]
    ou = _cfg(field_spec={"name": "ou", "params": {"lam": 1.0}}, T=1.0, steps=200,
              paths=2000, x0=(1.0,), options={"p": 2.0})
    res2 = run_command("moment", ou)
    assert res2.ok
    assert res2.payload["sup_moment"]["estimate"] == pytest.approx(1.0, abs=1e-12)
    assert res2.payload["exp_g_bound"]["estimate"] == pytest.approx(math.exp(24.0),
                                                                    rel=1e-9)


_OU = {"name": "ou", "params": {"lam": 1.0}}
_LOG = {"name": "log_example", "params": {"beta": 1.0}}
_SHIFT = {"name": "const_shift", "params": {"matrix": [[1.0]], "shift": [30.0]}}
# a config each verdict of a study fails on, and a phrase of the failure
_FAILING = [
    # a negative power turns the shrinking gaps into a growing moment
    ("converge-flow", dict(field_spec=_LOG, eps=(0.2, 0.1, 0.05), steps=25, paths=600,
                           seed=11, options={"p": -2.0}), "not nonincreasing at eps=0.1"),
    ("gradient", dict(field_spec=_OU, options={"target": 5.0}), "not within 3 pooled SE of 5.0"),
    ("gradient", dict(field_spec=_OU, options={"target": 5.0, "abs_tol": 0.01}),
     "off 5.0 by more than 0.01"),
    ("ibp", dict(field_spec=_OU, options={"target": 5.0}), "not within 3 SE of 5.0"),
    ("kernel-bound", dict(T=1.0, steps=8, paths=10_000, options={"c1": 0.1, "c1_max": 0.5}),
     "C1_min 1.000 > limit 0.5"),
    ("kernel-bound", dict(T=1.0, steps=8, paths=10_000, options={"c1": 0.1, "c1_max": 0.5}),
     "bound violated at C1 = 0.1"),
    # the sample sits at 30, where the bound of every grid C1 is below 1e-90
    ("kernel-bound", dict(field_spec=_SHIFT, T=1.0, steps=8, paths=10_000,
                          options={"query": [25, 35, 11]}), "no C1 on the grid"),
]


@pytest.mark.parametrize("name,kw,phrase", _FAILING)
def test_each_verdict_fails_its_study(name, kw, phrase):
    res = run_command(name, _cfg(**kw))
    assert not res.ok
    assert any(phrase in f for f in res.failures), res.failures


def test_moment_fails_when_the_bound_is_below_the_moment(monkeypatch):
    # no built-in field breaks the bound, so the bound is made 1/e of itself
    from sdem.report import from_samples

    real = harness.exp_g_functional

    def shrunk(ensemble, q):
        rep = real(ensemble, q)
        return from_samples(np.full(rep.samples, rep.estimate / math.e))

    monkeypatch.setattr(harness, "exp_g_functional", shrunk)
    res = run_command("moment", _cfg(paths=2000, options={"p": 2.0}))
    assert not res.ok and not res.payload["inequality_ok"]
    assert any("exceeds log bound" in f for f in res.failures), res.failures


def test_cli_lists_each_failed_verdict_and_exits_1(tmp_path, capsys):
    name, kw, _ = _FAILING[4]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_cfg(**kw).to_dict()))
    assert main([name, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("  check failed: kernel_bound:")] == [
        "  check failed: kernel_bound: C1_min 1.000 > limit 0.5",
        "  check failed: kernel_bound: bound violated at C1 = 0.1"]


# ---------------------------------------------------------------------------
# CLI and artifacts


def test_cli_end_to_end(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_cfg().to_dict()))
    out = tmp_path / "out"
    rc = main(["converge-flow", "--config", str(cfg_path), "--out", str(out),
               "--workers", "2"])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["converge_flow.csv", "converge_flow.json"]
    doc = json.loads((out / "converge_flow.json").read_text())
    assert doc["config_fingerprint"] == _cfg().fingerprint


def test_cli_failure_exit_code(tmp_path):
    doc = _cfg(field_spec={"name": "log_example", "params": {"beta": 1.0}},
               paths=20_000,
               options={"sigma": 0.5, "T0": 1.0, "expect_diverging": True}).to_dict()
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    rc = main(["condition-g", "--config", str(cfg_path)])
    assert rc == 1


def test_cli_plot_data(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_cfg().to_dict()))
    out = tmp_path / "out"
    rc = main(["converge-flow", "--config", str(cfg_path), "--out", str(out),
               "--plot-data"])
    assert rc == 0
    dat = (out / "converge_flow.dat").read_text()
    assert dat.startswith("# config_fingerprint=")
    assert len(dat.splitlines()) == 3


def test_cli_plot_data_keeps_config_out_and_workers(tmp_path, monkeypatch):
    from sdem import cli

    seen = []

    def recording_run(name, cfg):
        seen.append(cfg)
        return run_command(name, cfg)

    monkeypatch.setattr(cli, "run_command", recording_run)
    out = tmp_path / "out"
    doc = {**_cfg(paths=10_000, steps=8, T=1.0, options={"t": 1.0}).to_dict(),
           "out": str(out), "workers": 2}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    rc = main(["kernel-bound", "--config", str(cfg_path), "--plot-data"])
    assert rc == 0
    assert seen[0].workers == 2 and seen[0].options["plot_data"] is True
    assert sorted(os.listdir(out)) == ["kernel_bound.csv", "kernel_bound.dat",
                                       "kernel_bound.json"]
    # studies that write no plot data do not offer the flag
    with pytest.raises(SystemExit):
        main(["gradient", "--config", str(cfg_path), "--plot-data"])


def test_config_rejects_unknown_keys():
    doc = _cfg().to_dict()
    with pytest.raises(FieldError, match="'feild'"):
        ExperimentConfig.from_dict({**doc, "feild": doc["field"]})
    with pytest.raises(FieldError, match="'step'"):
        ExperimentConfig.from_dict({**doc, "grid": {"T": 0.25, "step": 50}})
    # a key of the wrong shape is named too
    for key, value in (("x0", 0.0), ("eps", 0.1), ("options", ["p"]), ("out", 5)):
        with pytest.raises(FieldError, match=f"'{key}'"):
            ExperimentConfig.from_dict({**doc, key: value})
    # and a document that is not an object is refused as a whole
    with pytest.raises(FieldError, match="document"):
        ExperimentConfig.from_dict(["field", "grid"])


def test_config_numbers_are_exact():
    doc = _cfg().to_dict()
    cfg = ExperimentConfig.from_dict({**doc, "grid": {"T": 1, "steps": 40.0}, "paths": 1e3})
    assert (cfg.T, cfg.steps, cfg.paths) == (1.0, 40, 1000)
    assert type(cfg.steps) is int and type(cfg.paths) is int
    bad = [("grid", {"T": 0.25, "steps": 2.7}, "'grid.steps'"),
           ("grid", {"T": 0.25, "steps": 0}, "'grid.steps'"),
           ("grid", {"T": "abc", "steps": 50}, "'grid.T'"),
           ("grid", {"T": 0.25, "steps": math.inf}, "'grid.steps'"),
           ("paths", 1000.9, "'paths'"),
           ("paths", True, "'paths'"),
           ("paths", "1000", "'paths'"),
           ("paths", 10 ** 400, "'paths'"),
           ("seed", -1, "'seed'"),
           ("seed", math.nan, "'seed'"),
           ("grid", {"T": math.inf, "steps": 50}, "'grid.T'"),
           ("grid", {"T": -0.25, "steps": 50}, "'grid.T'"),
           ("workers", -3, "'workers'"),
           ("workers", "abc", "'workers'"),
           ("workers", 2.5, "'workers'"),
           ("workers", True, "'workers'")]
    for key, value, name in bad:
        with pytest.raises(FieldError, match=name):
            ExperimentConfig.from_dict({**doc, key: value})
    # workers is a count whose default is 1, and null is not a count
    assert ExperimentConfig.from_dict(doc).workers == 1
    with pytest.raises(FieldError, match="'workers' must be an integer >= 1, got None"):
        ExperimentConfig.from_dict({**doc, "workers": None})
    # workers is a count, as paths is: moment reads 2.0 as 2
    cfg = ExperimentConfig.from_dict({**doc, "paths": 2.0, "workers": 2.0})
    assert (cfg.paths, cfg.workers) == (2, 2) and type(cfg.workers) is int
    assert run_command("moment", cfg).ok


def test_cli_overrides_are_checked_as_the_document_is(tmp_path, monkeypatch, capsys):
    # --paths and --seed go into the document before it is read, so a bad one
    # is named before any study runs, and never recorded in a fingerprint; bad
    # input exits 2, apart from a failed check's 1
    from sdem import cli

    def no_run(name, cfg):
        raise AssertionError(f"{name} ran with {cfg}")

    monkeypatch.setattr(cli, "run_command", no_run)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(_cfg().to_dict()))
    for argv, key in ((["condition-g", "--paths", "0"], "'paths'"),
                      (["moment", "--paths", "-5"], "'paths'"),
                      (["converge-flow", "--seed", "-1"], "'seed'"),
                      (["condition-g", "--workers", "-3"], "'workers'")):
        for config in ([], ["--config", str(cfg_path)]):
            assert main(argv + config) == 2
            err = capsys.readouterr().err
            assert err.startswith("sdem: error: ") and key in err
    # so is the document's own workers, though condition-g runs on one thread
    for workers in ("abc", None):
        cfg_path.write_text(json.dumps({**_cfg().to_dict(), "workers": workers}))
        assert main(["condition-g", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sdem: error: ") and "'workers'" in err


def test_cli_rejects_misspelled_top_level_key(tmp_path, capsys):
    doc = _cfg().to_dict()
    doc["feild"] = doc.pop("field")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["converge-flow", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sdem: error: ") and "'feild'" in err


def test_cli_field_parameter_of_the_wrong_kind_is_bad_input(tmp_path, capsys):
    doc = _cfg().to_dict()
    doc["field"] = {"name": "ou", "params": {"lam": "abc"}}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["moment", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sdem: error: ") and "lam" in err


def test_cli_field_spec_with_an_unknown_key_is_bad_input(tmp_path, capsys):
    doc = _cfg().to_dict()
    doc["field"] = {"name": "ou", "params": {"lam": 1.0}, "parms": {"lam": 2.0}}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["moment", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sdem: error: ") and "'parms'" in err


def test_config_defaults_are_the_dataclass_defaults():
    # from_dict states no default of its own: an empty document is the
    # default config, fingerprint included
    cfg = ExperimentConfig.from_dict({})
    assert cfg == ExperimentConfig()
    assert cfg.fingerprint == ExperimentConfig().fingerprint


def test_a_config_reads_each_field_by_its_kind_however_it_is_built():
    # built in the library, a config is read by the rule a document is
    for kw, key in (({"seed": -1}, "seed"), ({"workers": None}, "workers"),
                    ({"paths": 0}, "paths"), ({"eps": [0.1, "a"]}, "eps")):
        with pytest.raises(FieldError, match=f"config key '{key}'"):
            ExperimentConfig(**kw)
    # and handed the value a document's key is read to, fingerprint included
    built = ExperimentConfig(eps=[0.2, 0.1], steps=50.0, paths=2000.0, x0=[0.5])
    parsed = ExperimentConfig.from_dict({"eps": [0.2, 0.1], "grid": {"steps": 50},
                                         "paths": 2000, "x0": [0.5]})
    assert built == parsed and built.fingerprint == parsed.fingerprint
    assert type(built.steps) is int and built.eps == (0.2, 0.1)


def test_cli_non_finite_smoothing_scale_is_bad_input(tmp_path, capsys):
    doc = _cfg().to_dict()
    doc["eps"] = [0.2, math.nan]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["converge-flow", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sdem: error: ") and "eps" in err


def test_cli_unreadable_config_is_bad_input(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"paths": 100,')
    for path in (broken, tmp_path / "missing.json"):
        assert main(["moment", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sdem: error: cannot read --config {path}: ")


def test_unknown_option_rejected_before_simulating(monkeypatch):
    from sdem import harness, malliavin

    def no_run(*args, **kwargs):
        raise AssertionError("a study ran with an option it must reject")

    monkeypatch.setattr(malliavin, "run_ensemble", no_run)
    monkeypatch.setattr(malliavin, "run_multi", no_run)
    monkeypatch.setattr(harness, "run_ensemble", no_run)
    monkeypatch.setattr(harness, "coupled_family", no_run)
    cfg = _cfg(field_spec={"name": "log_example", "params": {"beta": 1.0}},
               options={"mollify_esp": 0.1, "t": 0.25})
    with pytest.raises(FieldError, match="'mollify_esp'"):
        run_command("gradient", cfg)
    # an option that exists, but not for this command, is rejected too
    with pytest.raises(FieldError, match="'mollify_eps'"):
        run_command("converge-flow", _cfg(options={"mollify_eps": 0.1}))


def test_study_dimensions_rejected_before_any_noise(monkeypatch):
    from sdem.flow import BrownianBatch

    def no_noise(*args, **kwargs):
        raise AssertionError("a study drew noise for dimensions it must reject")

    monkeypatch.setattr(BrownianBatch, "block_increments", no_noise)
    ou = {"name": "ou", "params": {"lam": 1.0}}
    bad = [("gradient", {"options": {"v0": [1.0, 0.0]}}, "'v0'"),
           ("ibp", {"options": {"hdot": [1.0, 0.0]}}, "'hdot'"),
           ("moment", {"x0": (0.0, 0.0)}, "x0"),
           ("converge-flow", {"x0": (0.0, 0.0)}, "x0"),
           ("gradient", {"options": {"bump": 0.0}}, "'bump'"),
           ("kernel-bound", {"paths": 10_000, "options": {"query": [-4, 4]}}, "'query'"),
           ("kernel-bound", {"paths": 10_000, "options": {"query": [-4, 4, 0]}}, "'query'"),
           ("kernel-bound", {"paths": 10_000, "options": {"bandwidth": -0.1}}, "'bandwidth'"),
           ("kernel-bound", {"paths": 10_000, "options": {"bandwidth": "nan"}}, "'bandwidth'"),
           ("kernel-bound", {"paths": 10_000, "options": {"bandwidth": math.inf}}, "'bandwidth'"),
           ("kernel-bound", {"paths": 10_000, "options": {"t": 1e308}}, "'t'"),
           # finite, but a block over 2e302 steps has more values than numpy indexes
           ("kernel-bound", {"paths": 10_000, "options": {"t": 1e300}}, "steps"),
           ("gradient", {"options": {"t": 1e300}}, "steps"),
           ("kernel-bound", {"paths": 10_000, "options": {"query": [-4, 4, 3.9]}}, "'query'"),
           ("condition-g", {"seed": -1}, "seed"),
           # the start point of condition-g is checked by the engine's rule
           ("condition-g", {"x0": (0.0, 0.0)}, "x0 has dimension 2"),
           ("condition-g", {"x0": (math.nan,)}, "x0 .* not finite"),
           ("condition-g", {"x0": (math.inf,)}, "x0 .* not finite"),
           ("converge-flow", {"eps": (0.1,)}, "'eps'"),
           ("converge-derivative", {"eps": (0.1,)}, "'eps'"),
           ("moment", {"T": math.nan}, "horizon T"),
           ("gradient", {"options": {"t": math.nan}}, "'t'"),
           ("ibp", {"options": {"t": 0.0}}, "'t'"),
           ("kernel-bound", {"paths": 10_000, "options": {"t": math.inf}}, "'t'"),
           ("converge-flow", {"seed": -1}, "seed"),
           ("moment", {"workers": "two"}, "workers"),
           # a built-in field's parameters are finite
           ("moment", {"field_spec": {"name": "ou", "params": {"lam": math.nan}}}, "lam"),
           # every numeric option is read, and named, before the run
           ("kernel-bound", {"paths": 10_000, "options": {"c1": "abc"}}, "'c1'"),
           ("kernel-bound", {"paths": 10_000, "options": {"c1_max": "abc"}}, "'c1_max'"),
           ("kernel-bound", {"paths": 10_000, "options": {"query": [-4, 4, math.nan]}},
            "'query'"),
           ("gradient", {"options": {"target": "abc"}}, "'target'"),
           ("gradient", {"options": {"target": 1.0, "abs_tol": "abc"}}, "'abs_tol'"),
           ("gradient", {"options": {"v0": ["abc"]}}, "'v0'"),
           ("ibp", {"options": {"target": "abc"}}, "'target'"),
           ("converge-flow", {"options": {"p": "abc"}}, "'p'"),
           ("moment", {"options": {"p": "abc"}}, "'p'"),
           ("moment", {"options": {"mollify_eps": "abc"}}, "'mollify_eps'"),
           ("condition-g", {"options": {"sigma": "abc"}}, "'sigma'"),
           ("condition-g", {"options": {"growth_ratio": "abc"}}, "'growth_ratio'"),
           # a flag is a JSON boolean: the string "false" is not false
           ("condition-g", {"options": {"expect_diverging": "false"}}, "'expect_diverging'"),
           ("converge-flow", {"options": {"plot_data": "no"}}, "'plot_data'"),
           ("kernel-bound", {"paths": 10_000, "options": {"plot_data": 1}}, "'plot_data'"),
           # a test function's name: the error names the key and the accepted names
           ("gradient", {"options": {"f": 3}},
            r"'f' must be one of \['const', 'identity', 'indicator', 'sin'\]"),
           ("ibp", {"options": {"F": ["sin"]}}, r"'F' must be one of \['const', 'identity', 'sin'\]"),
           ("ibp", {"options": {"F": "indicator"}}, "'F'"),
           # a smoothing scale and a tolerance are positive
           ("moment", {"options": {"mollify_eps": -0.1}}, "'mollify_eps'"),
           ("gradient", {"options": {"mollify_eps": 0}}, "'mollify_eps'"),
           ("gradient", {"options": {"target": 1.0, "abs_tol": -1.0}}, "'abs_tol'")]
    for name, kw, key in bad:
        with pytest.raises(FieldError, match=key):
            run_command(name, _cfg(**{"field_spec": ou, **kw}))


# values of the wrong kind, for each kind of option in the table
_BAD_VALUES = {
    inputs.NUMBER: st.sampled_from(["abc", math.nan, math.inf, -math.inf, True, [1.0]]),
    inputs.POSITIVE: st.one_of(st.floats(max_value=0.0),
                               st.sampled_from(["abc", math.nan, math.inf, False, [1.0]])),
    inputs.VECTOR: st.sampled_from([[], [1.0, 0.0], ["abc"], [True], "abc", 1.0, {"x": 1.0}]),
    harness._FUNCTION: st.sampled_from([3, ["sin"], "cosh", "Sin", True, {"sin": 1}]),
    harness._SMOOTH_FUNCTION: st.sampled_from([3, ["sin"], "cosh", "indicator", False]),
    inputs.POINTS: st.sampled_from([[-4, 4], [-4, 4, 0], [-4, 4, 3.9], [-4, 4, math.nan],
                                    [-4, "4", 3], [math.inf, 4, 3], [-4, 4, True], 5, "abc"]),
    inputs.FLAG: st.sampled_from(["false", "true", "no", 0, 1, [True]]),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_option_rejects_a_value_of_the_wrong_kind_before_any_noise(data):
    name, key = data.draw(st.sampled_from(
        [(name, key) for name, study in sorted(STUDIES.items()) for key in sorted(study.options)]))
    kind, _ = STUDIES[name].options[key]
    value = data.draw(_BAD_VALUES[kind])

    def no_noise(*args, **kwargs):
        raise AssertionError(f"{name} drew noise with {key} = {value!r}")

    cfg = _cfg(field_spec={"name": "ou", "params": {"lam": 1.0}}, options={key: value})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness.BrownianBatch, "block_increments", no_noise)
        mp.setattr(harness, "condition_g_estimate", no_noise)
        with pytest.raises(FieldError, match=re.escape(f"option {key!r} must be")):
            run_command(name, cfg)


def test_converge_studies_evaluate_only_what_they_report(monkeypatch):
    # converge-flow reports state gaps, so it evaluates no DA; neither study
    # evaluates log_example's drift, which is declared identically zero, and
    # neither does condition-g's g_function, for log_example or for bm
    import dataclasses
    from collections import Counter

    from sdem import harness

    calls = Counter()

    def counted(name, fn):
        def wrapped(l, x):
            calls[name, l] += 1
            return fn(l, x)
        return wrapped

    def counted_field(doc, build=harness.field_from_json):
        fs = build(doc)
        return dataclasses.replace(fs, A=counted("A", fs.A), DA=counted("DA", fs.DA))

    monkeypatch.setattr(harness, "field_from_json", counted_field)
    cfg = _cfg(field_spec={"name": "log_example", "params": {"beta": 1.0}}, steps=5, paths=64)
    # one base-field call per step and level: the mollified field stacks its nodes
    evals = cfg.steps * len(cfg.eps)
    for name, expected in (("converge-flow", {("A", 1): evals}),
                           ("converge-derivative", {("A", 1): evals, ("DA", 1): evals})):
        calls.clear()
        run_command(name, cfg)
        assert dict(calls) == expected, name
    # eight replicates of a small and a doubled batch: 16 g_function calls
    for spec in (cfg.field_spec, {"name": "bm", "params": {"n": 1}}):
        calls.clear()
        run_command("condition-g", _cfg(field_spec=spec, paths=10_000))
        assert dict(calls) == {("DA", 1): 16}, spec["name"]


def test_kernel_bound_fails_on_the_flagged_fraction(monkeypatch):
    # flagged paths leave the KDE's sample, so the study fails, before the
    # fit, once they reach the documented 1e-4 limit: 5 of 10,000 is 5e-4
    from sdem import harness

    real = harness.run_ensemble

    def flag_five(*args, **kwargs):
        res = real(*args, **kwargs)
        res.flag[:5] = True
        return res

    monkeypatch.setattr(harness, "run_ensemble", flag_five)
    res = run_command("kernel-bound", _cfg(T=1.0, steps=8, paths=10_000,
                                           options={"t": 1.0}))
    assert not res.ok
    assert res.payload["flagged"] == 5
    assert any("flagged fraction 5.00e-04" in f for f in res.failures), res.failures


@pytest.mark.parametrize("name", ["converge-flow", "converge-derivative", "gradient",
                                  "kernel-bound", "ibp", "moment"])
def test_a_study_whose_every_path_is_flagged_fails(name, tmp_path, capsys):
    # a rate of 1e300 overflows every path at its first step, so no estimate
    # has a sample: the study fails on its flagged fraction, exit code 1
    cfg = _cfg(field_spec={"name": "ou", "params": {"lam": 1e300}}, eps=(0.2, 0.1), T=0.5,
               paths=10_000)
    label = name.replace("-", "_")
    res = run_command(name, cfg)
    assert not res.ok and res.payload["flagged"] == 10_000
    assert res.failures == [f"{label}: flagged fraction 1.00e+00 >= 1e-4"]
    assert list(res.files) == [f"{label}.json"]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert main([name, "--config", str(cfg_path)]) == 1
    assert f"check failed: {label}: flagged fraction" in capsys.readouterr().err


def test_flagged_fraction_counts_every_path_run(monkeypatch):
    # the limit is flagged paths over all paths run, in every study: one
    # flagged path of 10,001 stays below 1e-4, one of 10,000 reaches it
    from sdem import malliavin

    real_one, real_multi = malliavin.run_ensemble, malliavin.run_multi

    def flag_one(*args, **kwargs):
        res = real_one(*args, **kwargs)
        res.flag[:1] = True
        return res

    def flag_one_each(*args, **kwargs):
        results, extras = real_multi(*args, **kwargs)
        for res in results:
            res.flag[:1] = True
        return results, extras

    monkeypatch.setattr(malliavin, "run_ensemble", flag_one)
    monkeypatch.setattr(malliavin, "run_multi", flag_one_each)
    ou = {"name": "ou", "params": {"lam": 1.0}}
    for name in ("ibp", "gradient"):
        for paths, flagged in ((10_001, False), (10_000, True)):
            res = run_command(name, _cfg(field_spec=ou, T=0.2, steps=4, paths=paths,
                                         options={"t": 0.2}))
            hits = [f for f in res.failures if "flagged fraction 1.00e-04" in f]
            # the gradient's three routes pool their flags: one cause, one line
            assert len(hits) == flagged, (name, paths, res.failures)


def test_documented_and_benchmarked_configs_are_accepted(monkeypatch):
    import re
    import runpy
    from pathlib import Path

    from sdem import harness

    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    docs = [json.loads(m) for m in re.findall(r"```json\n(.*?)```", readme, re.S)]
    workloads = runpy.run_path(str(root / "bench" / "workloads.py"))["WORKLOADS"]
    runs = [(name, doc) for doc in docs for name in ("converge-flow", "converge-derivative")]
    runs += [(name, w.config) for w in workloads.values() for name in w.commands]
    assert len(runs) == 6
    for name, doc in runs:
        stub = STUDIES[name]._replace(run=lambda cfg, fields, opts: "validated")
        monkeypatch.setitem(harness.STUDIES, name, stub)
        assert run_command(name, ExperimentConfig.from_dict(doc)) == "validated"


def test_benchmark_tracer_hooks_install_and_restore():
    # bench/tracer.py wraps public entry points by name and fails on a missing
    # one; installing it here makes a renamed or deleted entry point fail
    # this suite, a study run under it must reach the wrapped layers, and
    # uninstalling it must leave every attribute as it was
    import runpy
    import sys
    from pathlib import Path

    import numpy as np

    from sdem import flow, harness, kernel, mollify

    root = Path(__file__).resolve().parents[1]
    tracer = runpy.run_path(str(root / "bench" / "tracer.py"))["Tracer"]()
    owners = [m for name, m in sorted(sys.modules.items())
              if m is not None and (name == "sdem" or name.startswith("sdem."))]
    owners += [mollify.MollifiedFieldSet, flow.BrownianBatch]
    before = [dict(vars(o)) for o in owners]
    orig_run, orig_A = harness.run_command, mollify.MollifiedFieldSet.A
    # name the function behind each estimator span; the tracer's own
    # estimator wrappers record no counts
    wrap = tracer.wrap

    def naming_wrap(name, fn, count=None):
        if name == "malliavin.estimator":
            count = lambda a, k, out, route=fn.__name__: {"route": route}
        return wrap(name, fn, count)

    tracer.wrap = naming_wrap
    try:
        tracer.install()
        assert harness.run_command is not orig_run
        assert mollify.MollifiedFieldSet.A is not orig_A
        ibp = _cfg(field_spec={"name": "ou", "params": {"lam": 1.0}}, eps=(), T=0.5,
                   steps=10, paths=200, options={"t": 0.5, "F": "sin", "hdot": [1.0]})
        harness.run_command("ibp", ibp)
        assert any(s.name == "malliavin.right_inverse" for s in tracer.spans)
        tracer.reset()
        gradient = _cfg(field_spec={"name": "ou", "params": {"lam": 1.0}}, eps=(), T=0.5,
                        steps=10, paths=200, options={"t": 0.5, "f": "sin"})
        harness.run_command("gradient", gradient)
        routes = sorted(s.counts["route"] for s in tracer.spans
                        if s.name == "malliavin.estimator")
        assert routes == ["bismut_gradient", "fd_gradient", "intertwine_gradient"]
        tracer.reset()
        # the density estimate's chunks go over a pool of its own, not the
        # engine's, so none of them is booked as a block
        query = kernel.DensityQuery(1.0, [0.0], np.array([[0.0]]), bandwidth=0.1)
        kernel.density_estimate(np.zeros((kernel._CHUNK + 1, 1)), query, workers=2)
        assert [s.name for s in tracer.spans] == ["kernel.kde"]
    finally:
        tracer.uninstall()
    for owner, snap in zip(owners, before):
        now = vars(owner)
        moved = [k for k in set(snap) | set(now) if now.get(k) is not snap.get(k)]
        assert not moved, (owner, moved)


def test_worker_count_leaves_bytes_unchanged(tmp_path):
    cfg_doc = _cfg(field_spec={"name": "log_example", "params": {"beta": 1.0}},
                   paths=800, steps=25).to_dict()
    texts = []
    for w, sub in (("1", "a"), ("4", "b")):
        out = tmp_path / sub
        cfg = ExperimentConfig.from_dict(cfg_doc, out=str(out), workers=int(w))
        run_command("converge-flow", cfg)
        texts.append((out / "converge_flow.csv").read_bytes())
    assert texts[0] == texts[1]


def test_every_command_is_registered():
    assert sorted(STUDIES) == ["condition-g", "converge-derivative",
                                "converge-flow", "gradient", "ibp",
                                "kernel-bound", "moment"]


def test_readme_python_blocks_import_what_sdem_has_and_the_custom_field_runs():
    # every name a ```python block imports from sdem exists there, and the
    # custom-field block runs and builds a field set that evaluates batches;
    # the library-use block runs in a test of its own
    import ast

    import numpy as np

    import sdem

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    imported = [alias.name for code in blocks for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "sdem"
                for alias in node.names]
    assert len(imported) >= 7
    assert [name for name in imported if not hasattr(sdem, name)] == []
    (custom,) = [code for code in blocks if "VectorFieldSet(" in code]
    scope = {}
    exec(custom, scope)
    fs, x = scope["fs"], np.linspace(-1.0, 1.0, 5)[:, None]
    assert isinstance(fs, sdem.VectorFieldSet)
    assert [fs.A(l, x).shape for l in (0, 1)] == [(5, 1)] * 2
    assert [fs.DA(l, x).shape for l in (0, 1)] == [(5, 1, 1)] * 2


def test_readme_library_use_block_runs(capsys):
    # the library-use block runs as written, so an API change that leaves it
    # stale fails here; it prints one smoothing gap per coarser level and the
    # Bismut and finite-difference gradients
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    (library,) = [code for code in blocks if "coupled_family(" in code]
    exec(library, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and "fd" in lines[-1]


def test_readme_lists_every_study_option():
    # the README's option paragraph has one bullet per study (the two converge
    # studies share one), and each bullet names every option of its studies
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("\n- `", readme.index("Study options"))
    bullets = readme[start:readme.index("\n\n", start)].split("\n- ")[1:]
    for name, study in STUDIES.items():
        (bullet,) = [b for b in bullets if f"`{name}`" in b.split(":")[0]]
        for key in study.options:
            assert f"`{key}`" in bullet, (name, key)


def test_readme_states_each_contract_once():
    # one Contracts section of four paragraphs, one per contract, and the
    # fail-fast promise made there alone: a mechanism is left to the
    # docstring that owns it, so a change to it edits one place
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (section,) = re.findall(r"\n## Contracts\n(.*?)(?=\n## |\Z)", readme, re.S)
    paragraphs = section.strip().split("\n\n")
    assert [p.split(".**")[0] for p in paragraphs] == [
        "**Byte determinism", "**Fail-fast input", "**Flags", "**Workers"]
    assert readme.count("before any noise") == 1
