import json
import math
import os

import pytest

from sdem.cli import main
from sdem.fields import FieldError
from sdem.harness import (COMMANDS, ExperimentConfig, load_report, run_command)


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


def test_kernel_bound_bm(tmp_path):
    cfg = _cfg(paths=100_000, steps=16, T=1.0, out=str(tmp_path),
               options={"t": 1.0, "c1": 1.05, "c1_max": 1.1})
    res = run_command("kernel-bound", cfg)
    assert res.ok, res.failures
    assert res.payload["C1_min"] == 1.0
    rows = (tmp_path / "kernel_bound.csv").read_text().splitlines()
    assert rows[1] == "y,density,se,gaussian_bound_at_C1"
    assert len(rows) == 23       # comment + header + 21 query points


def test_kernel_bound_rejects_2d_field_before_simulating(monkeypatch):
    from sdem import harness

    def no_run(*args, **kwargs):
        raise AssertionError("kernel-bound simulated a field it must reject")

    monkeypatch.setattr(harness, "run_ensemble", no_run)
    with pytest.raises(FieldError, match="1-d only"):
        run_command("kernel-bound", _cfg(field_spec={"name": "bm", "params": {"n": 2}},
                                         x0=(0.0, 0.0)))


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


def test_condition_g_flags_unexpected_verdict():
    cfg = _cfg(field_spec={"name": "log_example", "params": {"beta": 1.0}},
               paths=20_000,
               options={"sigma": 0.5, "T0": 1.0, "expect_diverging": True})
    res = run_command("condition-g", cfg)
    assert not res.ok and res.failures


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
    doc = load_report(out / "converge_flow.json")
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


def test_report_fingerprint_mismatch_aborts(tmp_path):
    out = tmp_path / "out"
    run_command("converge-flow", _cfg(out=str(out)))
    with pytest.raises(FieldError, match="fingerprint mismatch"):
        load_report(out / "converge_flow.json", expect_fingerprint="deadbeef")


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
    assert sorted(COMMANDS) == ["condition-g", "converge-derivative",
                                "converge-flow", "gradient", "ibp",
                                "kernel-bound", "moment"]
