"""Experiment orchestration: configs, fingerprints, and study subcommands.

Every subcommand consumes an ExperimentConfig, runs a reproducible study,
and emits CSV/JSON artifacts that embed the config fingerprint.  Outputs
are deterministic down to the byte for a fixed (seed, config), whatever
the worker count; nothing time- or host-dependent is ever written.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import kernel as kern
from .fields import (FieldError, condition_g_estimate, field_from_json)
from .flow import (BrownianBatch, IntegratedG, JacSupNorm, TimeGrid,
                   coupled_family, exp_g_functional, moment_sup, run_ensemble)
from .malliavin import (CameronMartinPath, bismut_gradient, fd_gradient, ibp_check,
                        intertwine_gradient)
from .mollify import mollify_field

__all__ = [
    "ExperimentConfig",
    "CommandResult",
    "COMMANDS",
    "OPTION_KEYS",
    "run_command",
    "cmd_converge_flow",
    "cmd_converge_derivative",
    "cmd_gradient",
    "cmd_kernel_bound",
    "cmd_condition_g",
    "cmd_ibp",
    "cmd_moment",
]


_CONFIG_KEYS = frozenset({"field", "eps", "grid", "paths", "seed", "x0",
                          "workers", "out", "options"})
_GRID_KEYS = frozenset({"T", "steps"})


def _reject_unknown(where: str, doc: dict, known) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise FieldError(f"unknown {where} key(s) {unknown}; accepted: {sorted(known)}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _config_number(key: str, value, least=None, whole=False):
    """A config number, exactly: a non-number, a fraction where an integer is
    due, or a value below ``least`` raises an error that names the key."""
    ok = (_is_number(value)
          and (not whole or (math.isfinite(value) and value == math.floor(value)))
          and (least is None or value >= least))
    if not ok:
        kind = "an integer" if whole else "a number"
        bound = f" >= {least}" if least is not None else ""
        raise FieldError(f"config key {key!r} must be {kind}{bound}, got {value!r}")
    return int(value) if whole else float(value)


def _reject_misshapen(doc: dict) -> None:
    """Objects must be objects and vectors lists of numbers, or the key is named."""
    for key in ("field", "grid", "options"):
        if key in doc and not isinstance(doc[key], dict):
            raise FieldError(f"config key {key!r} must be an object, got {doc[key]!r}")
    for key in ("eps", "x0"):
        vec = doc.get(key, [])
        numeric = isinstance(vec, (list, tuple)) and all(_is_number(v) for v in vec)
        if not numeric:
            raise FieldError(f"config key {key!r} must be a list of numbers, got {vec!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One study's full configuration; hashable to a stable fingerprint."""

    field_spec: dict = field(default_factory=lambda: {"name": "bm", "params": {"n": 1}})
    eps: tuple = ()
    T: float = 0.25
    steps: int = 250
    paths: int = 10_000
    seed: int = 20260810
    x0: tuple = (0.0,)
    workers: Optional[int] = None
    out: Optional[str] = None
    options: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "field": self.field_spec,
            "eps": list(self.eps),
            "grid": {"T": self.T, "steps": self.steps},
            "paths": self.paths,
            "seed": self.seed,
            "x0": list(self.x0),
            "options": self.options,
        }

    @property
    def fingerprint(self) -> str:
        """Stable 64-bit hex fingerprint of everything that affects results.

        Worker count and output directory are excluded on purpose: they may
        not change any emitted number.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.T, self.steps)

    def grid_at(self, t: float) -> TimeGrid:
        """The grid of a study at the option horizon t, on this config's step size."""
        dt = self.grid.dt
        if not (math.isfinite(t) and t > 0):
            raise FieldError(f"option 't' must be a finite positive horizon, got {t}")
        steps = t / dt
        if not math.isfinite(steps):
            raise FieldError(f"option 't' = {t} takes more steps of {dt} than a float holds")
        return TimeGrid(t, max(1, round(steps)))

    def make_field(self):
        return field_from_json(self.field_spec)

    def opt(self, key, default=None):
        return self.options.get(key, default)

    @staticmethod
    def from_dict(doc: dict, **overrides) -> "ExperimentConfig":
        _reject_unknown("config", doc, _CONFIG_KEYS)
        _reject_misshapen(doc)
        grid = doc.get("grid", {})
        _reject_unknown("grid", grid, _GRID_KEYS)
        cfg = ExperimentConfig(
            field_spec=doc.get("field", {"name": "bm", "params": {"n": 1}}),
            eps=tuple(doc.get("eps", ())),
            T=_config_number("grid.T", grid.get("T", 0.25)),
            steps=_config_number("grid.steps", grid.get("steps", 250), 1, whole=True),
            paths=_config_number("paths", doc.get("paths", 10_000), 1, whole=True),
            seed=_config_number("seed", doc.get("seed", 20260810), 0, whole=True),
            x0=tuple(doc.get("x0", (0.0,))),
            workers=doc.get("workers"),
            out=doc.get("out"),
            options=doc.get("options", {}),
        )
        clean = {k: v for k, v in overrides.items() if v is not None}
        return replace(cfg, **clean) if clean else cfg

    @staticmethod
    def from_file(path: str, **overrides) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh), **overrides)


@dataclass
class CommandResult:
    name: str
    ok: bool
    failures: list
    payload: dict
    files: dict                 # filename -> text content

    def write(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        for fname, text in self.files.items():
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(fingerprint: str, header: list, rows: list) -> str:
    buf = io.StringIO()
    buf.write(f"# config_fingerprint={fingerprint}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def _report_dict(rep, cfg: ExperimentConfig) -> dict:
    """A report as written to a study's JSON, with the config fingerprint."""
    return {**rep.to_dict(), "config_hash": cfg.fingerprint}


def _plot_text(fingerprint: str, pairs) -> str:
    lines = [f"# config_fingerprint={fingerprint}"]
    lines += [f"{a!r} {b!r}" for a, b in pairs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# test functions available to gradient/ibp studies by name


def _named_test_function(name: str):
    """Returns (f on terminal states, df or None, descriptive label)."""
    if name == "identity":
        return (lambda s: s[:, 0],
                lambda s: np.concatenate([np.ones((len(s), 1)), np.zeros((len(s), s.shape[1] - 1))], axis=1),
                "f(x) = x_1")
    if name == "sin":
        return (lambda s: np.sin(s[:, 0]),
                lambda s: np.concatenate([np.cos(s[:, :1]), np.zeros((len(s), s.shape[1] - 1))], axis=1),
                "f(x) = sin(x_1)")
    if name == "indicator":
        return (lambda s: (s[:, 0] > 0).astype(float), None, "f(x) = 1_{x_1 > 0}")
    if name == "const":
        return (lambda s: np.ones(len(s)), lambda s: np.zeros_like(s), "f(x) = 1")
    raise FieldError(f"unknown test function {name!r}")


def _direction(cfg: ExperimentConfig, key: str, n: int) -> np.ndarray:
    """Option `key` as a vector of n entries, the first basis vector by default."""
    vec = cfg.opt(key, [1.0] + [0.0] * (n - 1))
    if not all(_is_number(v) for v in np.ravel(np.asarray(vec, dtype=object))):
        raise FieldError(f"option {key!r} must be a vector of numbers, got {vec!r}")
    vec = np.atleast_1d(np.asarray(vec, dtype=float))
    if vec.shape != (n,):
        raise FieldError(f"option {key!r} has shape {vec.shape}, field set has n={n}")
    return vec


def _option(cfg: ExperimentConfig, key: str, default=None, positive: bool = False):
    """Numeric option `key` as a float, or its default (maybe None) when absent.
    A value that is not a finite number, or with ``positive`` not above 0, is an
    error that names the key; studies read every one before any noise is drawn."""
    value = cfg.opt(key, default)
    if value is None:
        return None
    if not (_is_number(value) and math.isfinite(value) and (value > 0 or not positive)):
        kind = "a finite positive number" if positive else "a finite number"
        raise FieldError(f"option {key!r} must be {kind}, got {value!r}")
    return float(value)


def _flagged_failures(label: str, flagged: int, paths: int) -> list:
    """A study's failure when the paths it flagged reach 1e-4 of the paths it ran."""
    frac = flagged / paths
    return [f"{label}: flagged fraction {frac:.2e} >= 1e-4"] if frac >= 1e-4 else []


def _level_fields(cfg: ExperimentConfig):
    fs = cfg.make_field()
    eps = _option(cfg, "mollify_eps")
    return mollify_field(fs, eps) if eps else fs


# ---------------------------------------------------------------------------
# subcommands


def _converge(cfg: ExperimentConfig, which: str, name: str) -> CommandResult:
    eps = list(cfg.eps) or [0.2, 0.1, 0.05, 0.025]
    if len(eps) < 2:
        raise FieldError(f"config key 'eps' needs at least two levels, got {eps}")
    fs = cfg.make_field()
    p = _option(cfg, "p", 2.0)
    noise = BrownianBatch(cfg.seed, cfg.paths, cfg.grid, fs.m)
    # the state gaps need no derivative flow; only the jac study integrates it
    fam = coupled_family(fs, eps, np.asarray(cfg.x0), cfg.grid, noise,
                         with_jac=which == "jac", workers=cfg.workers)
    ref = eps[-1]
    rows, ests, ses = [], [], []
    for e in eps[:-1]:
        rep = fam.sup_moment(e, ref, p, which=which)
        rows.append((e, ref, rep.estimate, rep.se))
        ests.append(rep.estimate)
        ses.append(rep.se)
    failures = []
    for i in range(len(ests) - 1):
        slack = 2.0 * math.hypot(ses[i], ses[i + 1])
        if ests[i + 1] > ests[i] + slack:
            failures.append(
                f"{name}: not nonincreasing at eps={eps[i + 1]}: "
                f"{ests[i + 1]:.4e} > {ests[i]:.4e} + {slack:.1e}"
            )
    failures += _flagged_failures(name, fam.n_flagged, cfg.paths)
    header = ["eps", "eps_ref", f"E_sup_gap_pow_{p:g}", "se"]
    csv = _csv_text(cfg.fingerprint, header, rows)
    payload = {
        "config_fingerprint": cfg.fingerprint,
        "pairs": [{"eps": a, "eps_ref": b, "estimate": c, "se": d} for a, b, c, d in rows],
        "monotone": not any("nonincreasing" in f for f in failures),
        "flagged": fam.n_flagged,
    }
    files = {f"{name}.csv": csv, f"{name}.json": _json_text(payload)}
    if cfg.opt("plot_data"):
        files[f"{name}.dat"] = _plot_text(cfg.fingerprint, [(r[0], r[2]) for r in rows])
    return CommandResult(name, not failures, failures, payload, files)


def cmd_converge_flow(cfg: ExperimentConfig) -> CommandResult:
    """Pathwise sup-distance of the state across the smoothing ladder."""
    return _converge(cfg, "state", "converge_flow")


def cmd_converge_derivative(cfg: ExperimentConfig) -> CommandResult:
    """Pathwise sup-distance of the derivative matrix across the ladder."""
    return _converge(cfg, "jac", "converge_derivative")


def cmd_gradient(cfg: ExperimentConfig) -> CommandResult:
    fields = _level_fields(cfg)
    t = _option(cfg, "t", 0.5)
    v0 = _direction(cfg, "v0", fields.n)
    f, df, label = _named_test_function(cfg.opt("f", "identity"))
    bump = _option(cfg, "bump", 1e-3, positive=True)
    target = _option(cfg, "target")
    abs_tol = _option(cfg, "abs_tol")
    grid = cfg.grid_at(t)
    run = (fields, np.asarray(cfg.x0, dtype=float), grid,
           BrownianBatch(cfg.seed, cfg.paths, grid, fields.m))
    out = {"config_fingerprint": cfg.fingerprint, "f": label, "t": t}
    reports = {"bismut": bismut_gradient(f, v0, *run, workers=cfg.workers),
               "fd": fd_gradient(f, v0, *run, bump=bump, workers=cfg.workers)}
    if df is not None:
        reports["intertwine"] = intertwine_gradient(df, v0, *run, workers=cfg.workers)
    failures = []
    names = sorted(reports)
    for a in names:
        out[a] = _report_dict(reports[a], cfg)
    gaps = {}
    # the pooled SE for pair gaps; for target checks the SEs of all routes
    # are pooled so that a zero-variance route still tolerates the O(dt)
    # discretization bias the noisy routes share
    pooled_all = math.sqrt(sum(r.se ** 2 for r in reports.values()))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            gap = abs(reports[a].estimate - reports[b].estimate)
            pooled = math.hypot(reports[a].se, reports[b].se)
            gaps[f"{a}_vs_{b}"] = {"gap": gap, "pooled_se": pooled}
            if gap > 3.0 * max(pooled, pooled_all) + 1e-12:
                failures.append(f"gradient: {a} vs {b} gap {gap:.4e} > 3 x {pooled:.4e}")
    if target is not None:
        for a in names:
            rep = reports[a]
            if abs(rep.estimate - target) > 3.0 * pooled_all + 1e-12:
                failures.append(
                    f"gradient: {a} = {rep.estimate:.5f} not within 3 pooled SE of {target}"
                )
            if abs_tol is not None and abs(rep.estimate - target) > abs_tol:
                failures.append(
                    f"gradient: {a} = {rep.estimate:.5f} off {target} by more than {abs_tol}"
                )
    out["pairwise"] = gaps
    out["pooled_se_all"] = pooled_all
    for a in names:
        failures += _flagged_failures(f"gradient: {a}", reports[a].excluded, cfg.paths)
    files = {"gradient.json": _json_text(out)}
    return CommandResult("gradient", not failures, failures, out, files)


def cmd_kernel_bound(cfg: ExperimentConfig) -> CommandResult:
    fields = _level_fields(cfg)
    if fields.n != 1:
        raise FieldError("cmd_kernel_bound: query grid construction is 1-d only")
    if cfg.paths < kern.MIN_SAMPLES:
        raise FieldError(f"cmd_kernel_bound: paths={cfg.paths} is below the "
                         f"{kern.MIN_SAMPLES} samples the density estimate needs")
    spec = cfg.opt("query", [-4.0, 4.0, 21])
    if (np.shape(spec) != (3,) or not all(_is_number(v) and math.isfinite(v) for v in spec)
            or spec[2] != math.floor(spec[2]) or spec[2] < 1):
        raise FieldError(f"option 'query' must be [lo, hi, count] with an integer count >= 1, "
                         f"got {spec}")
    lo, hi, count = spec
    qpts = np.linspace(float(lo), float(hi), int(count))[:, None]
    bandwidth = _option(cfg, "bandwidth", positive=True)
    t = _option(cfg, "t", cfg.T)
    c1_target = _option(cfg, "c1", 1.05, positive=True)
    c1_max = _option(cfg, "c1_max")
    grid = cfg.grid_at(t)
    noise = BrownianBatch(cfg.seed, cfg.paths, grid, fields.m)
    res = run_ensemble(fields, np.asarray(cfg.x0), grid, noise,
                       with_jac=False, workers=cfg.workers)
    flagged = _flagged_failures("kernel_bound", res.n_flagged, cfg.paths)
    if flagged:
        # flagged paths are missing from the KDE's sample, which can then be
        # too small to estimate from at all; the study fails before the fit
        payload = {"config_fingerprint": cfg.fingerprint, "t": t, "flagged": res.n_flagged}
        return CommandResult("kernel_bound", False, flagged,
                             payload, {"kernel_bound.json": _json_text(payload)})
    samples = res.state_T[res.ok]
    if bandwidth is None:
        bandwidth = kern.silverman_bandwidth(samples)
    query = kern.DensityQuery(t, np.asarray(cfg.x0, dtype=float), qpts, bandwidth)
    dens, se = kern.density_estimate(samples, query)
    fit = kern.kernel_bound_fit(dens, query, se=se)
    bound_at_c1 = kern.gaussian_bound(c1_target, query)
    ok_at_target = bool(np.all(kern.density_floor(dens, se) <= bound_at_c1))
    failures = []
    if not fit.satisfied:
        failures.append(f"kernel_bound: no C1 on the grid satisfies the bound "
                        f"(max log-violation {fit.max_violation:.3e})")
    if c1_max is not None and fit.c1_min > c1_max:
        failures.append(f"kernel_bound: C1_min {fit.c1_min:.3f} > limit {c1_max}")
    if not ok_at_target:
        failures.append(f"kernel_bound: bound violated at C1 = {c1_target}")
    rows = [(float(qpts[i, 0]), float(dens[i]), float(se[i]), float(bound_at_c1[i]))
            for i in range(len(qpts))]
    csv = _csv_text(cfg.fingerprint, ["y", "density", "se", "gaussian_bound_at_C1"], rows)
    payload = {
        "config_fingerprint": cfg.fingerprint,
        "t": t, "bandwidth": bandwidth,
        "C1_min": fit.c1_min, "satisfied": bool(fit.satisfied),
        "C1_target": c1_target, "ok_at_target": ok_at_target,
        "flagged": res.n_flagged,
    }
    files = {"kernel_bound.csv": csv, "kernel_bound.json": _json_text(payload)}
    if cfg.opt("plot_data"):
        files["kernel_bound.dat"] = _plot_text(cfg.fingerprint,
                                               [(r[0], r[1]) for r in rows])
    return CommandResult("kernel_bound", not failures, failures, payload, files)


def cmd_condition_g(cfg: ExperimentConfig) -> CommandResult:
    fields = cfg.make_field()
    sigma = _option(cfg, "sigma", 0.5, positive=True)
    t0 = _option(cfg, "T0", 1.0, positive=True)
    res = condition_g_estimate(fields, sigma, t0, np.asarray(cfg.x0, dtype=float),
                               max(cfg.paths, 10_000), cfg.seed,
                               growth_ratio=_option(cfg, "growth_ratio", 2.0))
    failures = []
    expect = cfg.opt("expect_diverging")
    if expect is not None and bool(expect) != res.diverging:
        failures.append(
            f"condition_g: diverging = {res.diverging}, expected {bool(expect)}"
        )
    payload = {
        "config_fingerprint": cfg.fingerprint,
        "sigma": sigma, "T0": t0,
        "estimate": res.estimate, "se": res.se,
        "diverging": res.diverging, "growth_ratio": res.growth_ratio,
        "samples": res.samples,
    }
    return CommandResult("condition_g", not failures, failures, payload,
                         {"condition_g.json": _json_text(payload)})


def cmd_ibp(cfg: ExperimentConfig) -> CommandResult:
    fields = _level_fields(cfg)
    t = _option(cfg, "t", 0.5)
    target = _option(cfg, "target")
    f, df, label = _named_test_function(cfg.opt("F", "sin"))
    if df is None:
        raise FieldError("cmd_ibp: the path functional must be C^1 (no indicator)")
    h = CameronMartinPath.constant(_direction(cfg, "hdot", fields.n))
    grid = cfg.grid_at(t)
    noise = BrownianBatch(cfg.seed, cfg.paths, grid, fields.m)

    def dF(xT, vT):
        return np.sum(np.asarray(df(xT)) * vT, axis=1)

    res = ibp_check(f, dF, h, fields, np.asarray(cfg.x0, dtype=float), grid, noise,
                    workers=cfg.workers)
    failures = []
    if not res.ok:
        failures.append(f"ibp: |lhs - rhs| = {res.gap:.4e} > 3 x {res.se_paired:.4e}")
    failures += _flagged_failures("ibp", res.lhs.excluded, cfg.paths)
    if target is not None:
        for side, rep in (("lhs", res.lhs), ("rhs", res.rhs)):
            if abs(rep.estimate - target) > 3.0 * rep.se + 1e-12:
                failures.append(f"ibp: {side} = {rep.estimate:.5f} not within 3 SE of {target}")
    payload = {
        "config_fingerprint": cfg.fingerprint, "F": label, "t": t,
        "lhs": _report_dict(res.lhs, cfg), "rhs": _report_dict(res.rhs, cfg),
        "gap": res.gap, "se_pooled": res.se_pooled, "se_paired": res.se_paired,
        "verdict": not failures,
    }
    return CommandResult("ibp", not failures, failures, payload,
                         {"ibp.json": _json_text(payload)})


def cmd_moment(cfg: ExperimentConfig) -> CommandResult:
    fields = _level_fields(cfg)
    p = _option(cfg, "p", 2.0)
    noise = BrownianBatch(cfg.seed, cfg.paths, cfg.grid, fields.m)
    res = run_ensemble(fields, np.asarray(cfg.x0), cfg.grid, noise,
                       trackers=(JacSupNorm(), IntegratedG()),
                       workers=cfg.workers)
    sup = moment_sup(res, p)
    bound = exp_g_functional(res, p)
    # compare in log scale with delta-method standard errors
    log_l = math.log(sup.estimate)
    log_r = math.log(bound.estimate) if math.isfinite(bound.estimate) else math.inf
    se_log = math.hypot(sup.se / sup.estimate,
                        bound.se / bound.estimate if math.isfinite(bound.estimate) else 0.0)
    inequality_ok = bool(log_l <= log_r + 3.0 * se_log)
    failures = []
    if not inequality_ok:
        failures.append(
            f"moment: log E sup|V|^p = {log_l:.4f} exceeds log bound {log_r:.4f} + 3 SE"
        )
    failures += _flagged_failures("moment", res.n_flagged, cfg.paths)
    payload = {
        "config_fingerprint": cfg.fingerprint, "p": p,
        "sup_moment": _report_dict(sup, cfg), "exp_g_bound": _report_dict(bound, cfg),
        "overflowed": bound.overflowed,
        "inequality_ok": inequality_ok,
    }
    return CommandResult("moment", not failures, failures, payload,
                         {"moment.json": _json_text(payload)})


COMMANDS: dict[str, Callable[[ExperimentConfig], CommandResult]] = {
    "converge-flow": cmd_converge_flow,
    "converge-derivative": cmd_converge_derivative,
    "gradient": cmd_gradient,
    "kernel-bound": cmd_kernel_bound,
    "condition-g": cmd_condition_g,
    "ibp": cmd_ibp,
    "moment": cmd_moment,
}


# the option keys each command reads; any other key is rejected before a run
OPTION_KEYS: dict[str, frozenset] = {
    "converge-flow": frozenset({"p", "plot_data"}),
    "converge-derivative": frozenset({"p", "plot_data"}),
    "gradient": frozenset({"mollify_eps", "t", "v0", "f", "bump", "target", "abs_tol"}),
    "kernel-bound": frozenset({"mollify_eps", "t", "query", "bandwidth", "c1", "c1_max",
                               "plot_data"}),
    "condition-g": frozenset({"sigma", "T0", "growth_ratio", "expect_diverging"}),
    "ibp": frozenset({"mollify_eps", "t", "F", "hdot", "target"}),
    "moment": frozenset({"mollify_eps", "p"}),
}


def run_command(name: str, cfg: ExperimentConfig) -> CommandResult:
    try:
        fn = COMMANDS[name]
    except KeyError:
        raise FieldError(f"unknown subcommand {name!r}; have {sorted(COMMANDS)}") from None
    _reject_unknown(f"{name} option", cfg.options, OPTION_KEYS[name])
    result = fn(cfg)
    if cfg.out:
        result.write(cfg.out)
    return result
