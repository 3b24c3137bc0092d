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
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import kernel as kern
from .fields import condition_g_estimate, field_from_json
from .flow import (BrownianBatch, IntegratedG, JacSupNorm, TimeGrid,
                   coupled_family, exp_g_functional, moment_sup, run_ensemble)
from .inputs import (COUNT, DIRECTORY, FLAG, NUMBER, NUMBERS, OBJECT, POINTS, POSITIVE, SEED,
                     VECTOR, FieldError, Kind, enough, read, reject_unknown)
from .malliavin import CameronMartinPath, gradient_routes, ibp_check
from .mollify import mollify_field

__all__ = [
    "ExperimentConfig",
    "CommandResult",
    "Study",
    "STUDIES",
    "run_command",
]


# each config key, the field it sets, the kind ExperimentConfig reads that
# field by, however it is built, and what the key is, which its errors name;
# an absent key keeps the field's default, which ExperimentConfig states once
_CONFIG_KEYS = {"field": ("field_spec", OBJECT, "the field spec"),
                "eps": ("eps", NUMBERS, "the smoothing levels"),
                "grid.T": ("T", POSITIVE, "the horizon T"),
                "grid.steps": ("steps", COUNT, "the step count"),
                "paths": ("paths", COUNT, "the path count"),
                "seed": ("seed", SEED, "the seed"),
                "x0": ("x0", NUMBERS, "the start point"),
                "workers": ("workers", COUNT, "the worker count"),
                "out": ("out", DIRECTORY, "the output directory"),
                "options": ("options", OBJECT, "the study options")}


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
    workers: int = 1
    out: Optional[str] = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, (attr, kind, what) in _CONFIG_KEYS.items():
            name = f"{what}: config key {key!r}"
            object.__setattr__(self, attr, read(name, getattr(self, attr), kind))

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
        t = read("option 't'", t, POSITIVE)
        steps = t / dt
        if not math.isfinite(steps):
            raise FieldError(f"option 't' = {t} takes more steps of {dt} than a float holds")
        return TimeGrid(t, max(1, round(steps)))

    @staticmethod
    def from_dict(doc: dict, **overrides) -> "ExperimentConfig":
        """Parse a config document.  Each override that is not None replaces
        the document's key of that name first, so it gets the same checks."""
        if not isinstance(doc, dict):
            raise FieldError(f"a config document is an object, got {doc!r}")
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
        reject_unknown("config", doc, {key.partition(".")[0] for key in _CONFIG_KEYS})
        grid = read("config key 'grid'", doc.get("grid", {}), OBJECT)
        reject_unknown("grid", grid,
                       {key.partition(".")[2] for key in _CONFIG_KEYS if "." in key})
        given = {**doc, **{f"grid.{key}": value for key, value in grid.items()}}
        return ExperimentConfig(**{attr: given[key]
                                   for key, (attr, *_) in _CONFIG_KEYS.items() if key in given})

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
# test functions of the gradient and ibp studies, by name


_TEST_FUNCTIONS = {   # name -> (f on terminal states, its gradient or None, label)
    "identity": (lambda s: s[:, 0],
                 lambda s: np.concatenate([np.ones((len(s), 1)), np.zeros((len(s), s.shape[1] - 1))], axis=1),
                 "f(x) = x_1"),
    "sin": (lambda s: np.sin(s[:, 0]),
            lambda s: np.concatenate([np.cos(s[:, :1]), np.zeros((len(s), s.shape[1] - 1))], axis=1),
            "f(x) = sin(x_1)"),
    "indicator": (lambda s: (s[:, 0] > 0).astype(float), None, "f(x) = 1_{x_1 > 0}"),
    "const": (lambda s: np.ones(len(s)), lambda s: np.zeros_like(s), "f(x) = 1"),
}
_NAMES = sorted(_TEST_FUNCTIONS)
_SMOOTH_NAMES = [k for k in _NAMES if _TEST_FUNCTIONS[k][1] is not None]
_FUNCTION = Kind(f"one of {_NAMES}", lambda v, n: v in _NAMES, _TEST_FUNCTIONS.get)
# the ibp study differentiates its path functional
_SMOOTH_FUNCTION = Kind(f"one of {_SMOOTH_NAMES}", lambda v, n: v in _SMOOTH_NAMES,
                        _TEST_FUNCTIONS.get)


def _first_axis(cfg: ExperimentConfig, n: int) -> list:
    return [1.0] + [0.0] * (n - 1)


def _flagged_failures(label: str, flagged: int, paths: int) -> list:
    """A study's failure when the paths it flagged reach 1e-4 of the paths it ran."""
    frac = flagged / paths
    return [f"{label}: flagged fraction {frac:.2e} >= 1e-4"] if frac >= 1e-4 else []


# ---------------------------------------------------------------------------
# subcommands


def _converge(cfg: ExperimentConfig, fields, opts: dict, which: str,
              name: str) -> CommandResult:
    eps = list(cfg.eps) or [0.2, 0.1, 0.05, 0.025]
    if len(eps) < 2:
        raise FieldError(f"config key 'eps' needs at least two levels, got {eps}")
    p = opts["p"]
    noise = BrownianBatch(cfg.seed, cfg.paths, cfg.grid, fields.m)
    # the state gaps need no derivative flow; only the jac study integrates it
    fam = coupled_family(fields, eps, np.asarray(cfg.x0), noise,
                         with_jac=which == "jac", workers=cfg.workers)
    ref = eps[-1]
    rows, ests, ses = [], [], []
    for e in eps[:-1]:
        rep = fam.sup_moment(e, p, which=which)
        rows.append((e, ref, rep.estimate, rep.se))
        ests.append(rep.estimate)
        ses.append(rep.se)
    failures = []
    monotone = True
    for i in range(len(ests) - 1):
        slack = 2.0 * math.hypot(ses[i], ses[i + 1])
        if ests[i + 1] > ests[i] + slack:
            monotone = False
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
        "monotone": monotone,
        "flagged": fam.n_flagged,
    }
    files = {f"{name}.csv": csv, f"{name}.json": _json_text(payload)}
    if opts["plot_data"]:
        files[f"{name}.dat"] = _plot_text(cfg.fingerprint, [(r[0], r[2]) for r in rows])
    return CommandResult(name, not failures, failures, payload, files)


def cmd_gradient(cfg: ExperimentConfig, fields, opts: dict) -> CommandResult:
    t, v0, target, abs_tol = opts["t"], opts["v0"], opts["target"], opts["abs_tol"]
    f, df, label = opts["f"]
    noise = BrownianBatch(cfg.seed, cfg.paths, cfg.grid_at(t), fields.m)
    out = {"config_fingerprint": cfg.fingerprint, "f": label, "t": t}
    reports = gradient_routes(f, df, v0, fields, cfg.x0, noise, bump=opts["bump"],
                              workers=cfg.workers)
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
            allowance = 3.0 * max(pooled, pooled_all)
            if gap > allowance + 1e-12:
                failures.append(f"gradient: {a} vs {b} gap {gap:.4e} > allowance {allowance:.4e}")
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
    # the routes share one run's pooled flags, so each report excludes the same paths
    failures += _flagged_failures("gradient", reports["fd"].excluded, cfg.paths)
    files = {"gradient.json": _json_text(out)}
    return CommandResult("gradient", not failures, failures, out, files)


def cmd_kernel_bound(cfg: ExperimentConfig, fields, opts: dict) -> CommandResult:
    if fields.n != 1:
        raise FieldError("cmd_kernel_bound: query grid construction is 1-d only")
    enough("cmd_kernel_bound: paths", cfg.paths)
    qpts = opts["query"][:, None]
    t, bandwidth, c1_target, c1_max = opts["t"], opts["bandwidth"], opts["c1"], opts["c1_max"]
    noise = BrownianBatch(cfg.seed, cfg.paths, cfg.grid_at(t), fields.m)
    res = run_ensemble(fields, np.asarray(cfg.x0), noise, workers=cfg.workers)
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
    dens, se = kern.density_estimate(samples, query, workers=cfg.workers)
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
    if opts["plot_data"]:
        files["kernel_bound.dat"] = _plot_text(cfg.fingerprint,
                                               [(r[0], r[1]) for r in rows])
    return CommandResult("kernel_bound", not failures, failures, payload, files)


def cmd_condition_g(cfg: ExperimentConfig, fields, opts: dict) -> CommandResult:
    sigma, t0, expect = opts["sigma"], opts["T0"], opts["expect_diverging"]
    res = condition_g_estimate(fields, sigma, t0, np.asarray(cfg.x0, dtype=float),
                               cfg.paths, cfg.seed, growth_ratio=opts["growth_ratio"])
    failures = []
    if expect is not None and expect != res.diverging:
        failures.append(f"condition_g: diverging = {res.diverging}, expected {expect}")
    payload = {
        "config_fingerprint": cfg.fingerprint,
        "sigma": sigma, "T0": t0,
        "estimate": res.estimate, "se": res.se,
        "diverging": res.diverging, "growth_ratio": res.growth_ratio,
        "samples": res.samples,
    }
    return CommandResult("condition_g", not failures, failures, payload,
                         {"condition_g.json": _json_text(payload)})


def cmd_ibp(cfg: ExperimentConfig, fields, opts: dict) -> CommandResult:
    t, target = opts["t"], opts["target"]
    f, df, label = opts["F"]
    h = CameronMartinPath.constant(opts["hdot"])
    noise = BrownianBatch(cfg.seed, cfg.paths, cfg.grid_at(t), fields.m)

    def dF(xT, vT):
        return np.sum(np.asarray(df(xT)) * vT, axis=1)

    res = ibp_check(f, dF, h, fields, np.asarray(cfg.x0, dtype=float), noise,
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


def cmd_moment(cfg: ExperimentConfig, fields, opts: dict) -> CommandResult:
    p = opts["p"]
    noise = BrownianBatch(cfg.seed, cfg.paths, cfg.grid, fields.m)
    res = run_ensemble(fields, np.asarray(cfg.x0), noise,
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


class Study(NamedTuple):
    """A study: its function, which run_command calls as run(cfg, fields,
    opts), its one-line help, and its options as key -> (kind, default).  An
    option that is absent or null takes its default; a callable default is
    called as default(cfg, n).  A default of None leaves the option None and
    is not read by the kind; any other value, default or given, is."""

    run: Callable[[ExperimentConfig, object, dict], CommandResult]
    help: str
    options: dict


STUDIES: dict[str, Study] = {
    "converge-flow": Study(
        partial(_converge, which="state", name="converge_flow"),
        "pathwise sup-distance of the state across the smoothing ladder",
        {"p": (NUMBER, 2.0), "plot_data": (FLAG, False)}),
    "converge-derivative": Study(
        partial(_converge, which="jac", name="converge_derivative"),
        "pathwise sup-distance of the derivative matrix across the ladder",
        {"p": (NUMBER, 2.0), "plot_data": (FLAG, False)}),
    "gradient": Study(
        cmd_gradient,
        "semigroup gradient by the Bismut, intertwining and finite-difference routes",
        {"mollify_eps": (POSITIVE, None), "t": (POSITIVE, 0.5), "v0": (VECTOR, _first_axis),
         "f": (_FUNCTION, "identity"), "bump": (POSITIVE, 1e-3), "target": (NUMBER, None),
         "abs_tol": (POSITIVE, None)}),
    "kernel-bound": Study(
        cmd_kernel_bound,
        "Gaussian upper bound of the transition density, fitted to a KDE",
        {"mollify_eps": (POSITIVE, None), "t": (POSITIVE, lambda cfg, n: cfg.T),
         "query": (POINTS, [-4.0, 4.0, 21]), "bandwidth": (POSITIVE, None),
         "c1": (POSITIVE, 1.05), "c1_max": (NUMBER, None), "plot_data": (FLAG, False)}),
    "condition-g": Study(
        cmd_condition_g,
        "condition (G): integrability of exp(sigma G) against the heat kernel",
        {"sigma": (POSITIVE, 0.5), "T0": (POSITIVE, 1.0), "growth_ratio": (NUMBER, 2.0),
         "expect_diverging": (FLAG, None)}),
    "ibp": Study(
        cmd_ibp,
        "integration by parts on path space, E dF(V^h) = E F delta(V^h)",
        {"mollify_eps": (POSITIVE, None), "t": (POSITIVE, 0.5),
         "F": (_SMOOTH_FUNCTION, "sin"), "hdot": (VECTOR, _first_axis),
         "target": (NUMBER, None)}),
    "moment": Study(
        cmd_moment,
        "moment bound of the derivative flow by the exp(G) functional",
        {"mollify_eps": (POSITIVE, None), "p": (NUMBER, 2.0)}),
}


def run_command(name: str, cfg: ExperimentConfig) -> CommandResult:
    """Run study `name`.  Before any noise is drawn, it rejects an option the
    study does not declare, builds the field set once, reads every option
    with its kind, and smooths the field set when mollify_eps is given."""
    try:
        study = STUDIES[name]
    except KeyError:
        raise FieldError(f"unknown subcommand {name!r}; have {sorted(STUDIES)}") from None
    reject_unknown(f"{name} option", cfg.options, study.options)
    fields = field_from_json(cfg.field_spec)
    opts = {}
    for key, (kind, default) in study.options.items():
        value = cfg.options.get(key)
        if value is None:
            value = default(cfg, fields.n) if callable(default) else default
        opts[key] = None if value is None else read(f"option {key!r}", value, kind, fields.n)
    if (eps := opts.get("mollify_eps")) is not None:
        fields = mollify_field(fields, eps)
    result = study.run(cfg, fields, opts)
    if cfg.out:
        result.write(cfg.out)
    return result
