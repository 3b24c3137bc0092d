"""One fresh benchmark process; run.py starts it and reads its last stdout line.

    python3 bench/child.py setup WORKLOAD
        time the first `import sdem` plus the construction of the workload's
        field set and its mollified levels; prints {"setup_s": ...}
    python3 bench/child.py study WORKLOAD SEED SECONDS TRACE
        run the workload's studies through `run_command` until SECONDS have
        passed (at least once), checking every result; with TRACE=1, run
        the same loop again under the outside-in tracer and write the spans
        of its last pass to bench/out/spans-WORKLOAD.jsonl

The sdem package must come first on PYTHONPATH (run.py puts the checkout's
``src`` there and checks that it was imported from there).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import time
import traceback

from workloads import (BAND_SIGMAS, BLAS_PIN, FLAGGED_LIMIT, WORKLOADS,
                       flagged_fraction, headlines)

# the spans of the last traced pass are written here, inside the checkout
SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _setup(name: str) -> dict:
    t0 = time.perf_counter()
    import sdem
    from sdem.fields import field_from_json
    from sdem.mollify import mollify_field

    w = WORKLOADS[name]
    fs = field_from_json(w.config["field"])
    for eps in w.setup_eps:
        mollify_field(fs, eps)
    return {"setup_s": time.perf_counter() - t0, "sdem": sdem.__file__}


class Checker:
    """Correctness of one study call: verdict, exception, flags, bands, digests."""

    def __init__(self, workload, paths: int):
        self.workload, self.paths = workload, paths
        self.digests = {}            # command -> {file: sha256} of the first call

    def check(self, command: str, result) -> list:
        problems = []
        if not result.ok:
            problems += [f"{command}: verdict FAIL: {f}" for f in result.failures]
        frac = flagged_fraction(command, result, self.paths)
        if frac >= FLAGGED_LIMIT:
            problems.append(f"{command}: flagged fraction {frac:.2e} >= {FLAGGED_LIMIT}")
        got = headlines(command, result)
        for key, (center, center_se) in self.workload.bands[command].items():
            if key not in got:
                problems.append(f"{command}: headline {key} missing")
                continue
            est, se = got[key]
            width = BAND_SIGMAS * math.hypot(se, center_se)
            if not abs(est - center) <= width:
                problems.append(f"{command}: {key} = {est!r} outside {center!r} +- {width:.3e}")
        digests = {fname: hashlib.sha256(text.encode("utf-8")).hexdigest()
                   for fname, text in sorted(result.files.items())}
        ref = self.digests.setdefault(command, digests)
        if digests != ref:
            problems.append(f"{command}: output digests differ from the first call")
        return problems


def _iterations(workload, cfg, seconds: float, checker, tracer=None) -> list:
    """Run passes over the workload's studies within a window of `seconds`.

    A pass is started only while, at the mean pass time so far, it would end
    less than half a pass after the window, so a run makes about
    round(seconds / pass time) passes, and always at least one.
    """
    from sdem import harness

    records = []
    start = time.perf_counter()
    while not records or (time.perf_counter() - start) * (1 + 0.5 / len(records)) <= seconds:
        if tracer is not None:
            tracer.reset()
        failed = 0
        t0, c0 = time.perf_counter(), time.process_time()
        for command in workload.commands:
            try:
                problems = checker.check(command, harness.run_command(command, cfg))
            except Exception:          # a raising study is a failed operation
                problems = [f"{command}: raised\n{traceback.format_exc()}"]
            for p in problems:
                print(p, file=sys.stderr)
            failed += bool(problems)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rec = {"wall_s": wall, "cpu_s": cpu, "failed": failed}
        if tracer is not None:
            from tracer import layer_metrics
            rec["layers"] = layer_metrics(tracer.spans, workload.workers)
        records.append(rec)
    return records


def _median(values):
    """Median that stays a whole number for counts, which repeat exactly."""
    mid = statistics.median(values)
    if all(isinstance(v, int) for v in values) and float(mid).is_integer():
        return int(mid)
    return mid


def _environment(workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "workers": workers,
    }


def _study(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import resource

    import sdem
    from sdem.harness import ExperimentConfig

    w = WORKLOADS[name]
    cfg = ExperimentConfig.from_dict(w.config, seed=seed, workers=w.workers)
    checker = Checker(w, cfg.paths)
    plain = _iterations(w, cfg, seconds, checker)
    out = {"sdem": sdem.__file__, "env": _environment(w.workers), "iterations": plain,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = _iterations(w, cfg, seconds, checker, tracer)
        finally:
            tracer.uninstall()
        os.makedirs(SPANS_DIR, exist_ok=True)
        out["spans"] = os.path.join(SPANS_DIR, f"spans-{name}.jsonl")
        tracer.write(out["spans"])
        layers = {key: _median([r["layers"][key] for r in traced])
                  for key in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        out["traced_iterations"] = [{k: v for k, v in r.items() if k != "layers"}
                                    for r in traced]
        out["layers"] = layers
    out["digests"] = checker.digests
    return out


def main(argv) -> int:
    mode, name = argv[0], argv[1]
    if mode == "setup":
        doc = _setup(name)
    else:
        seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
        doc = _study(name, seed, seconds, trace)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
