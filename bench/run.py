"""Benchmark of the sdem studies, measured from outside the program.

    python3 bench/run.py --workload {converge,ibp,density} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
Each run starts fresh processes: a few that only time set-up, then one that
runs the workload's studies through the public ``run_command`` for
``--seconds`` (at least one full pass) and checks every result.  With
``--trace 0`` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of a
traced pass, taken after an untraced pass of the same length.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-up is timed in this many fresh processes, half before and half after the
# study process so that the samples span the run, and reported as their median
SETUP_RUNS = 10
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from workloads import BLAS_PIN, WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def _child(args, deadline) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_PIN)
    env.pop("SDEM_WORKERS", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a benchmark process")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"benchmark process {args} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"benchmark process {args} exited with {proc.returncode}")
    doc = json.loads(lines[-1])
    if os.path.dirname(os.path.abspath(doc["sdem"])) != os.path.join(SRC, "sdem"):
        raise BenchError(f"sdem was imported from {doc['sdem']}, not from {SRC}")
    return doc


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _metrics(declared, values) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(workload: str, seed, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "sdem", "__init__.py")):
        raise BenchError(f"no sdem package under {SRC}; run from a checkout root")
    spec = _spec()
    seed = WORKLOADS[workload].seed if seed is None else seed

    def setups(count):
        return [_child(["setup", workload], deadline)["setup_s"] for _ in range(count)]

    setup_samples = setups(SETUP_RUNS // 2)
    doc = _child(["study", workload, str(seed), str(seconds), "1" if trace else "0"],
                 deadline)
    setup_samples += setups(SETUP_RUNS - SETUP_RUNS // 2)
    plain = doc["iterations"]
    calls = len(WORKLOADS[workload].commands)
    runs = plain + doc.get("traced_iterations", [])
    attempted = calls * len(runs)
    failed = sum(r["failed"] for r in runs)
    verified = 1.0 - sum(r["failed"] for r in plain) / (calls * len(plain))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": doc["env"], "iterations": len(plain),
              "traced_iterations": len(doc.get("traced_iterations", [])),
              "setup_samples": setup_samples, "digests": doc["digests"],
              "spans": doc.get("spans")}
    print("record " + json.dumps(record, sort_keys=True))
    if trace:
        metrics = _metrics(spec["per_layer"], doc["layers"])
    else:
        metrics = _metrics(spec["end_to_end"], {
            "study_s": statistics.median(r["wall_s"] for r in plain),
            "study_cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": doc["peak_rss_mb"],
            "verified_frac": verified,
        })
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="study seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
