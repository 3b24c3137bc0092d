"""Repeat bench/run.py over seeds and summarize medians, quartiles and spreads.

    python3 bench/repeat.py --out FILE

It makes two sets of ten untraced runs of every workload in BENCHMARK.json,
set 1 with seeds 1 to 10 and set 2 with seeds 11 to 20, one set over all
workloads after the other, then one traced run of each workload at its
acceptance seed.  For every end-to-end metric and set it reports the median,
the quartiles of ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, and marks a spread that is not below a third of the
metric's bound.  It also reports by how much set 2's median is worse than
set 1's, as a share of set 1's, and whether that stays within the bound.
The summary goes to FILE as JSON; bench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def _run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return {"record": record, "result": json.loads(lines[-1])}


def _summary(spec, workload, runs) -> dict:
    entry = {"seeds": [r["record"]["seed"] for r in runs],
             "correct": all(r["result"]["correct"] for r in runs),
             "end_to_end": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "values": values}
        flag = "" if spread < metric["bound"] / 3 else "  <-- not below bound/3"
        print(f"{workload:9s} {name:14s} median {med:12.6g} {metric['unit']:5s} "
              f"spread {spread:7.2%} (bound {metric['bound']:.0%}){flag}", flush=True)
    return entry


def _agreement(spec, sets) -> dict:
    """Set 2's median against set 1's: the share by which it is worse."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        first, second = (s["end_to_end"][name]["median"] for s in sets)
        worse = (second - first) if metric["better"] == "lower" else (first - second)
        out[name] = {"unit": metric["unit"], "bound": metric["bound"],
                     "worse_by": worse / first, "within_bound": worse <= metric["bound"] * first}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    sets = {name: [] for name in names}
    env = {}
    for k in range(SETS):
        for workload in names:
            runs = [_run(workload, seed, seconds, False)
                    for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1)]
            print(f"-- set {k + 1}", flush=True)
            sets[workload].append(_summary(spec, workload, runs))
            env.setdefault(workload, runs[0]["record"]["env"])
    summary = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in names:
        traced = _run(workload, None, seconds, True)
        agreement = _agreement(spec, sets[workload])
        for name, a in agreement.items():
            print(f"{workload:9s} {name:14s} set 2 worse than set 1 by {a['worse_by']:7.2%} "
                  f"(bound {a['bound']:.0%}){'' if a['within_bound'] else '  <-- over'}")
        summary["workloads"][workload] = {
            "sets": sets[workload],
            "agreement": agreement,
            "correct": all(s["correct"] for s in sets[workload]) and traced["result"]["correct"],
            "trace_seed": traced["record"]["seed"],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "env": env[workload],
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
