"""The benchmark's workloads: acceptance-config studies and their checks.

This module imports nothing from sdem, so a set-up run can time the first
``import sdem`` itself.  Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# BLAS is pinned to one thread, so a workload's threads are its workers, which
# never exceed the two cores of the machine the baseline was taken on.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A headline estimate passes when it lies within BAND_SIGMAS combined standard
# errors of the value recorded at the acceptance seed.  Estimates at other
# seeds are independent draws, so the band is a statistical one and holds for
# every seed; 6 sigma keeps a false failure below 1e-8 per estimate.
BAND_SIGMAS = 6.0
FLAGGED_LIMIT = 1e-4


@dataclass(frozen=True)
class Workload:
    commands: tuple          # sdem subcommands, run in this order in every pass
    config: dict             # ExperimentConfig document, seed excluded
    seed: int                # acceptance seed, the default of --seed
    workers: int             # worker threads of the block engine
    bands: dict              # command -> headline -> (estimate, se) at `seed`

    @property
    def setup_eps(self) -> list:
        """Mollified levels the workload builds (the field's smoothing ladder)."""
        return list(self.config.get("eps", ()))


WORKLOADS = {
    # AC5: the mollify-heavy ladder; four levels in lockstep on one path block
    "converge": Workload(
        commands=("converge-flow", "converge-derivative"),
        config={"field": {"name": "log_example", "params": {"beta": 1.0}},
                "eps": [0.2, 0.1, 0.05, 0.025],
                "grid": {"T": 0.25, "steps": 250},
                "paths": 10_000, "x0": [0.0], "options": {"p": 2.0}},
        seed=20260505,
        workers=2,
        bands={
            "converge-flow": {
                "eps=0.2": (3.197421935704551e-05, 4.7512482720667416e-07),
                "eps=0.1": (3.566793264732442e-06, 6.213716250526196e-08),
                "eps=0.05": (2.448208116829991e-07, 4.565350510218097e-09),
            },
            "converge-derivative": {
                "eps=0.2": (0.010917883622696639, 0.00019541439662082614),
                "eps=0.1": (0.003561907902442623, 6.498830003921707e-05),
                "eps=0.05": (0.0007157241794858231, 1.3053679749719615e-05),
            },
        }),
    # AC8 (ou): right inverse, divergence weight and noise.  One worker: on two,
    # this pool's pass time jumps between modes (medians of ten runs 11.7 s and
    # 16.5 s), so its numbers would not repeat; density exercises the pool.
    "ibp": Workload(
        commands=("ibp",),
        config={"field": {"name": "ou", "params": {"lam": 1.0}},
                "grid": {"T": 0.5, "steps": 500},
                "paths": 100_000, "x0": [0.0],
                "options": {"t": 0.5, "F": "sin", "hdot": [1.0]}},
        seed=20260808,
        workers=1,
        bands={"ibp": {"lhs": (0.25873534929674186, 0.0001841544359552461),
                       "rhs": (0.25946677546101, 0.0010244765687387638)}}),
    # AC6: state-only flow over 62 short blocks, then the KDE and bound fit
    "density": Workload(
        commands=("kernel-bound",),
        config={"field": {"name": "bm", "params": {"n": 1}},
                "grid": {"T": 1.0, "steps": 16},
                "paths": 1_000_000, "x0": [0.0],
                "options": {"t": 1.0, "c1": 1.05, "c1_max": 1.1,
                            "query": [-4.0, 4.0, 21]}},
        seed=20260606,
        workers=2,
        bands={"kernel-bound": {
            "y=-2": (0.05461324021572415, 0.00047614844213251145),
            "y=0": (0.396104312053163, 0.0012298446643770247),
            "y=2": (0.05464483913220608, 0.0004756774597931725),
        }}),
}


def headlines(command: str, result) -> dict:
    """The estimates a study reports as its answer: name -> (estimate, se)."""
    if command.startswith("converge-"):
        return {f"eps={p['eps']:g}": (p["estimate"], p["se"])
                for p in result.payload["pairs"]}
    if command == "ibp":
        return {side: (result.payload[side]["estimate"], result.payload[side]["se"])
                for side in ("lhs", "rhs")}
    if command == "kernel-bound":
        lines = result.files["kernel_bound.csv"].splitlines()[2:]
        rows = [tuple(float(v) for v in line.split(",")) for line in lines]
        return {f"y={round(y, 6) + 0.0:g}": (dens, se) for y, dens, se, _ in rows}
    raise KeyError(command)


def flagged_fraction(command: str, result, paths: int) -> float:
    if command == "ibp":
        return result.payload["lhs"]["excluded"] / paths
    return result.payload["flagged"] / paths
