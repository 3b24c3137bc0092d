"""Golden digests: the bytes every study writes at small fixed configs.

A refactor that claims to keep behaviour must keep these SHA-256 digests.
A change that moves a number on purpose must say which digest moved and
why, and record the new value here.  From the repository root,

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

(or without PYTHONPATH where sdem is installed) prints the current
digests of the named cases, every case when none is named, in ``GOLDEN``'s
layout, to paste over the entries that moved.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdem.flow import BLOCK
from sdem.kernel import _CHUNK
from sdem.harness import ExperimentConfig, run_command

LOG = {"name": "log_example", "params": {"beta": 1.0}}
OU = {"name": "ou", "params": {"lam": 1.0}}
BM = {"name": "bm", "params": {"n": 1}}
BM2 = {"name": "bm", "params": {"n": 2}}
SHIFT12 = {"name": "const_shift", "params": {"matrix": [[1.0, 0.5]], "shift": [0.3]}}

CASES = {
    "converge-flow": dict(field_spec=LOG, eps=(0.2, 0.1, 0.05), T=0.25, steps=25,
                          paths=600, seed=11, options={"p": 2.0, "plot_data": True}),
    "converge-derivative": dict(field_spec=LOG, eps=(0.2, 0.1, 0.05), T=0.25, steps=25,
                                paths=600, seed=11, options={"p": 2.0}),
    "gradient": dict(field_spec=LOG, T=0.25, steps=50, paths=2000, seed=12,
                     x0=(0.3,), options={"mollify_eps": 0.1, "t": 0.25, "f": "sin"}),
    "kernel-bound": dict(field_spec=BM, T=1.0, steps=8, paths=BLOCK + 3000, seed=13,
                         workers=2, options={"t": 1.0, "plot_data": True}),
    "condition-g": dict(field_spec=LOG, paths=10_000, seed=14,
                        options={"sigma": 0.5, "T0": 1.0}),
    "ibp": dict(field_spec=OU, T=0.2, steps=20, paths=BLOCK + 1000, seed=15,
                workers=2, options={"t": 0.2, "F": "sin"}),
    "moment": dict(field_spec=LOG, T=0.25, steps=50, paths=2000, seed=16,
                   options={"mollify_eps": 0.1, "p": 2.0}),
    # n = 2 with a direction off both axes: the 2x2 right inverse (the `inv`
    # branch) and the stacked 2x2 products of the derivative flow
    "gradient-bm2": dict(field_spec=BM2, T=0.25, steps=50, paths=2000, seed=17,
                         x0=(0.3, -0.2), options={"t": 0.25, "f": "sin",
                                                  "v0": [0.6, -0.8]}),
    # n = 1 with m = 2: two noise columns per path, the only built-in with
    # m > n, and the minimum-norm right inverse of a non-square diffusion
    "ibp-shift12": dict(field_spec=SHIFT12, T=0.2, steps=20, paths=BLOCK + 1000, seed=18,
                        workers=2, options={"t": 0.2, "F": "sin"}),
    # the only case whose density estimate spans several chunks, the last
    # one partial, so its partial sums go over the workers
    "kernel-bound-chunks": dict(field_spec=BM, T=1.0, steps=8, paths=2 * _CHUNK + 4321,
                                seed=19, workers=2, options={"t": 1.0}),
}

# a case named COMMAND-SUFFIX runs COMMAND at another config
COMMAND_OF = {"gradient-bm2": "gradient", "ibp-shift12": "ibp",
              "kernel-bound-chunks": "kernel-bound"}

GOLDEN = {
    "condition-g": {
        "condition_g.json":
            "c7e18b715eecc8073feaf0057b190c84d31895aa5723436ba62d5cdccdf430fe",
    },
    "converge-derivative": {
        "converge_derivative.csv":
            "f54364bcbf394e62e2574340cfe60da3d5ffce57e5bc42ba1253b8e330ff5e34",
        "converge_derivative.json":
            "86950d1b144bbc28e1af2307a157ecb5368d252731d85f1843e2829189e8184c",
    },
    "converge-flow": {
        "converge_flow.csv":
            "fdd39da5a150e2e7cff95b6e22776492d10f7d2ab1864874c7bf46af2b4e4e1c",
        "converge_flow.dat":
            "532b84db1299fb4681667432b494edcc38c424c8197d3419869bac0f192fe345",
        "converge_flow.json":
            "b2819d1b7a5f571a97493b3767642639ad9f6fbbd2bc449863635e947d78c2a0",
    },
    "gradient": {
        "gradient.json":
            "9a85ad0a927eb437acb1769677b1624975df783595e37b5f99bf857b6e2fec93",
    },
    "gradient-bm2": {
        "gradient.json":
            "e8a0ae846a39628a1c94ed2dfc19f5562603a447d5a597301840be5635afa694",
    },
    "ibp": {
        "ibp.json":
            "b46e1b28a2a0d1974f2a7ddac9919c2d89fc6dfa15e2474df3575bf4fdfe3c3c",
    },
    "ibp-shift12": {
        "ibp.json":
            "168b0beeba29122ca65db17b75ab48d7fdd4da28767cd663d10e23153ec7e7bc",
    },
    "kernel-bound": {
        "kernel_bound.csv":
            "7e7055491d55120ac5515c258b682f55d236dddb88901ccd3bc525ed765f2e06",
        "kernel_bound.dat":
            "448f60aa34ab01fa052fb091aff2db3caf13c7d033651da406c26b737aa5ad3f",
        "kernel_bound.json":
            "009d5671c9d4bffae2e8b9b11903b783ff8249f7f51ab175079fef02d82b32f8",
    },
    "kernel-bound-chunks": {
        "kernel_bound.csv":
            "af5ef231bcf7bcca8c0ad32be4662af4d8aac054416397839173d86af5e68c68",
        "kernel_bound.json":
            "d0716f5739ebab55e3da9d6288e89e8ba2ca720282416dad82f7ac215c8a0245",
    },
    "moment": {
        "moment.json":
            "173c61f356c15c4efaf22ee93c5908db0d52eaa20cdb128e5af01a9205cac7fc",
    },
}


def digests(case, **overrides):
    res = run_command(COMMAND_OF.get(case, case), ExperimentConfig(**{**CASES[case], **overrides}))
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(res.files.items())}


def layout(table):
    """The entries of a {case: {file: digest}} table as ``GOLDEN`` lays them out."""
    lines = []
    for case, files in table.items():
        lines.append(f'    "{case}": {{')
        for name, digest in files.items():
            lines += [f'        "{name}":', f'            "{digest}",']
        lines.append("    },")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_study_outputs_match_golden_digests(case):
    assert digests(case) == GOLDEN[case]


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("case", sorted(CASES))
def test_one_block_lockstep_digests_do_not_depend_on_workers(case, workers):
    # every case: a one-block run is cut into row slices over the workers,
    # several blocks go over the workers whole, and so do the chunks of a
    # density estimate
    assert digests(case, workers=workers) == GOLDEN[case]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_digests_do_not_depend_on_blas_threads(threads):
    # the engine's matmul reductions must not change a byte when OpenBLAS
    # splits them across threads; a fresh process picks up the pin
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": str(here.parent / "src")}
    out = subprocess.run([sys.executable, __file__], env=env, cwd=here,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out == layout({c: GOLDEN[c] for c in sorted(CASES)})


if __name__ == "__main__":
    cases = sys.argv[1:] or sorted(CASES)
    unknown = [case for case in cases if case not in CASES]
    if unknown:
        sys.exit(f"unknown cases {unknown}; the cases are {sorted(CASES)}")
    print(layout({case: digests(case) for case in cases}), end="")
