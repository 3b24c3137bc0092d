"""Golden digests: the bytes every study writes at small fixed configs.

A refactor that claims to keep behaviour must keep these SHA-256 digests.
A change that moves a number on purpose must say which digest moved and
why, and record the new value here.
"""

import hashlib
import json
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
            "5607206fb95ea2ccc6498ad45c92151f4f9feb4df01adbe50150de178e15286f",
        "converge_derivative.json":
            "f0b81f9c8a156fb8b87b73df7d7970e0edb9187eb0fb4aadf377d64f925fc046",
    },
    "converge-flow": {
        "converge_flow.csv":
            "c14792c5652b9129b3d4aeba610a98b7da551b3e11d5f1150ce84f6b274cc052",
        "converge_flow.dat":
            "7895ec7d6fda4cc81366f17a5fd2cf622f744d4309bb167a764823f6899d6483",
        "converge_flow.json":
            "d9ae14bf26928a8e7445aaf0df2ce55c045a8bbcd875f468e59d244ab0611bee",
    },
    "gradient": {
        "gradient.json":
            "10d03de66d41490515d6656331bbaacf1639e7e273a97c6e4f499ca6cc705a6c",
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
            "fd3d8e0e8aa298a4773c0b07cc24ef7df892b4f126c0e678cadb26e67df554ec",
    },
}


def digests(case, **overrides):
    res = run_command(COMMAND_OF.get(case, case), ExperimentConfig(**{**CASES[case], **overrides}))
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(res.files.items())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_study_outputs_match_golden_digests(case):
    assert digests(case) == GOLDEN[case]


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("case", sorted(CASES))
def test_one_block_lockstep_digests_do_not_depend_on_workers(case, workers):
    # every case, not only the one-block lockstep runs whose levels the
    # workers spread over lanes: several blocks go over the workers, and so
    # do the chunks of a density estimate
    assert digests(case, workers=workers) == GOLDEN[case]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_digests_do_not_depend_on_blas_threads(threads):
    # the engine's matmul/tensordot reductions must not change a byte when
    # OpenBLAS splits them across threads; a fresh process picks up the pin
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    commands = sorted(CASES)
    script = ("import json, sys, test_golden as g; "
              "print(json.dumps({c: g.digests(c) for c in sys.argv[1:]}))")
    out = subprocess.run([sys.executable, "-c", script, *commands], env=env, cwd=here,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert json.loads(out) == {c: GOLDEN[c] for c in commands}
