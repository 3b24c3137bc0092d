"""Golden digests: the bytes every study writes at small fixed configs.

A refactor that claims to keep behaviour must keep these SHA-256 digests.
A change that moves a number on purpose must say which digest moved and
why, and record the new value here.
"""

import hashlib

import pytest

from sdem.flow import BLOCK
from sdem.harness import ExperimentConfig, run_command

LOG = {"name": "log_example", "params": {"beta": 1.0}}
OU = {"name": "ou", "params": {"lam": 1.0}}
BM = {"name": "bm", "params": {"n": 1}}

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
}

GOLDEN = {
    "condition-g": {
        "condition_g.json":
            "c7e18b715eecc8073feaf0057b190c84d31895aa5723436ba62d5cdccdf430fe",
    },
    "converge-derivative": {
        "converge_derivative.csv":
            "2118cc1be1c785f523b7520c69d42f9fc2130bcfe277ef5bbfc2ef5c56e51ecb",
        "converge_derivative.json":
            "af3c23abfc2d430f8af149f39edd5464e0162e13cc8f7c1a8c0333ea3adcef7a",
    },
    "converge-flow": {
        "converge_flow.csv":
            "77fb4e4fbfe7768b76b516f744a19461279dd6b6fa55c72cfcbbd40aa5dbda33",
        "converge_flow.dat":
            "340428f051400886809df6942f752aa04dce35b5f9cfa74ee05f9f6098acc1ba",
        "converge_flow.json":
            "1b2eeeed80170e36fd1239f789de0b781055682ee41ce017849dca4ddc2da111",
    },
    "gradient": {
        "gradient.json":
            "5ce172dcc50938a5ce721df324d7f6b35f2dc459b87274b9680e1afd67b63d9c",
    },
    "ibp": {
        "ibp.json":
            "b46e1b28a2a0d1974f2a7ddac9919c2d89fc6dfa15e2474df3575bf4fdfe3c3c",
    },
    "kernel-bound": {
        "kernel_bound.csv":
            "7e7055491d55120ac5515c258b682f55d236dddb88901ccd3bc525ed765f2e06",
        "kernel_bound.dat":
            "448f60aa34ab01fa052fb091aff2db3caf13c7d033651da406c26b737aa5ad3f",
        "kernel_bound.json":
            "009d5671c9d4bffae2e8b9b11903b783ff8249f7f51ab175079fef02d82b32f8",
    },
    "moment": {
        "moment.json":
            "d3946f4f39ccfc25b2f60f012cd076cddb4aa63292011da5a36b2cc97c09be18",
    },
}


def digests(command):
    res = run_command(command, ExperimentConfig(**CASES[command]))
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(res.files.items())}


@pytest.mark.parametrize("command", sorted(CASES))
def test_study_outputs_match_golden_digests(command):
    assert digests(command) == GOLDEN[command]
