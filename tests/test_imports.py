"""What `import sdem` loads: numpy alone, with scipy only for the family
that uses it; and what its modules import of each other: public names
alone."""

import ast
import os
import subprocess
import sys
import textwrap

import sdem

# runs in a fresh interpreter: the test modules import scipy.integrate into
# the pytest process
_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    from sdem import ExperimentConfig, builtin_field, mollify_field, run_command

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    builtin_field("const_shift", matrix=[[2.0, 0.5], [0.0, 1.0]], shift=[0.0, 1.0])
    for fs in (builtin_field("bm", n=2), builtin_field("ou", lam=1.0)):
        smoothed = mollify_field(fs, 0.1)
        smoothed.A(1, np.full((3, fs.n), 0.3))
        smoothed.DA(0, np.full((3, fs.n), 0.3))
    ou = {"name": "ou", "params": {"lam": 1.0}}
    bm = {"name": "bm", "params": {"n": 1}}
    for command, spec, paths, options in (
            ("ibp", ou, 2000, {}), ("kernel-bound", bm, 10_000, {}),
            ("moment", ou, 2000, {}), ("moment", ou, 2000, {"mollify_eps": 0.1})):
        doc = {"field": spec, "grid": {"T": 0.25, "steps": 20}, "paths": paths, "seed": 3,
               "options": options}
        assert run_command(command, ExperimentConfig.from_dict(doc)).ok, command
    assert scipy_modules() == [], scipy_modules()

    log = mollify_field(builtin_field("log_example", beta=1.0), 0.1)
    log.A(1, np.full((3, 1), 0.3))
    assert "scipy.special" in sys.modules
    assert "scipy.integrate" not in sys.modules
    print("ok")
""")


def test_scipy_is_loaded_only_by_the_family_that_uses_it():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdem.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def private_imports(src_dir):
    """(module, name) for each underscore name a module under src_dir
    imports from another sdem module, relatively or by absolute name."""
    found = []
    for name in sorted(os.listdir(src_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src_dir, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "sdem"):
                found += [(name, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    return found


def test_no_module_imports_another_modules_private_names():
    # the names modules share (the input rule, the workspace, G's sum, the
    # stacked product) are public; an underscore name stays in its module
    assert private_imports(os.path.dirname(os.path.abspath(sdem.__file__))) == []
