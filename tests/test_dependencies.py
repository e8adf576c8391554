import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import icnsim

SRC = Path(__file__).resolve().parent.parent / "src"
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_no_module_imports_numpy():
    # icnsim needs only the standard library: importing every module must not load numpy.
    modules = sorted(f"icnsim.{m.name}" for m in pkgutil.iter_modules(icnsim.__path__))
    assert "icnsim.metrics" in modules and "icnsim.cli" in modules
    script = ("import importlib, sys\n"
              f"for name in {modules!r}:\n"
              "    importlib.import_module(name)\n"
              "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy'))\n")
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_oracles_import_only_topology_and_protocol():
    # The reference implementations must not share code with what they check:
    # of icnsim they may read only the graph and the protocol constants.
    names = set()
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(f"icnsim.{alias.name}" if node.module == "icnsim" else node.module
                         for alias in node.names)
    assert {name for name in names if name.partition(".")[0] == "icnsim"} == {"icnsim.topology",
                                                                             "icnsim.protocol"}
