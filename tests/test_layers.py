"""The package imports downward only.

Each module of ``dnls`` imports from the layers below it, all at module
level: errors, grid, geometry and snapshots, then observables, rays and
scattering, then solver, config and cli. The one exception is the ray tracer,
which ``dnls rays`` loads inside ``cli._cmd_rays`` so that importing the CLI
leaves it out. Observables integrate recorded series with their own
trapezoid rule, so nothing in the package imports ``scipy.integrate``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from dnls.observables import _cumulative_trapezoid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dnls"

LAYER = {
    "errors": 0,
    "grid": 1,
    "geometry": 2,
    "snapshots": 2,
    "observables": 3,
    "rays": 3,
    "scattering": 3,
    "solver": 4,
    "config": 5,
    "cli": 6,
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _package_imports(node: ast.ImportFrom) -> list[str]:
    """Sibling modules named by a relative ``from`` import."""
    if node.level != 1:
        return []
    if node.module is not None:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names if alias.name in LAYER]


def test_import_dnls_cli_loads_the_layers_without_the_tracer_or_scipy_integrate():
    code = ("import json, sys; import dnls.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'dnls' or m.startswith(('dnls.', 'scipy.integrate')))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        "dnls", "dnls.cli", "dnls.config", "dnls.errors", "dnls.geometry",
        "dnls.grid", "dnls.observables", "dnls.scattering", "dnls.snapshots",
        "dnls.solver",
    ]


def test_no_import_inside_a_function_but_the_ray_tracer():
    found = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(name, fn.name, getattr(node, "module", None))
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == [("cli", "_cmd_rays", "rays")]


def test_every_module_imports_only_from_the_layers_below_it():
    modules = _modules()
    assert sorted(modules) == sorted([*LAYER, "__init__"])
    bad = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                absolute = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                absolute = [node.module or ""] if node.level == 0 else []
                if name != "__init__":
                    bad += [(name, target) for target in _package_imports(node)
                            if not LAYER[target] < LAYER[name]]
            else:
                continue
            bad += [(name, target) for target in absolute
                    if target.startswith(("dnls", "scipy.integrate"))]
    assert bad == []


@pytest.mark.parametrize("length", [0, 1, 2, 3, 1001])
def test_trapezoid_has_the_bits_of_scipy(length):
    rng = np.random.default_rng(length)
    t = np.cumsum(rng.uniform(0.001, 0.1, length))  # irregular stamps
    v = rng.standard_normal(length)
    got = _cumulative_trapezoid(v, t)
    if length == 0:  # scipy refuses an empty series; the running integral is empty
        assert got.shape == (0,)
    else:
        assert np.array_equal(got, cumulative_trapezoid(v, t, initial=0))
