"""xlab needs numpy alone: no module of ``src/xlab`` imports SciPy, ``pyproject.toml``
lists numpy as the one dependency, and a process that imports every ``xlab`` module,
fits a power law and matches tokens has loaded no ``scipy`` module, so it never pays
for SciPy and its own OpenBLAS. SciPy is a test-only oracle."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import importlib, json, pkgutil, sys
import numpy as np
import xlab

names = [m.name for m in pkgutil.iter_modules(xlab.__path__)]
for name in names:
    importlib.import_module("xlab." + name)
fit = xlab.scaling.fit_power_law([(t, 10.0 * t**-0.5 + 15.0) for t in np.geomspace(1e3, 1e6, 10)])
h = np.random.default_rng(0).standard_normal((2, 6, 8))
pairs = xlab.alignment.match_tokens([h[0]], [h[0][::-1]])
print(json.dumps({"names": names, "b": fit.b, "pairs": pairs,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_importing_every_module_fitting_and_matching_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    assert {"alignment", "scaling", "tokenizer", "trainer"} <= set(seen["names"])
    assert abs(seen["b"] - 0.5) < 1e-6
    assert seen["pairs"] == [[i, 5 - i] for i in range(6)]
    assert seen["scipy"] == []


def test_no_xlab_module_imports_scipy_and_numpy_is_the_one_dependency():
    imports = []
    for path in sorted((ROOT / "src" / "xlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    assert imports and [(f, m) for f, m in imports if m.split(".")[0] == "scipy"] == []
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0].split("=")[0].strip() for d in project["dependencies"]] == ["numpy"]
