"""Importing ``xlab`` loads no SciPy: only ``alignment.match_tokens`` and
``scaling.fit_power_law`` use it, and they import it at their first call, so a
training or BPE process never pays for SciPy and its own OpenBLAS."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import importlib, json, pkgutil, sys
import numpy as np
import xlab

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

names = [m.name for m in pkgutil.iter_modules(xlab.__path__)]
for name in names:
    importlib.import_module("xlab." + name)
after_import = scipy_modules()
fit = xlab.scaling.fit_power_law([(t, 10.0 * t**-0.5 + 15.0) for t in np.geomspace(1e3, 1e6, 10)])
print(json.dumps({"names": names, "after_import": after_import, "b": fit.b,
                  "after_fit": scipy_modules()}))
"""


def test_importing_every_module_loads_no_scipy_until_a_fit():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)
    assert {"alignment", "scaling", "tokenizer", "trainer"} <= set(seen["names"])
    assert seen["after_import"] == []
    assert abs(seen["b"] - 0.5) < 1e-6
    assert "scipy.optimize" in seen["after_fit"]
