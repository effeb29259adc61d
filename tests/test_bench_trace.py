"""The benchmark's trace table must name functions that exist.

``perfbench/drive.py`` lists, in ``TRACE_TARGETS``, the functions a traced
benchmark run rebinds. The tracer reports a target that no longer exists as
missing instead of failing, so a rename in ``xlab`` would otherwise make a
per-layer metric read 0 without any error. This test only reads
``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("drive", "spans"):
        sys.modules.pop(name, None)


def test_every_trace_target_exists(perfbench_on_path):
    import drive
    from spans import Tracer

    tracer = Tracer()
    tracer.install(drive.TRACE_TARGETS)
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
