"""Smoke test of the benchmark, with every workload at the tiny size.

    python3 -m pytest perfbench/test_smoke.py

It runs the benchmark command from the repository root, as the benchmark
expects to be run, and checks the output contract. Every metric of
BENCHMARK.json is emitted with its unit. Every check passes. Every count
metric of a traced run repeats exactly across two runs of one seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "GFLOP")] + [
    "tokenizer.word_repeat_share", "evaluator.scored_per_computed",
]

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
from spans import Target, Tracer  # noqa: E402


def run(workload, trace, seed=5, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


def check_result(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    info, result = parse(run(workload, trace=0))
    check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    issue_names = set(NAMES["end_to_end"][workload].values()) | {
        "setup_s", "wall_s", "peak_rss_mb", "fail_ratio"
    }
    assert issue_names <= set(info["metrics"])
    assert info["metrics"]["fail_ratio"]["value"] == 0
    assert {"python", "numpy", "blas", "blas_threads", "nproc"} <= set(info["environment"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_every_count(workload):
    first, second = (parse(run(workload, trace=1)) for _ in range(2))
    for info, result in (first, second):
        check_result(result, SPEC["per_layer"])
        assert info["missing_spans"] == []
        assert 0.85 < result["metrics"]["trace.accounted_share"]["value"] <= 1.0
    for name in COUNTS:
        assert first[1]["metrics"][name] == second[1]["metrics"][name], name


def test_every_per_layer_metric_names_what_it_should_move():
    moves = NAMES["per_layer_moves"]
    assert set(moves) == {m["name"] for m in SPEC["per_layer"]}
    for targets in moves.values():
        for t in targets:
            assert t["workload"] in WORKLOADS


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_trace_target_is_reported_not_fatal():
    tracer = Tracer()
    tracer.install([
        Target("gone.function", "xlab.model", "no_such_function"),
        Target("gone.module", "xlab.no_such_module", "f"),
        Target("gone.method", "xlab.trainer", "Adam.no_such_method"),
    ])
    assert tracer.missing == ["gone.function", "gone.module", "gone.method"]
    tracer.uninstall()


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    self_outer, self_inner = tracer.self_times(tracer.spans)
    assert inner.parent == 0 and outer.parent is None
    assert self_outer == pytest.approx(outer.duration - inner.duration)
    assert self_inner == inner.duration
