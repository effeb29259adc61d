"""Benchmark of the xlab pipeline stages, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one process, one caller, each stage waiting
for the previous one. The run sets the workload up several times (reporting
the median set-up time), then repeats whole passes of the workload until the
next pass would end after ``--seconds``, checking every pass's outputs
against the first. With ``--trace 1`` passes alternate untraced and traced;
traced passes run with the functions named in ``drive.TRACE_TARGETS``
rebound to record spans.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json without tracing, its per-layer metrics with tracing. The line
before it carries the environment and every metric under the names used in
``perfbench/metrics.json``, each with its unit.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

SETUP_REPEATS = 5
HERE = Path(__file__).resolve().parent


class Ledger:
    """Operations attempted and failed: every stage and every check is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


class Pass:
    """Context handed to one workload pass: stage timing, checks, scratch
    directories. With a tracer, each stage is also a top-level span."""

    def __init__(self, ledger: Ledger, tracer, workdir: Path):
        self.ledger = ledger
        self.tracer = tracer
        self.workdir = workdir
        self.stages: dict[str, float] = {}
        self.failed_stage: str | None = None

    @contextmanager
    def stage(self, name: str):
        self.ledger.attempted += 1
        start = perf_counter()
        try:
            with self.tracer.span("stage." + name) if self.tracer else nullcontext():
                yield
        except Exception:
            self.ledger.failed += 1
            self.ledger.failures.append("stage " + name)
            self.failed_stage = name
            raise
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + perf_counter() - start

    def check(self, name: str, ok: bool) -> None:
        self.ledger.check(name, ok)

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        path.mkdir(parents=True, exist_ok=True)
        return path


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def import_program(root: Path):
    """Import xlab from the checkout's own ``src``; None if it is not there."""
    src = root / "src"
    if not (src / "xlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import xlab

    if Path(xlab.__file__).resolve().parent != (src / "xlab").resolve():
        return None
    return xlab


def run_pass(workload, inputs, ledger, tracer, workdir: Path, reference):
    """One pass; returns its record, or None if it raised."""
    ctx = Pass(ledger, tracer, workdir)
    first_span = len(tracer.spans) if tracer else 0
    start = perf_counter()
    try:
        result = workload.run_pass(inputs, ctx)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        if ctx.failed_stage is None:
            ledger.check("pass raised outside a stage", False)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["wall_s"] = perf_counter() - start
    result["stages"] = ctx.stages
    result["spans"] = (first_span, len(tracer.spans)) if tracer else None
    if reference is not None:
        label = "traced pass" if tracer else "pass"
        ledger.check(f"{label} outputs equal the first (untraced) pass", result["fingerprint"] == reference)
    return result


def layer_metrics(names, passes, tracer, extra) -> dict:
    """Per-layer values of each traced pass, medians across passes."""
    per_pass = [_pass_layers(tracer, p["spans"], p["wall_s"]) for p in passes]
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        else:
            out[name] = statistics.median(values.get(name, 0.0) for values in per_pass)
    return out


def _pass_layers(tracer, bounds, wall: float) -> dict:
    lo, hi = bounds
    spans = tracer.spans[lo:hi]
    selfs = tracer.self_times(spans, lo)
    v: dict[str, float] = {}

    def add(key, x):
        v[key] = v.get(key, 0.0) + x

    top = 0.0
    forwarded = scored = 0
    for s, self_s in zip(spans, selfs):
        add(s.name + ".s", s.duration)
        add(s.name + ".self_s", self_s)
        add(s.name + ".calls", 1)
        for key, x in (s.info or {}).items():
            add(f"{s.name}.{key}", x)
        if s.parent is None:
            top += s.duration
        elif s.name == "model.forward" and tracer.spans[s.parent].name == "evaluator.sliding_logprobs":
            add("evaluator.windows", s.info["rows"])
            forwarded += s.info["positions"]
        if s.name == "evaluator.sliding_logprobs":
            scored += s.info["scored"]
    v["model.gemm_gflop"] = v.get("model.loss_and_grads.gflop", 0.0)
    lag = v.get("model.loss_and_grads.s", 0.0)
    v["model.gemm_gflop_s"] = v["model.gemm_gflop"] / lag if lag else 0.0
    v["model.logits_itemsize"] = max(
        (s.info["itemsize"] for s in spans if s.name == "model.forward"), default=0
    )
    v["evaluator.scored_per_computed"] = scored / forwarded if forwarded else 0.0
    v["trace.accounted_share"] = top / wall
    return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if import_program(root) is None:
        print(f"error: no xlab package under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = json.loads((HERE / "metrics.json").read_text())

    import drive
    from spans import Tracer

    if args.workload not in drive.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(drive.WORKLOADS)}")
    workload = drive.WORKLOADS[args.workload]
    size = drive.SIZES[args.size]
    ledger = Ledger()
    tracer = Tracer() if args.trace else None

    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        tmp = Path(tmp)
        setup_times = []
        for k in range(SETUP_REPEATS):
            setup_dir = tmp / f"setup{k}"
            setup_dir.mkdir()
            start = perf_counter()
            inputs = workload.setup(size, args.seed, setup_dir)
            setup_times.append(perf_counter() - start)

        # with tracing, passes alternate untraced and traced, so the overhead
        # ratio compares passes made under the same machine conditions
        passes: list[dict] = []
        start = perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install(drive.TRACE_TARGETS)
            try:
                result = run_pass(
                    workload, inputs, ledger, tracer if traced else None,
                    tmp / f"pass{len(passes)}", passes[0]["fingerprint"] if passes else None,
                )
            finally:
                if traced:
                    tracer.uninstall()
            if result is None:
                break
            passes.append(result)
            enough = tracer is None or len(passes) >= 2
            if enough and perf_counter() - start + result["wall_s"] > args.seconds:
                break

        plain = [p for p in passes if p["spans"] is None]
        if not plain:
            print(f"error: no pass completed; failures: {ledger.failures}", file=sys.stderr)
            return 1
        issue = dict(workload.summary(plain))
        issue.update({
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_ratio": ledger.failed / ledger.attempted,
        })
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        aliases = names["end_to_end"][args.workload]
        issue_units = {**names["units"], **units, **{v: units[k] for k, v in aliases.items()}}
        info_metrics = {k: {"value": v, "unit": issue_units[k]} for k, v in issue.items()}
        if tracer is not None:
            traced_passes = [p for p in passes if p["spans"] is not None]
            if not traced_passes:
                print(f"error: no traced pass completed; failures: {ledger.failures}", file=sys.stderr)
                return 1
            extra = dict(workload.layer_extras(inputs))
            extra["trace_overhead"] = (
                statistics.median(p["wall_s"] for p in traced_passes) / issue["wall_s"]
            )
            wanted = [m["name"] for m in spec["per_layer"]]
            values = layer_metrics(wanted, traced_passes, tracer, extra)
            out_dir = root / ".perfbench-trace"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            wanted = [m["name"] for m in spec["end_to_end"]]
            values = {k: issue[aliases.get(k, k)] for k in wanted}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in wanted}

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "size": args.size,
        "passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_repeats": SETUP_REPEATS, "setup_s": setup_times,
        "metrics": info_metrics, "failures": ledger.failures,
        "missing_spans": sorted(set(tracer.missing)) if tracer else [],
    }))
    print(json.dumps({
        "correct": ledger.failed == 0, "attempted": ledger.attempted,
        "failed": ledger.failed, "metrics": metrics,
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
