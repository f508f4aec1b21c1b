"""End-to-end benchmark of the checked pipelines, the service and the process
backend.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stream-reduce-zipf --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` measures half the time untraced and half traced and prints
every per-layer metric instead (self times and counts per unit of work,
plus ``trace.overhead``, traced over untraced wall time).  The line before
the last records the environment; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Spans of a traced run
are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_TRIALS = 3


def setup_paths() -> None:
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


# -- measurement helpers -------------------------------------------------------


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def import_seconds(modules) -> float:
    """Import time of the workload's modules in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import "
        + ", ".join(modules)
        + "; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def setup_seconds(workload) -> float:
    """Median of several set-ups: imports plus construction and a warm-up window."""
    samples = []
    for _ in range(SETUP_TRIALS):
        imports = import_seconds(workload.modules)
        t0 = time.perf_counter()
        workload.warm_up()
        samples.append(imports + time.perf_counter() - t0)
    return statistics.median(samples)


# -- phases --------------------------------------------------------------------


def prepare(workload, seconds: float) -> None:
    """Generate inputs whose size depends on the phase length up front."""
    hook = getattr(workload, "prepare", None)
    if hook is not None:
        hook(seconds)


def run_phase(workload, seconds: float, tracer=None):
    if tracer is None:
        return workload.run(seconds)
    with tracer:
        return workload.run(seconds, tracer)


def trace_overhead(untraced, traced) -> float:
    """Median over shared work keys of traced over untraced work time."""
    shared = [k for k in untraced.work_s if k in traced.work_s]
    if not shared:
        return 0.0
    return statistics.median(traced.work_s[k] / untraced.work_s[k] for k in shared)


def layer_metrics(workload, tracer, untraced, traced, tally) -> dict:
    """Every per-layer metric, per unit of work of the traced phase."""
    from repro.kernels import KERNEL_NAMES
    from workloads import latency_ms

    units = traced.units
    self_s, calls, counts = tracer.totals()
    per_pe = tracer.per_pe()
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def seconds(name, layer):
        put(name, self_s.get(layer, 0.0) / units, "s")

    def count(name, value):
        put(name, value / units, "count")

    seconds("streams.fold.self_s", "streams.fold")
    count("streams.fold.elements", counts.get("streams.fold.n", 0))
    seconds("streams.settle.self_s", "streams.settle")
    seconds("sum_checker.local_tables.self_s", "sum_checker.local_tables")
    count("sum_checker.local_tables.keys", counts.get("sum_checker.local_tables.n", 0))
    seconds("sum_checker.pack.self_s", "sum_checker.pack")
    seconds("zip_checker.fingerprint.self_s", "zip_checker.fingerprint")
    count(
        "zip_checker.fingerprint.elements",
        counts.get("zip_checker.fingerprint.n", 0),
    )
    seconds("hashing.self_s", "hashing")
    for name in KERNEL_NAMES:
        seconds(f"kernels.{name}.self_s", f"kernels.{name}")
        count(f"kernels.{name}.calls", calls.get(f"kernels.{name}", 0))
    seconds("ops.local_aggregate.self_s", "ops.local_aggregate")
    seconds("ops.reduce_by_key.self_s", "ops.reduce_by_key")
    put("ops.reduce_by_key.bytes", counts.get("ops.reduce_by_key.bytes", 0) / units, "bytes")
    seconds("ops.zip_arrays.self_s", "ops.zip_arrays")
    put("ops.zip_arrays.bytes", counts.get("ops.zip_arrays.bytes", 0) / units, "bytes")
    seconds("comm.self_s", "comm")
    count("comm.messages", counts.get("comm.messages", 0))
    for name in ("comm.bytes", "comm.wire_bytes", "comm.checker_bytes"):
        put(name, counts.get(name, 0) / units, "bytes")
    spawn = traced.extra.get("spawn_ms")
    teardown = traced.extra.get("teardown_ms")
    put("context.spawn_ms", statistics.median(spawn) if spawn else 0.0, "ms")
    put("context.teardown_ms", statistics.median(teardown) if teardown else 0.0, "ms")
    seconds("streaming.window.self_s", "streaming.window")
    count("streaming.windows", calls.get("streaming.window", 0))
    seconds("localize.self_s", "localize")
    count("localize.calls", calls.get("localize", 0))
    count("localize.rounds", counts.get("localize.rounds", 0))
    seconds("repair.self_s", "repair")
    count("repair.attempts", counts.get("repair.attempts", 0))
    repairs = calls.get("repair", 0)
    put(
        "repair.healed_ratio",
        counts.get("repair.healed", 0) / repairs if repairs else 0.0,
        "ratio",
    )
    seconds("service.submit.wait_s", "service.submit")
    lags = traced.extra.get("lags_s")
    put("service.backlog_max", traced.extra.get("backlog_max", 0), "count")
    put("loadgen.lag_p95_ms", latency_ms(lags)[1], "ms")
    count("loadgen.polls", traced.extra.get("polls", 0))
    put("trace.other_s", sum(pe["other"] for pe in per_pe.values()) / units, "s")
    put("trace.overhead", trace_overhead(untraced, traced), "ratio")
    bytes_max = untraced.comm_bytes_pe_max
    put(
        "comm_bytes_pe_max",
        statistics.median(bytes_max) if bytes_max else 0,
        "bytes",
    )
    put("fail_rate", tally.failed / tally.attempted if tally.attempted else 0.0, "ratio")
    return out


# -- environment ---------------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload) -> dict:
    import numpy as np

    from repro.kernels import active_tier

    return {
        "workload": workload.name,
        "backend": workload.backend,
        "seed": workload.seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_tier": active_tier(),
    }


# -- entry point ---------------------------------------------------------------


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result object plus its ``environment``."""
    from spans import Tracer
    from workloads import release_freed_memory

    first = seconds / 2 if trace else seconds
    setup_s = setup_seconds(workload)
    prepare(workload, first)
    release_freed_memory()
    baseline_mb = rss_mb()
    if not trace:
        phase = run_phase(workload, seconds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "elements_per_s": {"value": phase.elements_per_s, "unit": "1/s"},
            "check_overhead": {"value": phase.check_overhead, "unit": "ratio"},
            "peak_rss_mb": {
                "value": peak_rss_mb(children=workload.backend == "processes") - baseline_mb,
                "unit": "MB",
            },
            "latency_p50_ms": {"value": phase.latency_ms[0], "unit": "ms"},
            "latency_p95_ms": {"value": phase.latency_ms[1], "unit": "ms"},
        }
        tracer = None
    else:
        untraced = run_phase(workload, first)
        tracer = Tracer()
        traced = run_phase(workload, seconds - first, tracer)
    finish = getattr(workload, "finish", None)
    if finish is not None:
        finish()
    tally = workload.tally
    if tracer is not None:
        metrics = layer_metrics(workload, tracer, untraced, traced, tally)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    return {
        "environment": environment(workload),
        "notes": tally.notes,
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    setup_paths()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    result = measure(workload, args.seconds, bool(args.trace))
    print(json.dumps({
        "environment": result.pop("environment"),
        "notes": result.pop("notes"),
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
