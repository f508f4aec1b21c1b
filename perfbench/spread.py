"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        [--workloads stream-zip ...] [--trace 0] [--out runs.json]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to a third
of the metric's bound in ``BENCHMARK.json``.  Runs are sequential, each a
separate ``perfbench/run.py`` process with ``run_seconds`` from the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    # The command names ``python3``; run it under this interpreter.
    cmd = [sys.executable, *spec["command"][1:]]
    cmd += [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            result = run_once(spec, workload, seed, args.trace)
            runs[workload].append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
        names = runs[workload][0]["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            bound = bounds.get(name)
            if len(values) < 2 or statistics.median(values) == 0:
                print(f"  {name:<34} median {statistics.median(values):.6g}")
                continue
            med, q1, q3, rel = spread(values)
            limit = f" (a third of the bound: {bound / 3:.3f})" if bound else ""
            print(
                f"  {name:<34} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                f"spread {rel:.3f}{limit}",
                flush=True,
            )
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
