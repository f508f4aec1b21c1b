"""Self-tests of the end-to-end benchmark (tiny inputs, a few seconds each).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests/bench_selftest.py -q

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

run.setup_paths()

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str, seed: int = 3):
    """A workload small enough that one pass or cycle takes well under 1 s."""
    if name == "stream-reduce-zipf":
        return workloads.StreamReduceZipf(seed, elements=1 << 16, chunk=1 << 12)
    if name == "stream-zip":
        return workloads.StreamZip(seed, elements=1 << 16, chunk=1 << 12)
    if name == "batch-reduce-proc":
        return workloads.BatchReduceProc(seed, sizes=(1 << 12, 1 << 13))
    return workloads.ServiceFaulty(seed)


def expected_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result = run.measure(tiny(name), 0.3, trace)
    assert result["correct"], result["notes"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["notes"]
    expected = expected_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])


class _PlantedWrongValue(workloads.StreamReduceZipf):
    """Adds 1 to one accepted output value before the audit sees it."""

    def audit(self, outputs_per_pe, verdicts_per_pe) -> None:
        keys, values = outputs_per_pe[0][0]
        planted = values.copy()
        planted[0] += 1
        outputs_per_pe[0][0] = (keys, planted)
        super().audit(outputs_per_pe, verdicts_per_pe)


def test_planted_wrong_reduce_output_raises_fail_rate():
    workload = _PlantedWrongValue(5, elements=1 << 16, chunk=1 << 12)
    result = run.measure(workload, 0.3, trace=True)
    assert result["failed"] >= 1
    assert not result["correct"]
    assert result["metrics"]["fail_rate"]["value"] > 0


def _stuck_program(comm):
    with workloads._stoppable():
        while True:
            time.sleep(0.001)


def test_a_job_past_its_deadline_is_stopped_and_counted_failed():
    n = 1 << 12
    workload = workloads.BatchReduceProc(3, sizes=(n,))
    ctx = workloads.Context(workloads.PES, backend=workload.backend)
    t0 = time.perf_counter()
    results, why = workload._spmd(ctx, _stuck_program, n, None, ())
    elapsed = time.perf_counter() - t0
    assert results is None
    assert "deadline" in why
    # SIGTERM stopped the job, not the kill that follows it.
    assert elapsed < workloads.batch_deadline_s(n) + workloads.BATCH_KILL_S / 2
    assert workloads.shm_segments() <= workload.shm_before


def _traced_entry_points() -> dict:
    from repro.comm.communicator import Comm
    from repro.core.streams import CheckerStream, StreamedKV
    from repro.dataflow import streaming
    from repro.kernels import get_kernels
    from repro.service import windows

    return {
        "Comm.allreduce": Comm.__dict__["allreduce"],
        "StreamedKV.fold": StreamedKV.__dict__["fold"],
        "CheckerStream.settle": CheckerStream.__dict__["settle"],
        "streaming.settle_reduce_window": streaming.settle_reduce_window,
        "windows.settle_reduce_window": windows.settle_reduce_window,
        "kernels.weighted_bincount": get_kernels().weighted_bincount,
        "workloads.reduce_by_key": workloads.reduce_by_key,
    }


def test_span_wrappers_are_removed_after_the_traced_run():
    before = _traced_entry_points()
    tracer = Tracer()
    with tracer:
        during = _traced_entry_points()
    assert during["Comm.allreduce"] is not before["Comm.allreduce"]
    assert during["windows.settle_reduce_window"] is not before["windows.settle_reduce_window"]
    run.measure(tiny("stream-reduce-zipf"), 0.3, trace=True)
    assert _traced_entry_points() == before


@pytest.mark.parametrize("name", ["stream-reduce-zipf", "batch-reduce-proc", "service-faulty"])
def test_per_pe_self_times_plus_other_equal_wall_time(name):
    workload = tiny(name)
    run.prepare(workload, 0.3)
    untraced = run.run_phase(workload, 0.3)
    run.prepare(workload, 0.3)
    tracer = Tracer()
    traced = run.run_phase(workload, 0.3, tracer)
    per_pe = tracer.per_pe()
    assert set(per_pe) == ({0} if name == "service-faulty" else {0, 1})
    for entry in per_pe.values():
        assert entry["self"] > 0
        assert entry["self"] + entry["other"] == pytest.approx(entry["wall"], rel=1e-9)
    # The reported per-layer self times partition the traced time as well.
    metrics = run.layer_metrics(workload, tracer, untraced, traced, workload.tally)
    covered = sum(
        m["value"] for k, m in metrics.items()
        if k.endswith(".self_s") or k in ("service.submit.wait_s", "trace.other_s")
    )
    wall = sum(entry["wall"] for entry in per_pe.values()) / traced.units
    assert covered == pytest.approx(wall, rel=1e-9)
