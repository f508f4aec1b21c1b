"""Streaming checker path vs the batch path — the chunked-feed price.

The acceptance gate: feeding the §4 checker 64k-element chunks through
:class:`~repro.core.streams.SumCheckerStream` (each chunk hashed into the
running tables, one settle) must stay within 1.5× of the batch checker's
per-element cost at n = 10^6.  Three sections, written to
``BENCH_streaming.json``:

1. **Sum stream** (gated ≤1.5×): ``SumCheckerStream`` fed ``n / 64k``
   input chunks + the asserted output, settled once, vs
   ``SumAggregationChecker.check_local`` on the materialized arrays.
   Verdicts asserted identical.
2. **Multi-seed stream** (gated ≤1.15×): the same comparison at T = 8
   seeds through ``MultiSeedSumCheckerStream`` (default ``fused="auto"``
   — each side picks chunk-at-a-time table folding or condensed
   aggregates from its observed duplicate ratio) vs the batched
   multi-seed checker; the forced ``fused=True`` time is reported
   alongside so the adaptive choice stays observable.
3. **Windowed DIA** (reported): ``StreamingKeyValueDIA.
   reduce_by_key_checked`` (whole pipeline, chunked, windowed settle)
   vs ``checked_reduce_by_key`` on the materialized input.
4. **All-unique StreamedKV** (reported): the adaptive-compaction
   micro-bench — folding disjoint-key chunks must defer merges instead
   of re-copying every element O(log chunks) times.

``REPRO_BENCH_SMOKE=1`` shrinks everything and skips the artifact/gate.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from conftest import best_of, run_once, smoke_mode, write_artifact

from repro.core.multiseed import MultiSeedSumChecker
from repro.core.params import SumCheckConfig
from repro.core.streams import (
    MultiSeedSumCheckerStream,
    StreamedKV,
    SumCheckerStream,
)
from repro.core.sum_checker import SumAggregationChecker
from repro.dataflow.pipeline import checked_reduce_by_key
from repro.dataflow.streaming import StreamingKeyValueDIA
from repro.util.rng import derive_seed, derive_seed_array
from repro.workloads.kv import aggregate_reference, sum_workload

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"
_CONFIG = SumCheckConfig.parse("8x16 Tab64 m15")
_CHUNK = 1 << 16
_NUM_SEEDS = 8
_MAX_STREAM_RATIO = 1.5
_MAX_MULTISEED_RATIO = 1.15


def _chunks(keys, values, chunk):
    return [
        (keys[i : i + chunk], values[i : i + chunk])
        for i in range(0, keys.size, chunk)
    ]


def _stream_once(stream_cls, checker, chunks, out_k, out_v):
    stream = stream_cls(checker)
    for k, v in chunks:
        stream.feed_input(k, v)
    stream.feed_output(out_k, out_v)
    return stream.settle()


def _sum_cell(keys, values, out_k, out_v, chunks, benchmark=None) -> dict:
    checker = SumAggregationChecker(_CONFIG, seed=11)
    batch = checker.check_local((keys, values), (out_k, out_v))
    streamed = _stream_once(SumCheckerStream, checker, chunks, out_k, out_v)
    assert batch.accepted == streamed.accepted is True

    batch_s = best_of(
        lambda: checker.check_local((keys, values), (out_k, out_v)), 3
    )
    run = lambda: _stream_once(  # noqa: E731
        SumCheckerStream, checker, chunks, out_k, out_v
    )
    if benchmark is not None:
        import time

        t0 = time.perf_counter()
        run_once(benchmark, run)
        stream_s = min(time.perf_counter() - t0, best_of(run, 2))
    else:
        stream_s = best_of(run, 3)
    n = keys.size
    return {
        "section": "sum-stream",
        "config": _CONFIG.label(),
        "elements": int(n),
        "chunk": _CHUNK,
        "chunks": len(chunks),
        "batch_seconds": batch_s,
        "stream_seconds": stream_s,
        "batch_ns_per_element": batch_s / n * 1e9,
        "stream_ns_per_element": stream_s / n * 1e9,
        "stream_over_batch": stream_s / batch_s,
    }


def _multiseed_cell(keys, values, out_k, out_v, chunks) -> dict:
    seeds = derive_seed_array(0x57E, "ms", np.arange(_NUM_SEEDS, dtype=np.uint64))
    checker = MultiSeedSumChecker(_CONFIG, seeds)
    batch = checker.check_local((keys, values), (out_k, out_v))

    def stream_once(fused):
        stream = MultiSeedSumCheckerStream(checker, fused=fused)
        for k, v in chunks:
            stream.feed_input(k, v)
        stream.feed_output(out_k, out_v)
        return stream

    for fused in ("auto", True, False):
        settled = stream_once(fused).settle()
        assert (
            batch.details["per_seed_accepted"]
            == settled.details["per_seed_accepted"]
        ), f"fused={fused}"
    probe = stream_once("auto")
    modes = {"input": probe._input.mode, "output": probe._output.mode}

    batch_s = best_of(
        lambda: checker.check_local((keys, values), (out_k, out_v)), 3
    )
    stream_s = best_of(lambda: stream_once("auto").settle(), 3)
    fused_s = best_of(lambda: stream_once(True).settle(), 2)
    n = keys.size
    return {
        "section": "multiseed-stream",
        "config": _CONFIG.label(),
        "num_seeds": _NUM_SEEDS,
        "elements": int(n),
        "chunk": _CHUNK,
        "auto_modes": modes,
        "batch_seconds": batch_s,
        "stream_seconds": stream_s,
        "fused_stream_seconds": fused_s,
        "stream_over_batch": stream_s / batch_s,
        "fused_over_batch": fused_s / batch_s,
    }


def _streamed_kv_cell(n) -> dict:
    """All-unique feed micro-bench: adaptive compaction must defer merges."""
    keys = np.arange(n, dtype=np.uint64)
    values = np.ones(n, dtype=np.int64)
    chunks = _chunks(keys, values, _CHUNK)

    def feed():
        kv = StreamedKV()
        for k, v in chunks:
            kv.fold(k, v)
        return kv

    kv = feed()
    feed_s = best_of(lambda: feed(), 2)
    settle_s = best_of(lambda: feed().merged(), 2)
    return {
        "section": "streamedkv-all-unique",
        "elements": int(n),
        "chunk": _CHUNK,
        "chunks": len(chunks),
        "feed_seconds": feed_s,
        "feed_plus_merge_seconds": settle_s,
        "compactions": kv.compactions,
        "deferred_segments": len(kv._segments),
        "final_merge_factor": kv._merge_factor,
        "feed_ns_per_element": feed_s / n * 1e9,
    }


def _windowed_cell(keys, values, chunks) -> dict:
    def windowed():
        dia = StreamingKeyValueDIA.from_chunks(None, chunks)
        return dia.reduce_by_key_checked(
            _CONFIG, seed=7, chunks_per_window=4
        )

    run = windowed()
    assert run.accepted and run.stats.windows == -(-len(chunks) // 4)
    batch_s = best_of(
        lambda: checked_reduce_by_key(None, keys, values, _CONFIG, seed=7), 2
    )
    stream_s = best_of(windowed, 2)
    n = keys.size
    return {
        "section": "windowed-dia",
        "config": _CONFIG.label(),
        "elements": int(n),
        "chunk": _CHUNK,
        "chunks_per_window": 4,
        "windows": run.stats.windows,
        "elements_fed": run.stats.elements_fed,
        "merged_overhead_ratio": run.stats.overhead_ratio,
        "batch_pipeline_seconds": batch_s,
        "stream_pipeline_seconds": stream_s,
        "stream_over_batch": stream_s / batch_s,
    }


def test_streaming_throughput(benchmark, overhead_elements):
    n = overhead_elements if smoke_mode() else max(overhead_elements, 10**6)
    keys, values = sum_workload(n, seed=derive_seed(0x57E, "wl"))
    out_k, out_v = aggregate_reference(keys, values)
    chunks = _chunks(keys, values, _CHUNK)

    cells = [
        _sum_cell(keys, values, out_k, out_v, chunks, benchmark=benchmark),
        _multiseed_cell(keys, values, out_k, out_v, chunks),
        _windowed_cell(keys, values, chunks),
        _streamed_kv_cell(n),
    ]

    write_artifact(
        _ARTIFACT,
        {
            "primary": "sum-stream",
            "max_allowed_stream_over_batch": _MAX_STREAM_RATIO,
            "max_allowed_multiseed_stream_over_batch": _MAX_MULTISEED_RATIO,
            "cells": cells,
        },
    )
    benchmark.extra_info.update(
        stream_over_batch=cells[0]["stream_over_batch"],
        artifact=str(_ARTIFACT),
    )
    print()
    for cell in cells:
        if "stream_over_batch" in cell:
            print(
                f"{cell['section']}: stream/batch = "
                f"{cell['stream_over_batch']:.3f}"
            )
        else:
            print(
                f"{cell['section']}: {cell['feed_ns_per_element']:.0f} "
                f"ns/element, {cell['compactions']} compactions"
            )
    if not smoke_mode():
        ratio = cells[0]["stream_over_batch"]
        assert ratio <= _MAX_STREAM_RATIO, (
            f"streaming sum checker costs {ratio:.2f}x the batch path per "
            f"element (allowed {_MAX_STREAM_RATIO}x at n={n}, chunk={_CHUNK})"
        )
        ms_ratio = cells[1]["stream_over_batch"]
        assert ms_ratio <= _MAX_MULTISEED_RATIO, (
            f"multi-seed stream costs {ms_ratio:.2f}x the batch path per "
            f"element (allowed {_MAX_MULTISEED_RATIO}x at n={n}, "
            f"chunk={_CHUNK}, T={_NUM_SEEDS})"
        )
