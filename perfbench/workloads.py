"""The four workloads of the end-to-end benchmark.

Each workload generates its inputs from the seed before any timing, runs
the program only through the entry points a user calls, audits every
output, and reports raw samples that :mod:`run` turns into metrics:

* ``stream-reduce-zipf`` — ``StreamingKeyValueDIA.reduce_by_key_checked``
  (default config) on ``Context(2)`` threads, §7.1 Zipf keys;
* ``stream-zip`` — ``StreamingDIA.zip_checked`` on ``Context(2)`` threads,
  S2 split 1:3 so every window's exchange moves a quarter of S2;
* ``service-faulty`` — one single-PE ``CheckedStreamService`` with a
  ``count_by_key`` and a ``sum`` tenant scripted by
  ``repro.service.chaos.build_tenants``, fed by an open-loop generator;
* ``batch-reduce-proc`` — ``checked_reduce_by_key`` jobs, each its own
  ``Context(2, backend="processes").run``, under a per-job deadline.

A closed-loop workload repeats *rounds* until its time is up: one checked
pass over the whole input, then (untraced only) one pass of the operation
alone over the same input.  The batch workload runs *rounds* of nine job
sizes, and the service workload runs back-to-back *segments*, each with
freshly scripted tenants, so memory stays bounded however long it runs.
A phase reports per *unit* (pass, round or segment) of work.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import multiprocessing
import os
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.comm import Context, SPMDError
from repro.core.params import SumCheckConfig
from repro.dataflow.ops.reduce_by_key import local_aggregate, reduce_by_key
from repro.dataflow.pipeline import checked_reduce_by_key
from repro.dataflow.streaming import StreamingDIA, StreamingKeyValueDIA
from repro.service.chaos import Op, SoakConfig, build_tenants
from repro.service.daemon import CheckedStreamService
from repro.util.rng import default_generator, derive_seed
from repro.workloads.kv import aggregate_reference, sum_workload

PES = 2
CHUNK = 1 << 16
CHUNKS_PER_WINDOW = 8
#: Elements per closed-loop pass (per stream), split evenly over the PEs.
STREAM_ELEMENTS = 1 << 22
#: ``checked_reduce_by_key`` has no default config; this is the streaming one.
BATCH_CONFIG = SumCheckConfig(iterations=8, d=16, rhat=1 << 15)
BATCH_SIZES = tuple(1 << e for e in range(12, 21))
#: Job latency counts the sizes up to this one: a job this small is mostly
#: the fixed cost of a ``Context.run``, and its frames fit the ring, so the
#: figure compares commits whether or not the larger sizes complete.
BATCH_LATENCY_MAX = 1 << 15
#: Seconds one job of every size took at the commit that introduced the
#: benchmark, deadline waits included; a run holds ``seconds`` of them.
BATCH_SWEEP_S = 2.0
#: Untimed jobs run this long before a phase: the first jobs after set-up
#: run up to 3x slower.
BATCH_WARM_S = 0.5
#: Seconds after ``SIGTERM`` at a job's deadline before its workers are killed.
BATCH_KILL_S = 1.0
SERVICE_CHUNK = 1 << 14
SERVICE_CHUNKS_PER_WINDOW = 4
SERVICE_FAULT_RATE = 0.2
#: Share of faults that persist through repair (and end in quarantine).
#: At 0.05 the quarantined windows are ~1 % of all, so the service's p95
#: falls among repaired windows instead of on the edge of the quarantined
#: group, where it would swing with the count of persistent faults.
SERVICE_PERSISTENT_SHARE = 0.05
#: Open-loop send rate of the service generator, chunks per second over
#: both tenants: about half the closed-loop capacity measured at the
#: commit that introduced the benchmark (see RESULTS.md).
SERVICE_RATE = 240.0
#: Length of one service segment (its tenants' inputs live in memory).
SERVICE_SEGMENT_S = 5.0
#: The generator polls ``stats()`` at this fixed interval while it waits.
#: At 5 ms five polls would span exactly six sends, so a window's wait for
#: the poll that sees it settle could take only three values, and p50
#: would jump between them as the host's speed drifts; at 4.7 ms the waits
#: spread evenly over the interval.
POLL_S = 0.0047
#: A service window not settled this long after the last send missed its
#: deadline and counts as failed.
SERVICE_DRAIN_S = 30.0


def batch_deadline_s(elements: int) -> float:
    """Per-job deadline owned by the benchmark.

    At least twice what the job takes when its exchange does not deadlock
    (~30 ms plus ~0.27 us per element on two cores, measured with a ring
    large enough for every frame), and at least 100 ms.
    """
    return 0.1 + 0.5e-6 * elements


def latency_ms(latencies_s, cap_s: float = float("inf")) -> tuple[float, float]:
    """(p50, p95) in ms; a failed operation (``inf``) counts as ``cap_s``,
    so it misses any limit."""
    if not latencies_s:
        return 0.0, 0.0
    values = np.minimum(np.asarray(latencies_s, dtype=np.float64), cap_s)
    p50, p95 = np.percentile(values, [50, 95])
    return 1e3 * float(p50), 1e3 * float(p95)


def unit_latency_ms(units: list[tuple[list[float], float]]) -> tuple[float, float]:
    """Median over units of work of each unit's (p50, p95), in ms.

    ``units`` holds ``(latencies, cap_s)`` per pass or round.
    Now and then the host slows a whole unit twofold; pooled, its
    operations would set the p95 of a run, per unit they move one sample.
    """
    if not units:
        return 0.0, 0.0
    each = [latency_ms(latencies, cap) for latencies, cap in units]
    return (
        statistics.median(p50 for p50, _ in each),
        statistics.median(p95 for _, p95 in each),
    )


@dataclass
class Tally:
    """The output audit behind ``correct``, ``attempted`` and ``failed``."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, note: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note is not None and len(self.notes) < 20:
                self.notes.append(note)

    def wrong(self, note: str) -> None:
        """An output or verdict the one-sided guarantee forbids."""
        self.correct = False
        if len(self.notes) < 20:
            self.notes.append(note)


def _timed_feed(chunks, marks: list):
    """Yield ``chunks``, stamping when each is pulled and when the feed ends.

    Pulls are sequential, so window ``w`` runs from the pull of its first
    chunk to the pull of the next window's first chunk (or the end).
    """
    for chunk in chunks:
        marks.append(time.perf_counter())
        yield chunk
    marks.append(time.perf_counter())


def _window_spans(marks_per_pe: list[list[float]]) -> list[tuple[float, float]]:
    """(first pull on any PE, last end on any PE) of every window."""
    n_windows = (len(marks_per_pe[0]) - 1) // CHUNKS_PER_WINDOW
    spans = []
    for w in range(n_windows):
        lo, hi = w * CHUNKS_PER_WINDOW, (w + 1) * CHUNKS_PER_WINDOW
        spans.append((
            min(m[lo] for m in marks_per_pe),
            max(m[hi] for m in marks_per_pe),
        ))
    return spans


def _pe_bytes_max(meters) -> int:
    return max(m.bytes_sent + m.bytes_received for m in meters)


@dataclass
class Phase:
    """What one measured phase (traced or not) reports."""

    units: int = 0
    elements_per_s: float = 0.0
    #: Zero in a traced phase, which does not run the operation alone.
    check_overhead: float = 0.0
    #: (p50, p95) of the per-operation (window or job) latency.
    latency_ms: tuple[float, float] = (0.0, 0.0)
    #: Comparable work times, keyed alike in every phase of a workload;
    #: ``trace.overhead`` is the median ratio over the shared keys.
    work_s: dict = field(default_factory=dict)
    comm_bytes_pe_max: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Closed-loop streaming workloads
# ---------------------------------------------------------------------------


def _stream_result(run, marks, tracer):
    if tracer is not None:
        tracer.end_track()
    split = (run.stats.operation_seconds, run.stats.checker_seconds)
    return run.outputs, [bool(v.accepted) for v in run.verdicts], marks, split


def _reduce_program(comm, chunks, seed, tracer):
    if tracer is not None:
        tracer.begin_track(comm.rank)
    marks: list[float] = []
    run = StreamingKeyValueDIA.from_chunks(
        comm, _timed_feed(chunks, marks)
    ).reduce_by_key_checked(seed=seed, chunks_per_window=CHUNKS_PER_WINDOW)
    return _stream_result(run, marks, tracer)


def _reduce_op_program(comm, chunks):
    """The operation alone, as ``settle_reduce_window`` runs it per window.

    Returns the PE's (start, end) times.
    """
    start = time.perf_counter()
    for w0 in range(0, len(chunks), CHUNKS_PER_WINDOW):
        parts = [local_aggregate(k, v) for k, v in chunks[w0:w0 + CHUNKS_PER_WINDOW]]
        keys, values = local_aggregate(
            np.concatenate([k for k, _ in parts]),
            np.concatenate([v for _, v in parts]),
        )
        reduce_by_key(comm, keys, values)
    return start, time.perf_counter()


def _zip_program(comm, s1_chunks, s2_chunks, seed, tracer):
    if tracer is not None:
        tracer.begin_track(comm.rank)
    marks: list[float] = []
    first = StreamingDIA.from_chunks(comm, _timed_feed(s1_chunks, marks))
    second = StreamingDIA.from_chunks(comm, iter(s2_chunks))
    run = first.zip_checked(second, seed=seed, chunks_per_window=CHUNKS_PER_WINDOW)
    return _stream_result(run, marks, tracer)


class _ClosedLoop:
    """Shared round loop of the two threaded streaming workloads."""

    backend = "threads"

    def __init__(self, seed: int):
        self.seed = seed
        self.ctx = Context(PES, backend=self.backend)
        self.tally = Tally()
        self._expected: dict = {}
        self._pass = 0

    def warm_up(self) -> None:
        """Context construction plus one window through the checked path."""
        ctx = Context(PES, backend=self.backend)
        ctx.run(
            self.program,
            per_rank_args=self.window_args(0),
            common_args=(derive_seed(self.seed, "warm-up"), None),
        )

    def run(self, seconds: float, tracer=None) -> Phase:
        """Rounds until ``seconds`` pass; see :meth:`overhead`."""
        phase = Phase()
        pass_s: list[float] = []
        latencies: list = []
        ratios: list[float] = []
        split = [0.0, 0.0]
        stop = time.perf_counter() + seconds
        while True:
            seed = derive_seed(self.seed, "pass", self._pass)
            self._pass += 1
            try:
                results = self.ctx.run(
                    self.program, per_rank_args=self.args, common_args=(seed, tracer)
                )
            except SPMDError as exc:
                for _ in range(self.windows):
                    self.tally.record(False, f"{self.name}: pass raised {exc}")
                if time.perf_counter() >= stop:
                    break
                continue
            phase.comm_bytes_pe_max.append(_pe_bytes_max(self.ctx.meters))
            marks = [r[2] for r in results]
            pass_s.append(max(m[-1] for m in marks) - min(m[0] for m in marks))
            windows = [end - begin for begin, end in _window_spans(marks)]
            latencies.append((windows, float("inf")))
            phase.units += 1
            self.audit([r[0] for r in results], [r[1] for r in results])
            for r in results:
                split[0] += r[3][0]
                split[1] += r[3][1]
            del results
            if tracer is None and self.op_program is not None:
                spans = self.ctx.run(self.op_program, per_rank_args=self.args)
                op_s = max(end for _, end in spans) - min(start for start, _ in spans)
                ratios.append(pass_s[-1] / op_s)
            if time.perf_counter() >= stop:
                break
        if pass_s:
            phase.elements_per_s = self.elements / statistics.median(pass_s)
            phase.work_s = {"pass": statistics.median(pass_s)}
        phase.latency_ms = unit_latency_ms(latencies)
        if tracer is None:
            phase.check_overhead = self.overhead(ratios, split)
        return phase

    @staticmethod
    def overhead(ratios, split) -> float:
        """Median over rounds of the checked pass over the operation alone."""
        return statistics.median(ratios)

    def audit(self, outputs_per_pe, verdicts_per_pe) -> None:
        for w in range(len(outputs_per_pe[0])):
            accepted = all(v[w] for v in verdicts_per_pe)
            matches = self.matches([o[w] for o in outputs_per_pe], w)
            if not accepted:
                self.tally.wrong(f"{self.name}: window {w} rejected a correct result")
            elif not matches:
                self.tally.wrong(f"{self.name}: window {w} accepted a wrong output")
            self.tally.record(accepted and matches, f"{self.name}: window {w} failed")


class StreamReduceZipf(_ClosedLoop):
    name = "stream-reduce-zipf"
    modules = ("repro.dataflow.streaming",)
    program = staticmethod(_reduce_program)
    op_program = staticmethod(_reduce_op_program)

    def __init__(self, seed: int, elements: int = STREAM_ELEMENTS, chunk: int = CHUNK):
        super().__init__(seed)
        per_pe = elements // PES // chunk
        # One sum_workload call per chunk keeps generation's scratch small,
        # so the peak-memory baseline is not set by input generation.
        self.chunks = [
            [
                sum_workload(chunk, seed=derive_seed(seed, "zipf", pe, c))
                for c in range(per_pe)
            ]
            for pe in range(PES)
        ]
        self.args = [(chunks,) for chunks in self.chunks]
        self.elements = elements
        self.windows = per_pe // CHUNKS_PER_WINDOW

    def window_args(self, w: int) -> list:
        cut = slice(w * CHUNKS_PER_WINDOW, (w + 1) * CHUNKS_PER_WINDOW)
        return [(chunks[cut],) for chunks in self.chunks]

    def matches(self, outputs, w: int) -> bool:
        if w not in self._expected:
            pairs = [pair for args in self.window_args(w) for pair in args[0]]
            self._expected[w] = aggregate_reference(
                np.concatenate([k for k, _ in pairs]),
                np.concatenate([v for _, v in pairs]),
            )
        expected = self._expected[w]
        keys = np.concatenate([k for k, _ in outputs])
        values = np.concatenate([v for _, v in outputs])
        order = np.argsort(keys, kind="stable")
        return np.array_equal(keys[order], expected[0]) and np.array_equal(
            values[order], expected[1]
        )


class StreamZip(_ClosedLoop):
    name = "stream-zip"
    modules = ("repro.dataflow.streaming",)
    program = staticmethod(_zip_program)
    #: No operation-alone pass: see :meth:`overhead`.
    op_program = None
    #: Share of every S2 chunk held by each PE (S2 is split 1:3).
    S2_SHARES = (1, 3)

    def __init__(self, seed: int, elements: int = STREAM_ELEMENTS, chunk: int = CHUNK):
        super().__init__(seed)
        per_pe = elements // PES // chunk
        total = sum(self.S2_SHARES)

        def column(stream, pe, c, n):
            rng = default_generator(derive_seed(seed, "zip", stream, pe, c))
            return rng.integers(0, 1 << 62, n, dtype=np.int64)

        self.s1 = [[column(1, pe, c, chunk) for c in range(per_pe)] for pe in range(PES)]
        self.s2 = [
            [
                column(2, pe, c, chunk * PES * share // total)
                for c in range(per_pe)
            ]
            for pe, share in enumerate(self.S2_SHARES)
        ]
        self.args = list(zip(self.s1, self.s2))
        self.elements = 2 * elements
        self.windows = per_pe // CHUNKS_PER_WINDOW

    @staticmethod
    def overhead(ratios, split) -> float:
        """The pipeline's own split: (operation + checker) over operation.

        A pass of the zip alone moves memory for ~25 ms, and that time
        swings twofold between processes with the allocator's page faults;
        the operation time the pipeline records inside its windows holds
        steady, so this workload reads the overhead from there.
        """
        return (split[0] + split[1]) / split[0]

    def window_args(self, w: int) -> list:
        cut = slice(w * CHUNKS_PER_WINDOW, (w + 1) * CHUNKS_PER_WINDOW)
        return [(s1[cut], s2[cut]) for s1, s2 in self.args]

    def matches(self, outputs, w: int) -> bool:
        """Output columns equal the aligned input windows, in rank order."""
        args = self.window_args(w)
        first = np.concatenate([f for f, _ in outputs])
        second = np.concatenate([s for _, s in outputs])
        return np.array_equal(
            first, np.concatenate([c for s1, _ in args for c in s1])
        ) and np.array_equal(
            second, np.concatenate([c for _, s2 in args for c in s2])
        )


# ---------------------------------------------------------------------------
# Batch jobs on the process backend
# ---------------------------------------------------------------------------


class DeadlineExpired(BaseException):
    """Raised in a job's worker when the job's deadline stops it.

    Not an ``Exception``, so no handler in the program catches it.
    """


def _expire(signum, frame):
    raise DeadlineExpired("stopped at the job's deadline")


@contextlib.contextmanager
def _stoppable():
    """In a job's worker: ``SIGTERM`` stops the job until its result is ready.

    Once the job function is done, ``SIGTERM`` is ignored: a worker stopped
    while it sends its result back would leave half a message in the result
    pipe, and the parent would wait for the rest forever.
    """
    signal.signal(signal.SIGTERM, _expire)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)


def _batch_program(comm, keys, values, seed, tracer, job):
    with _stoppable():
        if tracer is not None:
            tracer.reset_for_child()
            tracer.begin_track(comm.rank, window=job)
        entry = time.perf_counter()
        out_k, out_v, verdict, _ = checked_reduce_by_key(
            comm, keys, values, BATCH_CONFIG, seed=seed
        )
        leave = time.perf_counter()
        tracks = None
        if tracer is not None:
            tracer.end_track()
            tracks = tracer.export_tracks()
    return out_k, out_v, bool(verdict.accepted), entry, leave, tracks


def _batch_op_program(comm, keys, values):
    with _stoppable():
        return reduce_by_key(comm, keys, values)


def shm_segments() -> set[str]:
    """Shared-memory segments of ``multiprocessing.shared_memory``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _median_by_size(jobs, key: str) -> dict:
    """Median of ``key`` per job size, over the jobs that recorded it."""
    samples: dict = {}
    for job in jobs:
        if key in job:
            samples.setdefault(job["n"], []).append(job[key])
    return {n: statistics.median(v) for n, v in samples.items()}


class BatchReduceProc:
    name = "batch-reduce-proc"
    backend = "processes"
    modules = ("repro.dataflow.pipeline", "repro.comm.proc_backend")

    def __init__(self, seed: int, sizes: tuple[int, ...] = BATCH_SIZES):
        self.seed = seed
        self.sizes = sizes
        self.tally = Tally()
        self._round = 0
        self.shm_before = shm_segments()
        self.warm_input = self.job_input(derive_seed(seed, "warm-up"), sizes[0])

    @staticmethod
    def job_input(seed: int, n: int):
        """Uniform 62-bit keys (all unique in practice) and small values."""
        rng = default_generator(seed)
        keys = rng.integers(0, 1 << 62, n, dtype=np.uint64)
        values = rng.integers(1, 1 << 20, n, dtype=np.int64)
        return keys, values

    def _spmd(self, ctx, program, n, args, common):
        """One deadline-bounded ``Context.run``.

        Returns ``(results, None)``, or ``(None, why)`` when the job raised
        or missed its deadline.  At the deadline the job's worker processes
        get ``SIGTERM``, which stops a job still running (``Context.run``
        raises ``SPMDError``); a worker that does not end within
        :data:`BATCH_KILL_S` more is killed.
        """
        expired = threading.Event()

        def stop_workers(kill: bool) -> None:
            expired.set()
            for proc in multiprocessing.active_children():
                if kill:
                    proc.kill()
                else:
                    proc.terminate()

        deadline = batch_deadline_s(n)
        timers = [
            threading.Timer(deadline, stop_workers, (False,)),
            threading.Timer(deadline + BATCH_KILL_S, stop_workers, (True,)),
        ]
        for timer in timers:
            timer.start()
        why = None
        try:
            results = ctx.run(program, per_rank_args=args, common_args=common)
        except SPMDError as exc:
            results, why = None, f"raised {exc}"
        finally:
            for timer in timers:
                timer.cancel()
                timer.join()
        if expired.is_set():
            return None, f"missed its {deadline:.2f} s deadline"
        return results, why

    def warm_up(self) -> None:
        ctx = Context(PES, backend=self.backend)
        keys, values = self.warm_input
        args = list(zip(ctx.split(keys), ctx.split(values)))
        self._spmd(ctx, _batch_program, keys.size, args, (0, None, -1))

    def run(self, seconds: float, tracer=None) -> Phase:
        """``rounds`` rounds, each one job of every size, smallest first.

        Cycling through the sizes spreads each size's jobs over the whole
        phase, so a spell of slow host time moves a few jobs of every size
        instead of all jobs of one.  A unit of work is one round.
        """
        until = time.perf_counter() + BATCH_WARM_S
        while time.perf_counter() < until:
            self.warm_up()
        rounds = max(1, round(seconds / BATCH_SWEEP_S))
        phase = Phase(units=rounds)
        phase.extra = {"jobs": [], "spawn_ms": [], "teardown_ms": []}
        bytes_per_pe = np.zeros(PES, dtype=np.int64)
        first = self._round
        self._round += rounds
        for r in range(first, first + rounds):
            for n in self.sizes:
                job = len(phase.extra["jobs"])
                keys, values = self.job_input(derive_seed(self.seed, "job", r, n), n)
                ctx = Context(PES, backend=self.backend)
                args = list(zip(ctx.split(keys), ctx.split(values)))
                common = (derive_seed(self.seed, "checker", r, n), tracer, job)
                t0 = time.perf_counter()
                results, why = self._spmd(ctx, _batch_program, n, args, common)
                t1 = time.perf_counter()
                record = {"n": n, "round": r, "ok": results is not None}
                phase.extra["jobs"].append(record)
                self.tally.record(results is not None, f"job of {n} (round {r}) {why}")
                if results is None:
                    continue
                record["wall_s"] = t1 - t0
                phase.extra["spawn_ms"].append(1e3 * (max(x[3] for x in results) - t0))
                phase.extra["teardown_ms"].append(1e3 * (t1 - max(x[4] for x in results)))
                bytes_per_pe += [m.bytes_sent + m.bytes_received for m in ctx.meters]
                if tracer is not None:
                    for x in results:
                        tracer.adopt_tracks(x[5])
                self.audit(keys, values, results)
                del results
                if tracer is None:
                    t2 = time.perf_counter()
                    op, _ = self._spmd(ctx, _batch_op_program, n, args, ())
                    t3 = time.perf_counter()
                    if op is not None:
                        record["op_wall_s"] = t3 - t2
        phase.comm_bytes_pe_max = [int(bytes_per_pe.max()) // rounds]
        # Timing covers completed jobs, through per-size medians: a size
        # that deadlocks only sometimes (2^16 elements sits at the ring's
        # capacity) then weighs the same whatever its completion count.
        # Its failures still count in ``failed``.
        timed = [j for j in phase.extra["jobs"] if j["ok"]]
        per_round: dict = {}
        for job in timed:
            if job["n"] <= BATCH_LATENCY_MAX:
                per_round.setdefault(job["round"], []).append(job["wall_s"])
        phase.latency_ms = unit_latency_ms(
            [(walls, float("inf")) for walls in per_round.values()]
        )
        checked = _median_by_size(timed, "wall_s")
        op = _median_by_size(timed, "op_wall_s")
        if checked:
            phase.elements_per_s = sum(checked) / sum(checked.values())
        if op:
            phase.check_overhead = sum(checked[n] for n in op) / sum(op.values())
        phase.work_s = checked
        return phase

    def audit(self, keys, values, results) -> None:
        out_k = np.concatenate([r[0] for r in results])
        out_v = np.concatenate([r[1] for r in results])
        order = np.argsort(out_k, kind="stable")
        ref_k, ref_v = aggregate_reference(keys, values)
        matches = np.array_equal(out_k[order], ref_k) and np.array_equal(
            out_v[order], ref_v
        )
        accepted = all(r[2] for r in results)
        if not accepted:
            self.tally.wrong(f"job of {keys.size} rejected a correct result")
        elif not matches:
            self.tally.wrong(f"job of {keys.size} accepted a wrong output")

    def finish(self) -> None:
        """No job may leave a shared-memory segment behind.

        Also stops (and waits for) the resource tracker process that
        ``multiprocessing.shared_memory`` started for this process.
        """
        leaked = shm_segments() - self.shm_before
        if leaked:
            self.tally.wrong(f"/dev/shm gained {len(leaked)} segment(s)")
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()


# ---------------------------------------------------------------------------
# The checked service under an open loop
# ---------------------------------------------------------------------------


class ServiceFaulty:
    name = "service-faulty"
    backend = "single PE (no comm)"
    modules = ("repro.service.chaos",)
    tenants = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.tally = Tally()
        self._scripts = None

    def soak(self, windows: int, seed: int) -> SoakConfig:
        return SoakConfig(
            tenants=self.tenants,
            windows_per_tenant=windows,
            chunks_per_window=SERVICE_CHUNKS_PER_WINDOW,
            chunk_size=SERVICE_CHUNK,
            fault_rate=SERVICE_FAULT_RATE,
            persistent_share=SERVICE_PERSISTENT_SHARE,
            seed=seed,
            ops=(Op.COUNT_BY_KEY, Op.SUM),
        )

    @staticmethod
    def segments(seconds: float) -> tuple[int, int]:
        """``(segments, windows per tenant and segment)`` for a phase."""
        count = max(1, round(seconds / SERVICE_SEGMENT_S))
        sends = SERVICE_RATE * seconds / count
        per_window = ServiceFaulty.tenants * SERVICE_CHUNKS_PER_WINDOW
        return count, max(2, int(sends // per_window))

    def scripts(self, segment: int, windows: int):
        """The scripted tenants (inputs, fault plans) of one segment."""
        return build_tenants(
            self.soak(windows, derive_seed(self.seed, "segment", segment))
        )

    def prepare(self, seconds: float) -> None:
        """Generate the first segment's inputs before the memory baseline."""
        self._scripts = self.scripts(0, self.segments(seconds)[1])

    def warm_up(self) -> None:
        """Service construction plus one window per tenant."""
        scripts = build_tenants(self.soak(1, derive_seed(self.seed, "warm-up")))
        service = CheckedStreamService()
        try:
            handles = [service.register(s.name, s.tenant_config()) for s in scripts]
            for handle, script in zip(handles, scripts):
                for chunk in script.window_chunks(0):
                    handle.submit(chunk)
        finally:
            service.shutdown(timeout=SERVICE_DRAIN_S)

    def run(self, seconds: float, tracer=None) -> Phase:
        """Segments of open-loop load, each on a fresh service.

        ``check_overhead`` is the service's own split of its windows'
        time, (operation + checker) over operation, as its tenants'
        ``CheckedRunStats`` record it; repair work is not in it.
        """
        count, windows = self.segments(seconds)
        phase = Phase(units=count)
        phase.extra = {"polls": 0, "backlog_max": 0, "lags_s": [], "latencies": []}
        totals = {"elements": 0, "open_s": 0.0, "op_s": 0.0, "checker_s": 0.0,
                  "clean": 0, "clean_settle_s": 0.0}
        for segment in range(count):
            scripts, self._scripts = self._scripts, None
            if scripts is None:
                release_freed_memory()
                scripts = self.scripts(segment, windows)
            self._segment(scripts, windows, tracer, phase, totals)
        phase.elements_per_s = totals["elements"] / totals["open_s"]
        phase.check_overhead = (totals["op_s"] + totals["checker_s"]) / totals["op_s"]
        phase.work_s = {"settle": totals["clean_settle_s"] / totals["clean"]}
        # Pooled over segments: per segment the ~3 quarantined windows of
        # ~300 would sit right at p95.
        phase.latency_ms = latency_ms(phase.extra["latencies"])
        return phase

    def _segment(self, scripts, windows, tracer, phase, totals) -> None:
        service = CheckedStreamService()
        try:
            handles = [service.register(s.name, s.tenant_config()) for s in scripts]
            loop = _OpenLoop(handles, scripts, windows)
            loop.run()
            # A failed window's latency counts as the whole segment.
            cap_s = time.perf_counter() - loop.first_due
            results = [service.result(s.name) for s in scripts]
        finally:
            service.shutdown(timeout=SERVICE_DRAIN_S)
        totals["open_s"] += loop.last_settle - loop.first_due
        latencies = phase.extra["latencies"]
        phase.extra["polls"] += loop.polls
        phase.extra["backlog_max"] = max(phase.extra["backlog_max"], loop.backlog_max)
        phase.extra["lags_s"] += loop.lags_s
        with _untraced(tracer):
            for t, (script, result) in enumerate(zip(scripts, results)):
                ok = self.audit(script, result, windows, loop.settled_at[t])
                for w in range(windows):
                    latencies.append(
                        loop.settled_at[t][w] - loop.due_last[t][w]
                        if ok[w] else cap_s
                    )
                    if ok[w] and w not in script.plans:
                        totals["clean"] += 1
                        totals["clean_settle_s"] += result.stats.settle_latencies[w]
                totals["elements"] += sum(ok) * SERVICE_CHUNKS_PER_WINDOW * SERVICE_CHUNK
                totals["op_s"] += result.stats.run.operation_seconds
                totals["checker_s"] += result.stats.run.checker_seconds

    def audit(self, script, result, windows: int, settled_at) -> list[bool]:
        """Per-window success, judged by ``TenantChaos.evaluate``.

        A window fails when it never settled before the drain deadline, a
        clean window was rejected, or a wrong output was accepted; a
        quarantined faulty window is the service doing its job.
        """
        report = script.evaluate(result)
        if result.error is not None:
            self.tally.wrong(f"{script.name}: {result.error}")
        if not report.within_allowance:
            self.tally.wrong(f"{script.name}: undetected faults beyond the allowance")
        if not report.repairs_bit_identical:
            self.tally.wrong(f"{script.name}: a repair is not bit-identical")
        if result.stats.chunks_shed:
            self.tally.wrong(f"{script.name}: {result.stats.chunks_shed} chunk(s) shed")
        ok = [
            w < len(result.window_history) and settled_at[w] is not None
            for w in range(windows)
        ]
        for w in report.mismatched_windows:
            ok[w] = False
        for w, record in enumerate(result.window_history):
            if w not in script.plans and not record.accepted:
                self.tally.wrong(f"{script.name}: clean window {w} rejected")
                ok[w] = False
        for w in range(windows):
            self.tally.record(ok[w], f"{script.name}: window {w} failed")
        return ok


def release_freed_memory() -> None:
    """Hand freed heap pages back to the OS (glibc's ``malloc_trim``).

    The allocator keeps freed 128 KiB chunks on its heap, so without this
    a service segment's inputs would stack on top of the last one's in
    ``peak_rss_mb``, and the memory baseline would hold stray garbage.
    """
    gc.collect()
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except AttributeError:  # not glibc
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def _untraced(tracer):
    """Suspend span recording on this thread (the benchmark's own audit)."""
    return tracer.suspended() if tracer is not None else contextlib.nullcontext()


class _OpenLoop:
    """One generator thread: sends on a fixed schedule, polls while waiting.

    Chunks go out window-major, round-robin over tenants, one every
    ``1 / SERVICE_RATE`` seconds.  Between sends the generator polls every
    tenant's ``stats()`` each :data:`POLL_S`; a window's latency runs from
    the due time of its last chunk to the first poll that sees the
    tenant's ``windows_settled`` pass it.
    """

    def __init__(self, handles, scripts, windows: int):
        self.handles = handles
        self.scripts = scripts
        self.windows = windows
        n = len(handles)
        self.due_last = [[0.0] * windows for _ in range(n)]
        self.settled_at: list[list[float | None]] = [
            [None] * windows for _ in range(n)
        ]
        self._seen = [0] * n
        self.polls = 0
        self.backlog_max = 0
        self.lags_s: list[float] = []
        self.first_due = 0.0
        self.last_settle = 0.0
        self._next_poll = 0.0

    def _poll(self) -> None:
        now = time.perf_counter()
        backlog = 0
        for t, handle in enumerate(self.handles):
            stats = handle.stats()
            backlog += stats.chunks_submitted - stats.chunks_ingested
            while self._seen[t] < min(stats.windows_settled, self.windows):
                self.settled_at[t][self._seen[t]] = now
                self.last_settle = now
                self._seen[t] += 1
        self.backlog_max = max(self.backlog_max, backlog)
        self.polls += 1
        # Fixed interval; slots missed while a send blocked are skipped,
        # not made up in a burst.
        self._next_poll += POLL_S
        if self._next_poll < now:
            self._next_poll = now + POLL_S

    def _wait_until(self, due: float) -> None:
        while True:
            now = time.perf_counter()
            if now >= self._next_poll:
                self._poll()
                continue
            if now >= due:
                return
            time.sleep(min(due, self._next_poll) - now)

    def run(self) -> None:
        interval = 1.0 / SERVICE_RATE
        start = time.perf_counter() + 0.01
        self.first_due = self._next_poll = start
        sends = 0
        for w in range(self.windows):
            for t, (handle, script) in enumerate(zip(self.handles, self.scripts)):
                for chunk in script.window_chunks(w):
                    due = start + sends * interval
                    sends += 1
                    self._wait_until(due)
                    self.lags_s.append(time.perf_counter() - due)
                    handle.submit(chunk)
                self.due_last[t][w] = due
        deadline = time.perf_counter() + SERVICE_DRAIN_S
        while min(self._seen) < self.windows and time.perf_counter() < deadline:
            self._wait_until(self._next_poll)


WORKLOADS = {
    cls.name: cls
    for cls in (StreamReduceZipf, StreamZip, ServiceFaulty, BatchReduceProc)
}
