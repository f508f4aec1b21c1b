"""Per-layer span recorder for the end-to-end benchmark.

The tracer measures each layer from outside the program: :meth:`Tracer.install`
wraps the public functions and methods of every layer (see ``_targets``)
in place, and :meth:`Tracer.uninstall` puts the originals back.  Nothing
under ``src/`` is edited.  A wrapped call opens a span; a span records its
name, start, end, parent span, PE and window id.  Self time is the span's
duration minus the time covered by its child spans, accumulated per layer
and per track (one thread of one PE).  Bytes and messages come from the
PE's ``TrafficMeter.mark``/``since`` around comm and operation spans.

A track's wall time is either marked by the PE program itself
(:meth:`Tracer.begin_track`/:meth:`Tracer.end_track`) or, for threads the
benchmark does not own (service workers, the load generator), runs from
the thread's first span to its last.  Per PE, the sum of all self times
plus the time covered by no top-level span (``other``) equals the summed
track wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_MARK = "perfbench:{}"
#: Span-name prefix whose comm traffic is the operation's, not the checker's.
_OPERATION_PREFIX = "ops."


def _size(obj) -> int:
    return int(np.asarray(obj).size)


def _comm_meter(comm):
    return None if comm is None else comm.meter


def _targets():
    """``(span name, owner, attribute, extras)`` for every traced entry point.

    ``owner`` is a class (its method is wrapped) or a module (the function is
    wrapped in every ``repro`` module that imported it by name).  ``extras``
    may hold ``meter(args)``, ``count(args)``, ``window(args, kwargs)`` and
    ``result(result)`` hooks.
    """
    from repro.comm.communicator import Comm
    from repro.core import localize, zip_checker
    from repro.core.streams import CheckerStream, StreamedKV, SumCheckerStream
    from repro.core.sum_checker import SumAggregationChecker
    from repro.dataflow import repair, streaming
    from repro.dataflow.ops import reduce_by_key, zip_op
    from repro.hashing.bitgroups import BucketAssigner
    from repro.hashing.families import _CRCHash
    from repro.hashing.mixers import MultiplyShiftHash, SplitMixHash
    from repro.hashing.tabulation import TabulationHash
    from repro.kernels import KERNEL_NAMES, get_kernels
    from repro.service.daemon import CheckedStreamService

    window = {"window": lambda args, kwargs: kwargs.get("window")}
    op_meter = {"meter": lambda args: _comm_meter(args[0])}
    out = [
        ("streams.fold", StreamedKV, "fold", {"count": lambda a: _size(a[1])}),
        ("streams.settle", CheckerStream, "settle", {}),
        ("streams.settle", SumCheckerStream, "settle_adaptive", {}),
        (
            "sum_checker.local_tables",
            SumAggregationChecker,
            "local_tables",
            {"count": lambda a: _size(a[1])},
        ),
        ("sum_checker.pack", SumAggregationChecker, "pack", {}),
        ("sum_checker.pack", SumAggregationChecker, "unpack", {}),
        ("sum_checker.pack", SumAggregationChecker, "combine", {}),
        (
            "zip_checker.fingerprint",
            zip_checker,
            "positional_fingerprint",
            {"count": lambda a: _size(a[0])},
        ),
        ("hashing", BucketAssigner, "assign", {}),
        ("ops.local_aggregate", reduce_by_key, "local_aggregate", {}),
        ("ops.reduce_by_key", reduce_by_key, "reduce_by_key", op_meter),
        ("ops.zip_arrays", zip_op, "zip_arrays", op_meter),
        ("localize", localize, "localize_fault", {
            "result": lambda r: {"rounds": int(r.bisection_rounds)},
        }),
        ("service.submit", CheckedStreamService, "submit", {}),
    ]
    for cls in (SplitMixHash, MultiplyShiftHash, TabulationHash, _CRCHash):
        out.append(("hashing", cls, "hash_array", {}))
    kernels = get_kernels()
    for name in KERNEL_NAMES:
        out.append((f"kernels.{name}", kernels, name, {}))
    for fn in ("settle_reduce_window", "settle_sum_window", "settle_zip_window"):
        out.append(("streaming.window", streaming, fn, window))
    for fn in ("repair_reduce_window", "repair_sum_window", "repair_zip_window"):
        out.append(("repair", repair, fn, {
            "result": lambda r: {
                "attempts": int(r.attempts),
                "healed": int(bool(r.healed)),
            },
        }))
    comm_meter = {"meter": lambda args: args[0].meter}
    for method in (
        "send", "recv", "sendrecv", "barrier", "bcast", "reduce", "allreduce",
        "gather", "allgather", "scan", "exscan", "alltoall",
        "alltoall_hypercube",
    ):
        out.append(("comm", Comm, method, comm_meter))
    return out


class _Frame:
    __slots__ = (
        "name", "start", "child", "window", "meter", "label", "wire",
        "inside_ops", "index", "parent",
    )


class _Track:
    """Spans and per-layer totals of one thread of one PE."""

    def __init__(self, pe, window=None, marked=False):
        self.pe = pe
        self.window = window
        #: Whether the PE program marks begin/end (else spans bound the track).
        self.marked = marked
        self.begin: float | None = None
        self.end: float | None = None
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.top_level_s = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Installs the layer wrappers and records spans while installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tracks: list[_Track] = []
        self._patches: list[tuple] = []

    # -- install / uninstall ---------------------------------------------------
    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, extras in _targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, extras))
                self._patches.append((owner, attr, original))
            else:
                self._patch_bindings(name, getattr(owner, attr), extras)
        return self

    def _patch_bindings(self, name, original, extras) -> None:
        """Wrap ``original`` wherever a ``repro`` module bound it by name."""
        wrapper = self._wrap(name, original, extras)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- tracks ----------------------------------------------------------------
    def _track(self) -> _Track:
        track = getattr(self._local, "track", None)
        if track is None:
            # A thread the benchmark does not own: the single-PE service.
            track = _Track(0)
            self._local.track = track
            with self._lock:
                self._tracks.append(track)
        return track

    def begin_track(self, pe: int, window=None) -> None:
        """Start a fresh track for the calling PE thread (PE programs only).

        ``window`` tags the track's top-level spans (a batch job's index).
        """
        track = _Track(pe, window, marked=True)
        track.begin = time.perf_counter()
        self._local.track = track
        with self._lock:
            self._tracks.append(track)

    def end_track(self) -> None:
        self._track().end = time.perf_counter()

    @contextlib.contextmanager
    def suspended(self):
        """Calls on this thread bypass the spans while the block runs."""
        self._local.suspended = True
        try:
            yield
        finally:
            self._local.suspended = False

    def reset_for_child(self) -> None:
        """Forget what a forked worker inherited from its parent."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tracks = []

    def export_tracks(self) -> list[_Track]:
        """The tracks recorded in this process (sent back by forked PEs)."""
        for track in self._tracks:
            track.stack = []
        return list(self._tracks)

    def adopt_tracks(self, tracks) -> None:
        with self._lock:
            self._tracks.extend(tracks)

    # -- spans -----------------------------------------------------------------
    def _wrap(self, name, fn, extras):
        meter_of = extras.get("meter")
        count_of = extras.get("count")
        window_of = extras.get("window")
        result_of = extras.get("result")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(tracer._local, "suspended", False):
                return fn(*args, **kwargs)
            frame = tracer._open(
                name,
                meter_of(args) if meter_of is not None else None,
                window_of(args, kwargs) if window_of is not None else None,
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                # A call that raises still closes its span and counts as a
                # call; only its result counters are missing.
                tracer._close(frame)
                tracer._track().calls[name] += 1
            track = tracer._track()
            if count_of is not None:
                track.counts[name + ".n"] += count_of(args)
            if result_of is not None:
                for key, value in result_of(result).items():
                    track.counts[f"{name}.{key}"] += value
            return result

        return traced

    def _open(self, name, meter, window) -> _Frame:
        track = self._track()
        frame = _Frame()
        frame.name = name
        frame.child = 0.0
        parent = track.stack[-1] if track.stack else None
        frame.parent = parent.index if parent is not None else -1
        if window is None:
            window = parent.window if parent is not None else track.window
        frame.window = window
        frame.inside_ops = parent is not None and (
            parent.inside_ops or parent.name.startswith(_OPERATION_PREFIX)
        )
        frame.meter = meter
        frame.index = len(track.spans)
        track.spans.append(None)  # filled on close, keeps parent indices
        if meter is not None:
            frame.label = _MARK.format(len(track.stack))
            meter.mark(frame.label)
            frame.wire = meter.wire_bytes_sent + meter.wire_bytes_received
        track.stack.append(frame)
        frame.start = time.perf_counter()
        if track.begin is None:
            track.begin = frame.start
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        track = self._track()
        track.stack.pop()
        if not track.marked:
            track.end = end
        duration = end - frame.start
        track.self_s[frame.name] += duration - frame.child
        if track.stack:
            track.stack[-1].child += duration
        else:
            track.top_level_s += duration
        nbytes = 0
        if frame.meter is not None:
            delta = frame.meter.since(frame.label)
            nbytes = delta["bytes_sent"] + delta["bytes_received"]
            parent = track.stack[-1] if track.stack else None
            if frame.name == "comm" and (parent is None or parent.name != "comm"):
                # Only the outermost comm span counts traffic: a collective's
                # inner sends and receives are already inside its delta.
                wire = frame.meter.wire_bytes_sent + frame.meter.wire_bytes_received
                track.counts["comm.messages"] += (
                    delta["messages_sent"] + delta["messages_received"]
                )
                track.counts["comm.bytes"] += nbytes
                track.counts["comm.wire_bytes"] += wire - frame.wire
                if not frame.inside_ops:
                    track.counts["comm.checker_bytes"] += nbytes
            elif frame.name != "comm":
                track.counts[frame.name + ".bytes"] += nbytes
        track.spans[frame.index] = (
            frame.name, frame.start, end, frame.parent, track.pe,
            frame.window, nbytes,
        )

    # -- summaries -------------------------------------------------------------
    def per_pe(self) -> dict:
        """``{pe: {"wall", "self", "other"}}`` summed over the PE's tracks."""
        out: dict = {}
        for track in self._tracks:
            if track.end is None:  # its PE program raised before it ended
                continue
            entry = out.setdefault(track.pe, {"wall": 0.0, "self": 0.0, "other": 0.0})
            wall = track.end - track.begin
            entry["wall"] += wall
            entry["self"] += sum(track.self_s.values())
            entry["other"] += wall - track.top_level_s
        return out

    def totals(self) -> tuple[dict, dict, dict]:
        """Self seconds, call counts and counters summed over every track."""
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        counts: dict = defaultdict(int)
        for track in self._tracks:
            for key, value in track.self_s.items():
                self_s[key] += value
            for key, value in track.calls.items():
                calls[key] += value
            for key, value in track.counts.items():
                counts[key] += value
        return self_s, calls, counts

    def write_spans(self, path) -> int:
        """Write every recorded span as one JSON line; returns the count."""
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for tid, track in enumerate(self._tracks):
                for span in track.spans:
                    if span is None:
                        continue
                    name, start, end, parent, pe, window, nbytes = span
                    fh.write(json.dumps({
                        "track": tid, "name": name, "start": start, "end": end,
                        "parent": parent, "pe": pe, "window": window,
                        "bytes": nbytes,
                    }) + "\n")
                    written += 1
        return written
