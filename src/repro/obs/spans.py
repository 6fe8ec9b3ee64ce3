"""Span-level profiling: a log of nestable timed spans.

Each span is one timed event (name, wall-clock start, duration, pid/tid,
category, args).  The log records only while :func:`start_recording` has
armed it, so a run nothing profiles pays nothing for its instrumentation.
``repro profile`` arms it around one figure run and exports the log as
Chrome trace-event JSON (:func:`to_chrome_trace`), loadable in Perfetto or
``chrome://tracing``.  The per-phase totals live in
:mod:`repro.common.phases`, which logs each phase report here as a
``phase`` span while the log is armed.

A pool task records spans only when its parent was recording as it
dispatched the batch; the task ships them back with its result and the
parent appends them with :func:`merge`.

Spans use ``time.time()`` (wall clock) for their start stamps deliberately:
``perf_counter`` epochs differ across processes, and worker spans must land
on the same timeline as the parent's.  Durations are measured with the same
clock over short intervals, where its resolution is ample next to the
simulation phases being measured.

All state is per process.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

#: Hard cap on retained spans; beyond it new spans are counted as dropped
#: rather than recorded, bounding memory during runaway recordings.
SPAN_LIMIT = 100_000

_SPANS: List[Dict[str, Any]] = []
_RECORDING = False
_DROPPED = 0


def recording() -> bool:
    """Whether the span log is currently armed."""
    return _RECORDING


def set_recording(armed: bool) -> None:
    """Arm or disarm the span log."""
    global _RECORDING
    _RECORDING = bool(armed)


def start_recording(clear: bool = True) -> None:
    """Arm the span log, optionally clearing previously recorded spans."""
    if clear:
        reset()
    set_recording(True)


def stop_recording() -> None:
    """Disarm the span log (recorded spans stay until :func:`reset`)."""
    set_recording(False)


def record(
    name: str,
    start: float,
    duration: float,
    *,
    category: str = "span",
    args: Optional[Mapping[str, Any]] = None,
) -> None:
    """Append one completed span to the log (no-op unless recording).

    ``start`` is a ``time.time()`` wall-clock stamp; ``duration`` is in
    seconds.  The recording process and thread are stamped automatically.
    """
    if not _RECORDING:
        return
    _append(
        {
            "name": name,
            "category": category,
            "start": start,
            "duration": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": dict(args) if args else {},
        }
    )


def _append(entry: Dict[str, Any]) -> None:
    global _DROPPED
    if len(_SPANS) >= SPAN_LIMIT:
        _DROPPED += 1
    else:
        _SPANS.append(entry)


@contextlib.contextmanager
def span(
    name: str, *, category: str = "span", args: Optional[Mapping[str, Any]] = None
) -> Iterator[None]:
    """Time a block as one span (recorded on exit, exceptions included)."""
    started = time.time()
    try:
        yield
    finally:
        record(name, started, time.time() - started, category=category, args=args)


def snapshot() -> List[Dict[str, Any]]:
    """Copies of every recorded span, in recording order."""
    return [dict(entry) for entry in _SPANS]


def span_count() -> int:
    """How many spans the log currently holds."""
    return len(_SPANS)


def dropped() -> int:
    """How many spans were discarded after the log filled up."""
    return _DROPPED


def drain_after(mark: int) -> List[Dict[str, Any]]:
    """Remove and return every span recorded after position ``mark``.

    A pool task brackets itself with ``span_count()`` / ``drain_after``, so
    its spans ride back to the parent with its result instead of
    accumulating in the (possibly long-lived) worker process.
    """
    drained = [dict(entry) for entry in _SPANS[mark:]]
    del _SPANS[mark:]
    return drained


def merge(entries: Iterable[Mapping[str, Any]]) -> None:
    """Append spans another process recorded (a pool task's, already
    stamped with its pid) to the log; a no-op unless recording."""
    if _RECORDING:
        for entry in entries:
            _append(dict(entry))


def reset() -> None:
    """Clear the span log and the dropped counter."""
    global _DROPPED
    _SPANS.clear()
    _DROPPED = 0


def to_chrome_trace(
    spans: List[Mapping[str, Any]], metadata: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event JSON document.

    Every span becomes one complete event (``"ph": "X"``) with microsecond
    ``ts`` / ``dur`` normalised to the earliest span's start, plus one
    process-name metadata event (``"ph": "M"``) per participating pid so
    Perfetto labels worker processes distinctly.  Load the written file in
    https://ui.perfetto.dev or ``chrome://tracing``.
    """
    base = min((entry["start"] for entry in spans), default=0.0)
    events: List[Dict[str, Any]] = []
    pids = sorted({int(entry["pid"]) for entry in spans})
    for pid in pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    for entry in spans:
        events.append(
            {
                "name": entry["name"],
                "cat": entry.get("category", "span"),
                "ph": "X",
                "ts": (entry["start"] - base) * 1e6,
                "dur": max(0.0, entry["duration"]) * 1e6,
                "pid": int(entry["pid"]),
                "tid": int(entry["tid"]),
                "args": dict(entry.get("args") or {}),
            }
        )
    document: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        document["otherData"] = dict(metadata)
    return document
