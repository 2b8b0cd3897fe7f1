"""Task tracing on per-resource lanes (paper Fig. 6 and Fig. 8).

Rocket's profiling flag records, for every thread, which task ran when.
The paper uses these traces in two ways: a timeline visualisation
(Fig. 6) and per-thread total busy time compared against the overall run
time (Fig. 8 / Fig. 10).  :class:`TraceRecorder` supports both: events
carry a *lane* (thread name, e.g. ``"GPU0"``, ``"CPU"``, ``"IO"``), a
task label, a ``[start, end)`` interval in seconds, and an optional
``job_id`` so traces from concurrent jobs stay attributable.

The recorder is per-process: each node process (and the coordinator)
owns one, records against its own ``origin`` (an absolute
``time.perf_counter()`` reading taken at construction), and ships its
event buffer to the coordinator, which merges all buffers into a single
multi-process Chrome/Perfetto trace via :class:`ProfileTrace`.  Because
``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, origins from
different processes on one machine share a time base, so rebasing is a
single subtraction.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "ProfileTrace",
    "lane_summary",
    "ascii_timeline",
    "to_chrome_trace",
]

#: Default cap on events held by one recorder.  Concurrent FAIR-policy
#: pipelines can share a recorder; the bound keeps a runaway job from
#: exhausting memory (drops are counted, never silent).
DEFAULT_MAX_EVENTS = 200_000


@dataclass(frozen=True)
class TraceEvent:
    """One executed task: ``lane`` ran ``label`` over ``[start, end)``."""

    lane: str
    label: str
    start: float
    end: float
    job_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> float:
        """Task duration in seconds."""
        return self.end - self.start


class TraceRecorder:
    """Collects :class:`TraceEvent` records; can be disabled cheaply.

    A disabled recorder swallows events with near-zero overhead so that
    production runs (profiling flag off, the paper's default) pay almost
    nothing — mirroring Rocket's optional profiling flag.  Hot paths
    should additionally guard timestamp computation behind
    ``recorder.enabled`` so the disabled path performs no clock reads
    and no allocation at all.

    The recorder is thread-safe (pipelines record from IO/CPU/device
    worker threads concurrently) and bounded: once ``max_events`` events
    are held, further records increment :attr:`dropped` instead of
    growing the buffer.
    """

    def __init__(
        self,
        enabled: bool = True,
        *,
        max_events: int = DEFAULT_MAX_EVENTS,
        origin: Optional[float] = None,
    ) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.enabled = enabled
        self.max_events = max_events
        #: Absolute ``perf_counter`` reading that event times are
        #: relative to; lets a merger rebase buffers from several
        #: recorders (one per process) onto one session clock.
        self.origin = time.perf_counter() if origin is None else origin
        self.dropped = 0
        self._lock = threading.Lock()
        self._events: List[TraceEvent] = []

    def now(self) -> float:
        """Seconds since this recorder's :attr:`origin`."""
        return time.perf_counter() - self.origin

    def record(
        self,
        lane: str,
        label: str,
        start: float,
        end: float,
        job_id: Optional[int] = None,
    ) -> None:
        """Record one task execution (no-op when disabled)."""
        if not self.enabled:
            return
        event = TraceEvent(lane, label, start, end, job_id)
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return
            self._events.append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Merge pre-built events (e.g. a shipped node buffer) in bulk."""
        if not self.enabled:
            return
        with self._lock:
            for event in events:
                if len(self._events) >= self.max_events:
                    self.dropped += 1
                    continue
                self._events.append(event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events, in insertion order."""
        with self._lock:
            return list(self._events)

    def lanes(self) -> List[str]:
        """Sorted list of distinct lane names."""
        return sorted({e.lane for e in self.events})

    def events_for(self, lane: str) -> List[TraceEvent]:
        """Events of one lane, sorted by start time."""
        return sorted((e for e in self.events if e.lane == lane), key=lambda e: e.start)

    def busy_time(self, lane: str) -> float:
        """Total busy time of ``lane`` (sum of event durations).

        Fig. 8 of the paper plots exactly this per thread: "data per
        thread was extracted from a profile trace by taking the total
        time of tasks executed by each thread".
        """
        return sum(e.duration for e in self.events if e.lane == lane)

    def makespan(self) -> float:
        """End time of the last event (0.0 when empty)."""
        return max((e.end for e in self.events), default=0.0)

    def clear(self) -> None:
        """Drop all recorded events (and reset the drop counter)."""
        with self._lock:
            self._events.clear()
            self.dropped = 0


def lane_summary(recorder: TraceRecorder) -> Dict[str, Dict[str, object]]:
    """Per-lane summary: busy time, utilisation, task count, label split."""
    span = recorder.makespan()
    out: Dict[str, Dict[str, object]] = {}
    for lane in recorder.lanes():
        events = recorder.events_for(lane)
        busy = sum(e.duration for e in events)
        by_label: Dict[str, float] = defaultdict(float)
        for e in events:
            by_label[e.label] += e.duration
        out[lane] = {
            "busy": busy,
            "utilization": busy / span if span > 0 else 0.0,
            "tasks": float(len(events)),
            "by_label": dict(by_label),
        }
    return out


def ascii_timeline(
    recorder: TraceRecorder,
    width: int = 100,
    t0: float | None = None,
    t1: float | None = None,
) -> str:
    """Render the trace as an ASCII timeline, one row per lane (Fig. 6).

    Each column is a time bucket; a cell shows the first letter of the
    label that occupied most of that bucket, or ``.`` when idle.
    """
    events = recorder.events
    if not events:
        return "(empty trace)"
    if t0 is None:
        t0 = min(e.start for e in events)
    if t1 is None:
        t1 = max(e.end for e in events)
    if t1 <= t0:
        t1 = t0 + 1e-9
    dt = (t1 - t0) / width
    lines = []
    for lane in recorder.lanes():
        cells = [" "] * width
        occupancy = [0.0] * width
        for e in recorder.events_for(lane):
            first = max(0, int((e.start - t0) / dt))
            last = min(width - 1, int((e.end - t0) / dt))
            for c in range(first, last + 1):
                bucket_lo = t0 + c * dt
                bucket_hi = bucket_lo + dt
                overlap = min(e.end, bucket_hi) - max(e.start, bucket_lo)
                if overlap > occupancy[c]:
                    occupancy[c] = overlap
                    cells[c] = (e.label[:1] or "?").upper()
        row = "".join(ch if ch != " " else "." for ch in cells)
        lines.append(f"{lane:>12} |{row}|")
    lines.append(f"{'':>12}  t0={t0:.3f}s  t1={t1:.3f}s  ({dt:.4f}s/col)")
    return "\n".join(lines)


def _chrome_events(
    lanes_events: List[Tuple[str, int, List[TraceEvent]]],
    pid: int,
    time_unit: float,
) -> list:
    """Emit phase-``X`` events for one process's lanes."""
    out = []
    for lane, tid, events in lanes_events:
        for e in events:
            entry = {
                "name": e.label,
                "cat": "rocket",
                "ph": "X",
                "ts": e.start * time_unit,
                "dur": e.duration * time_unit,
                "pid": pid,
                "tid": tid,
                "args": {"lane": lane},
            }
            if e.job_id is not None:
                entry["args"]["job_id"] = e.job_id
            out.append(entry)
    return out


def to_chrome_trace(recorder: TraceRecorder, time_unit: float = 1e6, pid: int = 0) -> list:
    """Convert a trace to Chrome ``chrome://tracing`` JSON events.

    Returns the list of complete-duration events (phase ``X``); dump it
    with ``json.dump({"traceEvents": events}, fh)`` and load the file in
    ``chrome://tracing`` or Perfetto for the interactive version of the
    paper's Fig. 6.  ``time_unit`` converts seconds to the microsecond
    timestamps the format expects; ``pid`` tags the events with a
    process id (multi-process merges use :class:`ProfileTrace` instead).
    """
    lanes_events = [
        (lane, tid, recorder.events_for(lane))
        for tid, lane in enumerate(recorder.lanes())
    ]
    return _chrome_events(lanes_events, pid, time_unit)


class ProfileTrace:
    """A merged multi-process profile (coordinator + every node).

    Each contributing process registers once via :meth:`add_process`
    with its real OS pid, a display name, its event buffer, and the
    offset of its recorder's origin relative to the session origin;
    :meth:`to_chrome` then emits one Chrome/Perfetto trace where every
    process appears under its own pid with named lanes as threads.
    """

    def __init__(self) -> None:
        self._procs: Dict[int, Dict[str, object]] = {}

    def add_process(
        self,
        name: str,
        events: Iterable[TraceEvent],
        *,
        pid: int,
        offset: float = 0.0,
    ) -> None:
        """Merge one process's event buffer, rebased by ``offset`` seconds.

        ``offset`` is ``process_origin - session_origin``: added to every
        event time so all processes share the session clock.  Calling
        again with the same ``pid`` appends (a process can contribute one
        buffer per job).
        """
        proc = self._procs.setdefault(pid, {"name": name, "events": []})
        bucket: List[TraceEvent] = proc["events"]  # type: ignore[assignment]
        if offset:
            bucket.extend(
                TraceEvent(e.lane, e.label, e.start + offset, e.end + offset, e.job_id)
                for e in events
            )
        else:
            bucket.extend(events)

    def pids(self) -> List[int]:
        """Sorted pids of the contributing processes."""
        return sorted(self._procs)

    def process_name(self, pid: int) -> str:
        """Display name registered for ``pid``."""
        return str(self._procs[pid]["name"])

    def events_for_pid(self, pid: int) -> List[TraceEvent]:
        """All events contributed by ``pid``, in merge order."""
        return list(self._procs[pid]["events"])  # type: ignore[arg-type]

    @property
    def n_events(self) -> int:
        """Total events across all processes."""
        return sum(len(p["events"]) for p in self._procs.values())  # type: ignore[arg-type]

    def to_chrome(self, time_unit: float = 1e6) -> list:
        """Emit the merged trace: metadata + phase-``X`` events.

        Every process gets a ``process_name`` metadata record and one
        ``thread_name`` record per lane, so Perfetto shows e.g.
        ``node0 > gpu0`` instead of bare integers.
        """
        out: list = []
        for pid in self.pids():
            proc = self._procs[pid]
            events: List[TraceEvent] = proc["events"]  # type: ignore[assignment]
            lanes = sorted({e.lane for e in events})
            out.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": str(proc["name"])},
                }
            )
            by_lane: Dict[str, List[TraceEvent]] = defaultdict(list)
            for e in events:
                by_lane[e.lane].append(e)
            lanes_events = []
            for tid, lane in enumerate(lanes):
                out.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": lane},
                    }
                )
                lanes_events.append(
                    (lane, tid, sorted(by_lane[lane], key=lambda e: e.start))
                )
            out.extend(_chrome_events(lanes_events, pid, time_unit))
        return out

    def save(self, path: str, time_unit: float = 1e6) -> str:
        """Write the merged trace as a Perfetto-loadable JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.to_chrome(time_unit)}, fh)
        return path
