"""Measurement plumbing: spans, process accounting, machine facts.

Nothing in here knows about Rocket; it measures the harness process and
its descendants from the outside (``/proc``) and keeps the spans the
harness records around its own calls into the program.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Tracer",
    "ProcSnapshot",
    "descendants",
    "percentile",
    "machine_facts",
    "BLAS_ENV",
    "BLAS_FOUND_ENV",
    "blas_env_found",
    "shm_segments",
    "wait_no_descendants",
    "CORES_ENV",
    "available_cores",
    "pin_harness",
    "pin_children",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Thread-count variables of the BLAS / OpenMP pools numpy may sit on.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Carries the values found before the harness pinned them (JSON).
BLAS_FOUND_ENV = "ROCKET_BENCH_BLAS_FOUND"
#: Carries the cores the harness was started on, before it pinned itself.
CORES_ENV = "ROCKET_BENCH_CORES"


def blas_env_found() -> Dict[str, Optional[str]]:
    """The BLAS thread settings the harness was started under."""
    recorded = os.environ.get(BLAS_FOUND_ENV)
    if recorded:
        return json.loads(recorded)
    return {name: os.environ.get(name) for name in BLAS_ENV}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


# ----------------------------------------------------------------------
# Spans


class Tracer:
    """In-memory spans around the harness's own calls (``--trace`` only).

    Disabled, ``span()`` costs one attribute test.  Parents are tracked
    per thread, so spans of the serve workload's background client nest
    under that thread's own stack.
    """

    def __init__(self, enabled: bool, workload: str) -> None:
        self.enabled = enabled
        self.workload = workload
        self.origin = time.perf_counter()
        # (name, start, end, parent index or -1, job, thread id)
        self.spans: List[Tuple[str, float, float, int, Optional[str], int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append(("", 0.0, 0.0, -1, None, 0))  # reserve the slot
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (
                name, start - self.origin, end - self.origin, parent, job,
                threading.get_ident(),
            )

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child coverage."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _name, start, end, parent, _job, _tid in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: Dict[str, float] = {}
        for index, (name, start, end, _parent, _job, _tid) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, path: Path) -> None:
        """Chrome trace format (``chrome://tracing`` / ui.perfetto.dev)."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": os.getpid(),
                "tid": tid,
                "args": {"parent": parent, "workload": self.workload, "job": job},
            }
            for name, start, end, parent, job, tid in self.spans
        ]
        doc = {"traceEvents": events, "selfTimeSeconds": self.self_times()}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


# ----------------------------------------------------------------------
# Process accounting from /proc


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces and parentheses: split after the last ')'.
    return raw[raw.rindex(")") + 2 :].split()


def descendants(root: int) -> List[int]:
    """Live descendant pids of ``root`` (children, grandchildren, ...)."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])  # ppid
    out: List[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        kids = [pid for pid, ppid in parent_of.items() if ppid == parent]
        out.extend(kids)
        frontier.extend(kids)
    return out


class ProcSnapshot:
    """CPU seconds (and, on request, peak RSS) of a set of processes.

    ``pids[0]`` is the harness process, the rest its descendants; the
    default set is the harness plus every descendant alive right now.
    """

    def __init__(self, pids: Optional[Sequence[int]] = None, memory: bool = False) -> None:
        if pids is None:
            pids = [os.getpid(), *descendants(os.getpid())]
        self.root = pids[0]
        self.cpu: Dict[int, float] = {}
        self.hwm_kb: Dict[int, int] = {}
        for pid in pids:
            fields = _stat_fields(pid)
            if fields is None:
                continue
            self.cpu[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime
            if memory:
                try:
                    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                        if line.startswith("VmHWM:"):
                            self.hwm_kb[pid] = int(line.split()[1])
                except OSError:
                    pass

    def cpu_since(self, earlier: "ProcSnapshot") -> Tuple[float, float]:
        """``(root_cpu_s, descendant_cpu_s)`` burnt since ``earlier``.

        A process that exited in between drops out of the sum; the
        workloads keep their child processes alive across the timed
        region, so nothing is lost where it matters.
        """
        own = self.cpu.get(self.root, 0.0) - earlier.cpu.get(self.root, 0.0)
        kids = sum(
            cpu - earlier.cpu.get(pid, 0.0)
            for pid, cpu in self.cpu.items()
            if pid != self.root
        )
        return own, kids

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the processes (needs ``memory=True``)."""
        return sum(self.hwm_kb.values()) / 1024.0


def wait_no_descendants(timeout: float = 3.0) -> List[int]:
    """Descendants still alive after ``timeout`` seconds (zombies count)."""
    deadline = time.monotonic() + timeout
    while True:
        live = descendants(os.getpid())
        if not live or time.monotonic() >= deadline:
            return live
        time.sleep(0.05)


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Core placement


def available_cores() -> List[int]:
    """The cores the harness was given (not the one it pinned itself to)."""
    recorded = os.environ.get(CORES_ENV)
    if recorded:
        return [int(core) for core in recorded.split(",")]
    return sorted(os.sched_getaffinity(0))


def pin_harness() -> None:
    """Confine this process, and every thread it starts later, to one core.

    The program's threads spend their time handing one interpreter lock
    around.  Spread over two cores by the kernel, every hand-over is a
    cross-core wake-up: the same ``local-dispatch`` job takes 2.7 s on
    two cores and 0.5 s on one, and anything else that happens to run
    on the box moves it between the two.  One process, one core is the
    placement that measures the program rather than the scheduler.
    Call it before any thread exists; child processes inherit the mask
    until ``pin_children`` moves them.
    """
    try:
        os.sched_setaffinity(0, {available_cores()[-1]})
    except OSError:
        pass  # a sandbox that forbids it: run where the kernel puts us


def pin_children() -> None:
    """Give each child process (cluster node, daemon) one core, round-robin.

    The way ranks are pinned on a real cluster, where every node *is*
    its own machine.  Children are dealt cores from the first one, the
    harness sits on the last, so one child has a core to itself on two
    cores.  Threads started later inherit their creator's mask.
    """
    cores = available_cores()
    for index, pid in enumerate(sorted(descendants(os.getpid()))):
        core = {cores[index % len(cores)]}
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(task), core)
            except OSError:
                pass  # the thread ended between the listing and the call


# ----------------------------------------------------------------------
# Machine facts


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine_facts(root: Path) -> Dict[str, object]:
    """What the numbers were taken on; recorded in every result file.

    BLAS thread settings are reported both as found and as measured
    under (the harness pins the pools to one thread).
    """
    import numpy

    facts: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "cores": available_cores(),
        "harness_core": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "blas_env_found": blas_env_found(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "argv": sys.argv[1:],
    }
    try:
        from threadpoolctl import threadpool_info

        facts["threadpools"] = [
            {k: pool.get(k) for k in ("internal_api", "num_threads", "version")}
            for pool in threadpool_info()
        ]
    except ImportError:
        facts["threadpools"] = "threadpoolctl not importable"
    return facts
