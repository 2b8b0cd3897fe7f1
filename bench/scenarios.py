"""The five workloads: inputs, the oracle, and how each one is driven.

Every workload is a :class:`Scenario`: ``setup()`` builds the program
state a user would build and runs the discarded warm-up job,
``run_round()`` is one fixed unit of closed-loop work inside the timed
region, ``teardown()`` releases everything.  The program is driven only
through its public API with default knobs; the sizes below fix each
workload's cache regime and must not be shrunk to save time (shorten
``--seconds`` instead).
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import AllPairs, Bipartite, Rocket, RocketConfig
from repro.apps import BioinformaticsApplication, ForensicsApplication
from repro.data import (
    InMemoryStore,
    make_bioinformatics_dataset,
    make_forensics_dataset,
)
from repro.serve import UnknownJob, connect

from bench.harness import Tracer, pin_children
from bench.spec import OUT_DIR, ROOT

__all__ = ["WORKLOADS", "WorkloadDef", "Job", "Scenario", "build_scenario", "oracle", "check_job"]

Pair = Tuple[str, str]

#: No single job of any workload takes a tenth of this on the 2-core box.
JOB_TIMEOUT = 120.0

#: Pairs per batched kernel launch in measured runs.  The default,
#: ``grain="auto"``, sizes batches from kernel times the program measures
#: on the wall clock while its threads compete for the interpreter lock:
#: a slow moment on the host shrinks the batches, which raises the cost
#: of every pair, which keeps them small.  Left on, it turns the box's
#: noise into regimes that last whole sessions (the same seed ran
#: ``local-dispatch`` at 5.7k to 15.6k pairs/s within ten minutes; fixed,
#: 9.8k to 13.5k) -- and is slower on every workload.
GRAIN = 64


# ----------------------------------------------------------------------
# Workload definitions


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    kind: str  # "session" | "serve" | "store"
    app: str  # "forensics" | "bioinformatics"
    n_items: int
    config: Dict[str, int]  # RocketConfig knobs that define the cache regime
    backend: str = "local"
    backend_options: Dict[str, int] = field(default_factory=dict)
    #: Jobs run over the first ``job_items`` keys of the corpus (None: all).
    job_items: Optional[int] = None
    # --smoke: same shape, a fraction of the size.
    smoke_items: int = 0
    smoke_job_items: Optional[int] = None
    smoke_config: Dict[str, int] = field(default_factory=dict)

    def sized(self, smoke: bool) -> Tuple[int, Optional[int], Dict[str, int]]:
        if smoke:
            return self.smoke_items, self.smoke_job_items, {**self.config, **self.smoke_config}
        return self.n_items, self.job_items, dict(self.config)


_ALL_FIT = {"device_cache_slots": 128, "host_cache_slots": 128}

WORKLOADS: Dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef(
            "local-reuse", "session", "forensics", 96,
            {"n_devices": 2, "device_cache_slots": 16, "host_cache_slots": 64},
            smoke_items=20, smoke_config={"device_cache_slots": 6, "host_cache_slots": 12},
        ),
        WorkloadDef(
            "local-dispatch", "session", "bioinformatics", 112,
            {"n_devices": 2, **_ALL_FIT}, smoke_items=24,
        ),
        WorkloadDef(
            "cluster-fetch", "session", "forensics", 96,
            {"n_devices": 1, "device_cache_slots": 12, "host_cache_slots": 40},
            backend="cluster", backend_options={"n_nodes": 2}, job_items=64,
            smoke_items=20, smoke_job_items=14,
            smoke_config={"device_cache_slots": 4, "host_cache_slots": 9},
        ),
        WorkloadDef(
            # The last 16 keys (smoke: 4) are the query pool, the rest the corpus.
            "serve-mixed", "serve", "bioinformatics", 112,
            {"n_devices": 2, **_ALL_FIT}, job_items=96,
            smoke_items=24, smoke_job_items=20,
        ),
        WorkloadDef(
            "store-cycle", "store", "bioinformatics", 112,
            {"n_devices": 1, **_ALL_FIT}, smoke_items=24,
        ),
    )
}

_APPS = {"forensics": ForensicsApplication, "bioinformatics": BioinformaticsApplication}


def make_corpus(app_name: str, n_items: int, seed: int, store: Optional[InMemoryStore] = None):
    """``(app, store, keys)`` of one synthetic corpus; same seed, same bytes."""
    store = store if store is not None else InMemoryStore()
    if app_name == "forensics":
        ds = make_forensics_dataset(
            store, n_images=n_items, n_cameras=8, image_shape=(128, 128), seed=seed
        )
    else:
        ds = make_bioinformatics_dataset(store, n_species=n_items, seed=seed)
    return _APPS[app_name](), store, list(ds.keys)


# ----------------------------------------------------------------------
# Oracle


def pair_key(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


def all_pairs(keys: Sequence[str]) -> List[Pair]:
    return [(a, b) for i, a in enumerate(keys) for b in keys[i + 1 :]]


def load_items(app, store, keys: Sequence[str]) -> Dict[str, Any]:
    return {k: app.preprocess(k, app.parse(k, store.read(app.file_name(k)))) for k in keys}


def oracle(app, items: Dict[str, Any], pairs: Sequence[Pair]) -> Dict[Pair, float]:
    """The reference: a plain single-threaded loop over the user callbacks."""
    return {
        (a, b): app.postprocess(a, b, app.compare(a, items[a], b, items[b]))
        for a, b in pairs
    }


@dataclass
class Job:
    """One submitted job: the unit of ``attempted`` / ``failed``."""

    label: str
    expected: Sequence[Pair]
    ref: Dict[Pair, float]
    #: Counted in ``job_s_p50`` (the serve workload's background batch
    #: jobs are checked and their pairs counted, but are not measured jobs).
    measured: bool = True
    seconds: float = 0.0
    submit_s: Optional[float] = None
    first_result_s: Optional[float] = None
    matrix: Any = None
    accounting: Optional[Dict[str, Any]] = None
    stats: Any = None
    error: Optional[str] = None
    #: Why the job counts as a failed operation (set by ``check_new_jobs``).
    failure: Optional[str] = None

    @property
    def delivered(self) -> int:
        """Pairs this job counts for in ``pairs_per_s`` (none if it raised)."""
        return len(self.expected) if self.error is None else 0


def check_job(job: Job) -> Optional[str]:
    """Why ``job`` counts as failed, or None when every pair checks out.

    The matrix must hold exactly the expected pairs, once each (the
    result matrix itself refuses a second value for a pair), equal to
    the reference within rtol 1e-9.
    """
    if job.error is not None:
        return job.error
    if job.matrix is None:
        return "no result matrix"
    got = {pair_key(a, b): v for a, b, v in job.matrix.items()}
    if len(got) != len(job.expected):
        return f"{len(got)} pairs delivered, {len(job.expected)} expected"
    try:
        values = np.array([got[pair_key(a, b)] for a, b in job.expected], dtype=float)
    except KeyError as exc:
        return f"missing pair {exc.args[0]}"
    want = np.array([job.ref[pair_key(a, b)] for a, b in job.expected], dtype=float)
    bad = ~np.isclose(values, want, rtol=1e-9, atol=1e-12)
    if bad.any():
        k = int(np.argmax(bad))
        return f"pair {job.expected[k]}: got {values[k]!r}, reference {want[k]!r}"
    return None


def accounting_dict(handle) -> Optional[Dict[str, Any]]:
    acct = getattr(handle, "accounting", None)
    if acct is None or isinstance(acct, dict):
        return acct
    return acct.to_dict()


# ----------------------------------------------------------------------
# Scenarios


class Scenario:
    """One workload's inputs plus the three lifecycle steps."""

    def __init__(self, wdef: WorkloadDef, seed: int, smoke: bool, tracer: Tracer) -> None:
        self.wdef = wdef
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.rng = random.Random(seed)
        n_items, job_items, cfg = wdef.sized(smoke)
        self.config_kwargs = cfg
        t0 = time.perf_counter()
        self.app, self.store, self.keys = make_corpus(wdef.app, n_items, seed)
        self.dataset_s = time.perf_counter() - t0
        #: Keys the workload's jobs range over.
        self.job_keys = self.keys[: job_items] if job_items else self.keys
        self.items: Dict[str, Any] = {}
        self.ref: Dict[Pair, float] = {}
        self.oracle_s = 0.0
        self.jobs: List[Job] = []
        self._checked = 0
        #: Measured runs fix the batch grain and place cluster nodes on
        #: cores; the default-environment diagnostic turns both off.
        self.tuned = True
        self.devices = cfg["n_devices"] * wdef.backend_options.get("n_nodes", 1)

    def warmup_job(self) -> Bipartite:
        """The discarded warm-up job: a twelfth of the items against the rest.

        It touches every item once (cold load pipeline, every cache
        level, first kernels, calibration) at a fraction of the cost of
        a measured job, so several set-ups fit in one run.
        """
        split = max(1, len(self.job_keys) // 12)
        return Bipartite(self.job_keys[:split], self.job_keys[split:])

    def job_workload(self):
        """The job this workload's measured loop submits (one representative)."""
        return AllPairs(self.job_keys)

    def prepare_oracle(self) -> None:
        """Compute the reference for every pair a job of this workload can hold."""
        t0 = time.perf_counter()
        self.items = load_items(self.app, self.store, self.keys)
        self.ref = oracle(self.app, self.items, self.oracle_pairs())
        self.oracle_s = time.perf_counter() - t0

    # -- what subclasses provide ----------------------------------------

    def oracle_pairs(self) -> List[Pair]:
        return all_pairs(self.job_keys)

    def config(self, **overrides) -> RocketConfig:
        knobs = {**self.config_kwargs, **overrides}
        if self.tuned:
            try:
                return RocketConfig(grain=GRAIN, **knobs)
            except TypeError:
                pass  # the knob is gone: whatever replaced it is the default
        return RocketConfig(**knobs)

    def check_new_jobs(self) -> None:
        """Check every job not checked yet against the oracle; drop its matrix.

        Called between rounds, off the clock, so a run never holds more
        than a round's results (the program's garbage collector walks
        everything the harness keeps alive).
        """
        for job in self.jobs[self._checked :]:
            job.failure = check_job(job)
            job.matrix = None
        self._checked = len(self.jobs)

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def prepare_round(self, index: int) -> None:
        """Untimed preparation of the next round (default: nothing)."""

    def run_round(self, index: int, traced: bool) -> int:
        """One unit of closed-loop work; returns the pairs it had delivered."""
        raise NotImplementedError

    def begin_region(self) -> None:
        """Called right before a timed region's first round."""

    def end_region(self) -> None:
        """Called right after a timed region's last round."""

    def counters(self) -> Dict[str, Any]:
        """The program's own metrics snapshot (traced runs read deltas)."""
        return {}

    def temp_dirs(self) -> List[Path]:
        return []

    # -- shared job plumbing --------------------------------------------

    def timed_job(self, job: Job, run: Callable[[Job], Tuple[Any, Any]]) -> Any:
        """Run one job under a span; an exception makes it a failed op.

        ``run`` returns ``(handle, matrix)``.  Only ``run`` is on the
        job's clock; the handle's accounting is read afterwards (over a
        socket that is a request of its own).  Returns the handle.
        """
        handle = None
        t0 = time.perf_counter()
        try:
            with self.tracer.span("job", job.label):
                handle, job.matrix = run(job)
        except Exception as exc:  # noqa: BLE001 - a failed op, reported and counted
            job.error = f"{type(exc).__name__}: {exc}"
        job.seconds = time.perf_counter() - t0
        if handle is not None:
            job.accounting = accounting_dict(handle)
            job.stats = getattr(handle, "stats", None)
        self.jobs.append(job)
        return handle

    def submit_and_wait(self, submit, workload, job: Job, traced: bool, **submit_kw):
        """submit -> result; a traced run also times the first streamed pair."""
        span = self.tracer.span
        t0 = time.perf_counter()
        with span("submit", job.label):
            handle = submit(workload, **submit_kw)
        job.submit_s = time.perf_counter() - t0
        if traced:
            # Only the first streamed pair: draining the stream here would
            # fight the runtime's own threads for the interpreter lock.
            with span("first_result", job.label):
                stream = handle.stream()
                next(stream, None)
                job.first_result_s = time.perf_counter() - t0
                stream.close()
        with span("result", job.label):
            return handle, handle.result(timeout=JOB_TIMEOUT)


class SessionScenario(Scenario):
    """``AllPairs`` jobs, one after the other, on one warm session."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.job_pairs = all_pairs(self.job_keys)

    def setup(self) -> None:
        self.rocket = Rocket(
            self.app, self.store, self.config(),
            backend=self.wdef.backend, **self.wdef.backend_options,
        )
        self.session = self.rocket.session()
        if self.tuned and self.wdef.backend == "cluster":
            pin_children()  # a core per node process
        self.session.submit(self.warmup_job()).result(timeout=JOB_TIMEOUT)

    def teardown(self) -> None:
        self.session.close()

    def run_round(self, index: int, traced: bool) -> int:
        job = Job(f"allpairs-{len(self.jobs)}", self.job_pairs, self.ref)
        self.timed_job(
            job,
            lambda j: self.submit_and_wait(self.session.submit, self.job_workload(), j, traced),
        )
        return job.delivered

    def counters(self) -> Dict[str, Any]:
        return self.session.metrics()


class ServeScenario(Scenario):
    """Interactive queries against a daemon that is busy with a batch tenant."""

    QUERY_PRIORITY = 8.0
    BATCH_PRIORITY = 1.0
    #: A round is this many queries (about a second): long enough for the
    #: CPU clock's 10 ms ticks, short enough for dozens of rounds a run.
    QUERIES_PER_ROUND = 10

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.corpus = self.job_keys
        self.pool = self.keys[len(self.corpus) :]
        self.batch_pairs = all_pairs(self.corpus)

    def oracle_pairs(self) -> List[Pair]:
        return self.batch_pairs + [pair_key(q, c) for q in self.pool for c in self.corpus]

    def job_workload(self):
        return Bipartite([self.pool[0]], self.corpus)

    def setup(self) -> None:
        self.daemon = subprocess.Popen(
            [
                sys.executable, "-m", "bench.daemon",
                "--seed", str(self.seed), "--smoke", str(int(self.smoke)),
                "--tuned", str(int(self.tuned)),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT),
        )
        line = self.daemon.stdout.readline().decode()
        if not line.startswith("ADDRESS "):
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.address = line.split()[1]
        self.client = connect(self.address, tenant="interactive")
        self.client.run(self.warmup_job())
        # Background tenant: its own connection, plus one to watch progress.
        self.monitor = connect(self.address, tenant="batch")
        self._stop = threading.Event()
        self._submitted = threading.Event()
        self._bg_lock = threading.Lock()
        self._bg_done: List[Job] = []
        self._bg_current: Optional[str] = None
        self._bg_thread = threading.Thread(target=self._background, name="bench-batch")
        self._bg_thread.start()
        if not self._submitted.wait(timeout=JOB_TIMEOUT):
            raise RuntimeError("background tenant never submitted")

    def _background(self) -> None:
        try:
            with connect(self.address, tenant="batch") as session:
                while not self._stop.is_set():
                    job = Job("batch", self.batch_pairs, self.ref, measured=False)
                    with self.tracer.span("batch-job"):
                        handle = session.submit(
                            AllPairs(self.corpus), priority=self.BATCH_PRIORITY
                        )
                        with self._bg_lock:
                            self._bg_current = handle.job_id
                        self._submitted.set()
                        while not handle.wait(timeout=0.25):
                            if self._stop.is_set():
                                handle.cancel()
                                return
                        job.matrix = handle.result(timeout=JOB_TIMEOUT)
                        job.accounting = handle.accounting
                        # Booked before the ack, so a progress reader never
                        # finds the job neither current nor finished.
                        with self._bg_lock:
                            self._bg_done.append(job)
                            self._bg_current = None
                        handle.ack()
        except Exception as exc:  # noqa: BLE001 - surfaces as a failed op
            failed = Job("batch", self.batch_pairs, self.ref, measured=False)
            failed.error = f"{type(exc).__name__}: {exc}"
            with self._bg_lock:
                self._bg_done.append(failed)
            self._submitted.set()

    def _background_pairs(self) -> int:
        """Pairs the batch tenant has had delivered so far (live)."""
        while True:
            with self._bg_lock:
                finished, current = len(self._bg_done), self._bg_current
            done = 0
            if current is not None:
                try:
                    done = self.monitor.handle(current).progress()[0]
                except UnknownJob:  # finished and acked between the two reads
                    done = 0
            with self._bg_lock:
                if len(self._bg_done) == finished:
                    return finished * len(self.batch_pairs) + done

    def begin_region(self) -> None:
        self._bg_mark = len(self._bg_done)

    def end_region(self) -> None:
        with self._bg_lock:
            self.jobs.extend(self._bg_done[self._bg_mark :])

    def run_round(self, index: int, traced: bool) -> int:
        """``QUERIES_PER_ROUND`` queries back to back, plus what the batch
        tenant had delivered meanwhile (its in-flight job's progress counts)."""
        # Read on the clock: the batch tenant does not pause between rounds.
        pairs = -self._background_pairs()
        for _ in range(self.QUERIES_PER_ROUND):
            query = self.rng.choice(self.pool)
            job = Job(f"query-{len(self.jobs)}", [(query, c) for c in self.corpus], self.ref)
            handle = self.timed_job(
                job,
                lambda j: self.submit_and_wait(
                    self.client.submit, Bipartite([query], self.corpus), j, traced,
                    priority=self.QUERY_PRIORITY,
                ),
            )
            if handle is not None:
                handle.ack()
            pairs += job.delivered
        return pairs + self._background_pairs()

    def counters(self) -> Dict[str, Any]:
        return self.client.metrics()["session"]

    def stop_background(self) -> None:
        """Cancel the batch tenant's in-flight job and end its loop."""
        self._stop.set()
        self._bg_thread.join(timeout=JOB_TIMEOUT)

    def teardown(self) -> None:
        self.stop_background()
        for session in (self.client, self.monitor):
            session.close()
        # Closing stdin asks the daemon to drain and exit.
        self.daemon.stdin.close()
        try:
            self.daemon.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()


class StoreScenario(Scenario):
    """Cold fill, verbatim rerun, then rewrite-10%-and-rerun cycles; all one-shots.

    Every cycle rewrites the *same* tenth of the items (chosen from the
    seed) with fresh contents, so each rerun finds exactly the pairs of
    the untouched items memoized: 81 % memo reads, 19 % recompute and
    append, an exactly repeating split.
    """

    EDIT_CYCLES = 2
    EDIT_SHARE = 0.10

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.tmp_root = OUT_DIR / "tmp" / f"store-{time.time_ns()}"
        self._dirs = 0
        self.store_dir: Optional[Path] = None
        self.pairs = all_pairs(self.keys)
        self.edit_keys = self.rng.sample(
            self.keys, max(1, round(self.EDIT_SHARE * len(self.keys)))
        )
        self._touched = [p for p in self.pairs if p[0] in self.edit_keys or p[1] in self.edit_keys]
        #: (label, edits to apply first, reference after them) of the next round.
        self._plan: List[Tuple[str, Dict[str, bytes], Dict[Pair, float]]] = []
        self.store_stats: List[Dict[str, Any]] = []

    def temp_dirs(self) -> List[Path]:
        return [self.tmp_root]

    def _fresh_dir(self) -> Path:
        self._drop_dir()
        self._dirs += 1
        self.store_dir = self.tmp_root / f"dir{self._dirs}"
        self.store_dir.mkdir(parents=True)
        return self.store_dir

    def _drop_dir(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def one_shot(self, store_dir: Optional[Path], workload=None):
        rocket = Rocket(
            self.app, self.store,
            self.config(store_dir=str(store_dir) if store_dir else None),
        )
        return rocket, rocket.run(workload if workload is not None else self.keys)

    def setup(self) -> None:
        # The warm-up writes to a scratch directory; every round then
        # starts on an empty one, so its first job is a true cold fill.
        self.one_shot(self._fresh_dir(), self.warmup_job())

    def teardown(self) -> None:
        self._drop_dir()
        shutil.rmtree(self.tmp_root, ignore_errors=True)

    def prepare_round(self, index: int) -> None:
        self._fresh_dir()
        ref = self.ref
        self._plan = [("cold-fill", {}, ref), ("verbatim", {}, ref)]
        for cycle in range(self.EDIT_CYCLES):
            # Fresh contents for the edited keys: the same keys in a
            # corpus generated from another seed.
            _app, alt, _keys = make_corpus(
                self.wdef.app, len(self.keys), self.rng.randrange(1 << 30)
            )
            edits = {k: alt.read(self.app.file_name(k)) for k in self.edit_keys}
            self.items.update(load_items(self.app, alt, self.edit_keys))
            ref = {**ref, **oracle(self.app, self.items, self._touched)}
            self._plan.append((f"edit-{cycle}", edits, ref))
        self.ref = ref

    def run_round(self, index: int, traced: bool) -> int:
        pairs = 0
        for label, edits, ref in self._plan:
            for key, blob in edits.items():
                self.store.write(self.app.file_name(key), blob)
            job = Job(label, self.pairs, ref)

            def run(j: Job):
                with self.tracer.span("result", j.label):
                    return self.one_shot(self.store_dir)

            rocket = self.timed_job(job, run)
            # None for a job served entirely from the memo: the backend never ran.
            job.stats = rocket.last_stats if rocket is not None else None
            pairs += job.delivered
        if traced:
            from repro.store import RocketStore

            directory = RocketStore(self.store_dir)
            self.store_stats.append(directory.stats())
            directory.close()
        return pairs


_KINDS = {"session": SessionScenario, "serve": ServeScenario, "store": StoreScenario}


def build_scenario(name: str, seed: int, smoke: bool, tracer: Tracer) -> Scenario:
    wdef = WORKLOADS[name]
    return _KINDS[wdef.kind](wdef, seed, smoke, tracer)
