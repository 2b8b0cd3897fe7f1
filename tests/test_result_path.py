"""One result path: a pair is recorded once and read by cursor.

The handle's result matrix is the arrival log; ``stream()`` iterators,
served clients and the memo journal each follow it with a cursor of
their own.  These tests pin what that buys and what it must not break:

- any number of concurrent readers see every pair exactly once, in one
  common order, and ``drained`` turns true exactly at the end;
- a job has one ``RunHandle`` on every path (plain, memo-residual, fully
  memoized, served) and no thread exists only to relay its results;
- memoization is a step of ``submit()``: it honours the closed/dead
  checks and key validation, a short-circuited job is accounted and
  traced like any other, and the pairs a cancelled job did compute are
  journaled.
"""

import errno
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import RunHandle, RunState, SessionClosed
from repro.core.workload import AllPairs
from repro.serve import RocketServer, connect
from repro.store import ResultMemoStore

from tests.test_cluster_runtime import SumApp, cols, make_store
from tests.test_multijob import make_rocket


class PacedApp(SumApp):
    """SumApp with a switchable compare delay.

    The delay lives in a dict: scalar attributes feed ``fingerprint()``,
    and a slow and a fast session must share one store identity.
    """

    def __init__(self, delay=0.0):
        self.pace = {"delay": delay, "validated": 0}

    def validate_keys(self, keys):
        self.pace["validated"] += 1
        super().validate_keys(keys)

    def compare(self, key_a, a, key_b, b):
        if self.pace["delay"]:
            time.sleep(self.pace["delay"])
        return super().compare(key_a, a, key_b, b)


def failing_journal_writes(monkeypatch, failures):
    """Make the memo journal's next ``failures`` writes raise ``OSError`` (a full disk)."""
    open_writer = ResultMemoStore._open_writer
    left = {"failures": failures}

    def open_failing_writer(memo):
        open_writer(memo)
        write = memo._writer.write

        def flaky_write(data):
            if left["failures"]:
                left["failures"] -= 1
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(data)

        memo._writer.write = flaky_write

    monkeypatch.setattr(ResultMemoStore, "_open_writer", open_failing_writer)


def open_session(store, tmp_path=None, app=None, policy="fifo", **cfg):
    if tmp_path is not None:
        cfg["store_dir"] = str(tmp_path)
    return make_rocket("local", store, app=app, **cfg).session(policy=policy)


def wait_for(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


# ----------------------------------------------------------------------
# The cursor read


KEYS = [f"k{i:02d}" for i in range(12)]
PAIRS = [(i, j) for i in range(len(KEYS)) for j in range(i + 1, len(KEYS))]


class TestCursorReaders:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        block_sizes=st.lists(st.integers(1, 9), max_size=10),
        n_writers=st.integers(1, 3),
        chunk_sizes=st.lists(st.integers(1, 11), min_size=1, max_size=4),
        terminal=st.sampled_from([RunState.DONE, RunState.CANCELLED]),
    )
    def test_every_reader_sees_every_pair_once_in_one_order(
        self, seed, block_sizes, n_writers, chunk_sizes, terminal
    ):
        rng = random.Random(seed)
        pairs = rng.sample(PAIRS, len(PAIRS))
        blocks = []
        for size in block_sizes:
            blocks.append(pairs[:size])
            pairs = pairs[size:]
        blocks = [b for b in blocks if b]
        handle = RunHandle(AllPairs(KEYS))
        errors = []

        def reader(chunk_size, out):
            try:
                cursor, drained = 0, False
                while not drained:
                    chunk, drained = handle.read(cursor, chunk_size, wait=10.0)
                    assert len(chunk) <= chunk_size
                    cursor += len(chunk)
                    out.extend(chunk)
                    if drained:
                        # Exactly at the end: terminal, and nothing left.
                        assert handle.done() and cursor == handle.progress()[0]
                    else:
                        assert chunk or not handle.done()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def writer(mine):
            for block in mine:
                handle._record_block(*cols(block, [float(i * 100 + j) for i, j in block]))

        seen = [[] for _ in chunk_sizes]
        readers = [
            threading.Thread(target=reader, args=(size, out))
            for size, out in zip(chunk_sizes, seen)
        ]
        writers = [
            threading.Thread(target=writer, args=(blocks[w::n_writers],))
            for w in range(n_writers)
        ]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=20.0)
        handle._finish(terminal)
        for t in readers:
            t.join(timeout=20.0)
        assert not any(t.is_alive() for t in readers + writers)
        assert not errors, errors

        late = []
        reader(chunk_sizes[0], late)  # started after the finish
        assert not errors, errors
        recorded = {(KEYS[i], KEYS[j], float(i * 100 + j)) for b in blocks for i, j in b}
        assert len(late) == len(recorded) and set(late) == recorded
        assert all(out == late for out in seen)
        assert late == list(handle.stream())

    def test_read_waits_for_pairs_then_for_the_end(self):
        handle = RunHandle(AllPairs(KEYS))
        assert handle.read(0, wait=0.0) == ([], False)
        threading.Timer(0.05, handle._record_block, cols([(0, 1)], [1.0])).start()
        assert handle.read(0, wait=10.0) == ([(KEYS[0], KEYS[1], 1.0)], False)
        threading.Timer(0.05, handle._finish, (RunState.DONE,)).start()
        assert handle.read(1, wait=10.0) == ([], True)
        with pytest.raises(ValueError, match="negative"):
            handle.read(-1)

    def test_two_stream_iterators_each_yield_the_full_run_in_order(self):
        store, keys = make_store(9)
        session = open_session(store, app=PacedApp(delay=0.002))
        try:
            handle = session.submit(AllPairs(keys))
            first, second = handle.stream(), handle.stream()
            interleaved = [(next(first), next(second)) for _ in range(5)]
            assert all(a == b for a, b in interleaved)
            rest_first, rest_second = list(first), list(second)
            assert rest_first == rest_second
            assert len(interleaved) + len(rest_first) == handle.workload.n_pairs
            assert set(list(zip(*interleaved))[0]) | set(rest_first) == set(
                handle.result().items()
            )
        finally:
            session.close()


# ----------------------------------------------------------------------
# One handle, no relay threads


#: Name prefixes of the threads that execute a job's work (node pipeline
#: workers, the engine's job pool, device kernel threads).
EXECUTOR_THREADS = ("worker", "job", "dev-")


def threads_started_by(submit):
    """Names of the threads alive mid-job that were not alive at submit."""
    before = set(threading.enumerate())
    handle = submit()
    wait_for(lambda: handle.progress()[0] > handle.memo_hits)
    started = {t.name for t in threading.enumerate() if t not in before}
    return handle, started


class TestNoRelays:
    def test_a_store_backed_job_starts_only_executor_threads(self, tmp_path):
        store, keys = make_store(10)
        app = PacedApp()
        session = open_session(store, tmp_path, app=app)
        try:
            session.submit(AllPairs(keys[:5])).result()  # memoize a part
            app.pace["delay"] = 0.005
            handle, started = threads_started_by(lambda: session.submit(AllPairs(keys)))
            assert handle.memo_hits == 10 and not handle.done()
            assert all(name.startswith(EXECUTOR_THREADS) for name in started), started
            assert handle.result(timeout=60.0).is_complete()
        finally:
            session.close()

    def test_a_served_job_starts_only_executor_threads(self):
        store, keys = make_store(10)
        session = open_session(store, app=PacedApp(delay=0.005), policy="fair")
        server = RocketServer(session, keys).start()
        try:
            with connect(server.address) as client:
                client.health()  # the connection's handler thread is up
                remote = {}

                def submit():
                    remote["handle"] = client.submit(AllPairs(keys))
                    (record,) = server._registry.live_records()
                    return record.handle

                handle, started = threads_started_by(submit)
                assert not handle.done()
                assert all(name.startswith(EXECUTOR_THREADS) for name in started), started
                assert remote["handle"].result(timeout=60).is_complete()
        finally:
            server.close()

    @pytest.mark.parametrize("path", ["plain", "memo-residual", "memoized", "served"])
    def test_one_run_handle_per_job(self, path, tmp_path, monkeypatch):
        store, keys = make_store(6)
        stored = path in ("memo-residual", "memoized")
        session = open_session(store, tmp_path if stored else None, policy="fair")
        server = None
        try:
            if stored:
                warm = keys[:4] if path == "memo-residual" else keys
                session.submit(AllPairs(warm)).result()
            built = []
            init = RunHandle.__init__

            def counting_init(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)

            monkeypatch.setattr(RunHandle, "__init__", counting_init)
            if path == "served":
                server = RocketServer(session, keys).start()
                with connect(server.address) as client:
                    assert client.run(keys).is_complete()
            else:
                handle = session.submit(AllPairs(keys))
                assert handle.result(timeout=60.0).is_complete()
                assert built == [handle]
                assert handle.memo_hits == {"plain": 0, "memo-residual": 6, "memoized": 15}[path]
            assert len(built) == 1
        finally:
            if server is not None:
                server.close()
            else:
                session.close()


# ----------------------------------------------------------------------
# Memoization as a step of submit()


class TestMemoStep:
    def memoized_session(self, tmp_path, app=None, **kw):
        """A fresh session over a store that already holds every pair."""
        store, keys = make_store(6)
        app = app if app is not None else PacedApp()
        cold = open_session(store, tmp_path, app=app)
        try:
            cold.submit(AllPairs(keys)).result()
        finally:
            cold.close()
        return open_session(store, tmp_path, app=app, **kw), keys, app

    def test_closed_session_rejects_a_fully_memoized_submit(self, tmp_path):
        session, keys, _ = self.memoized_session(tmp_path)
        session.close()
        with pytest.raises(SessionClosed):
            session.submit(AllPairs(keys))

    def test_dead_session_rejects_a_fully_memoized_submit(self, tmp_path):
        session, keys, _ = self.memoized_session(tmp_path)
        try:
            session._mark_fatal("injected")
            with pytest.raises(RuntimeError, match="session is dead"):
                session.submit(AllPairs(keys))
        finally:
            session.close()

    def test_fully_memoized_submit_still_validates_keys(self, tmp_path):
        session, keys, app = self.memoized_session(tmp_path)
        try:
            validated = app.pace["validated"]
            handle = session.submit(AllPairs(keys))
            assert handle.state is RunState.DONE and handle.memo_hits == 15
            assert app.pace["validated"] == validated + 1
        finally:
            session.close()

    def test_short_circuited_job_is_accounted_and_listed(self, tmp_path):
        session, keys, _ = self.memoized_session(tmp_path)
        try:
            handle = session.submit(AllPairs(keys))
            assert handle.state is RunState.DONE and handle.stats is None
            acct = handle.accounting
            assert acct.queued_seconds == 0.0 and acct.running_seconds == 0.0
            assert acct.pairs_total == 0  # nothing was owed by the schedule
            snap = session.metrics()
            assert [r["job_id"] for r in snap["jobs"]["recent"]] == [acct.job_id]
            assert snap["store"]["memo"]["jobs_short_circuited"] == 1
            assert session.last_stats is None
            # Ids keep counting through short-circuited jobs.
            assert session.submit(AllPairs(keys)).accounting.job_id == acct.job_id + 1
        finally:
            session.close()

    def test_served_short_circuited_job_reports_accounting(self, tmp_path):
        session, keys, _ = self.memoized_session(tmp_path, policy="fair")
        server = RocketServer(session, keys).start()
        try:
            with connect(server.address) as client:
                handle = client.submit(AllPairs(keys))
                assert handle.result(timeout=30).is_complete()
                status = handle.status()
            assert status["state"] == "done" and status["streamed"] == 15
            assert status["accounting"]["queued_seconds"] == 0.0
        finally:
            server.close()

    def test_cancelled_job_keeps_and_journals_what_it_has(self, tmp_path):
        store, keys = make_store(10)
        app = PacedApp()
        warm = open_session(store, tmp_path, app=app)
        try:
            memoized = set(warm.submit(AllPairs(keys[:5])).result().items())
        finally:
            warm.close()

        app.pace["delay"] = 0.01
        session = open_session(store, tmp_path, app=app)
        try:
            handle = session.submit(AllPairs(keys))
            for n, _ in enumerate(handle.stream(), 1):
                if n == len(memoized) + 3:
                    assert handle.cancel()
                    break
            assert handle.wait(timeout=30.0) and handle.state is RunState.CANCELLED
            kept = list(handle.stream())  # from the start again
            assert set(kept[: len(memoized)]) == memoized
            assert len(memoized) + 3 <= len(kept) < AllPairs(keys).n_pairs
            snap = session.metrics()["store"]["memo"]
            assert snap["appended"] == len(kept) - len(memoized)
        finally:
            session.close()

        app.pace["delay"] = 0.0
        again = open_session(store, tmp_path, app=app)
        try:
            rerun = again.submit(AllPairs(keys))
            assert rerun.memo_hits == len(kept)
            values = {(a, b): v for a, b, v in rerun.result().items()}
            assert all(values[(a, b)] == v for a, b, v in kept)
        finally:
            again.close()

    @pytest.mark.parametrize("delay", [0.0, 0.01], ids=["at-retire", "mid-run"])
    def test_a_failed_journal_write_never_reaches_the_job(
        self, tmp_path, monkeypatch, delay
    ):
        """The store is not load-bearing: a failed journal write fails
        neither the job nor the driver, and costs exactly its pairs."""
        store, keys = make_store(8)
        failing_journal_writes(monkeypatch, 1)
        session = open_session(store, tmp_path, app=PacedApp(delay), policy="fair")
        try:
            handle = session.submit(AllPairs(keys))
            assert handle.wait(timeout=30.0) and handle.state is RunState.DONE
            assert handle.result().is_complete() and handle.stats.n_pairs == 28
            memo = session.metrics()["store"]["memo"]
            assert memo["append_failures"] >= 1
            assert memo["appended"] + memo["append_failures"] == 28
            # The driver survived: the session still runs jobs, and the
            # rerun is served what was journaled and recomputes the rest.
            again = session.submit(AllPairs(keys))
            assert again.wait(timeout=30.0) and again.state is RunState.DONE
            assert again.memo_hits == memo["appended"]
            assert again.stats.n_pairs == memo["append_failures"]
            assert again.result().to_dense().tolist() == handle.result().to_dense().tolist()
        finally:
            session.close()

    def test_a_result_that_is_not_a_real_number_fails_the_job(self, tmp_path):
        """``postprocess`` returns a real number: anything else fails the job with TypeError."""

        class TextApp(PacedApp):
            def postprocess(self, key_a, key_b, raw):
                return "close" if key_b == "item04" else super().postprocess(key_a, key_b, raw)

        store, keys = make_store(6)
        session = open_session(store, tmp_path, app=TextApp())
        try:
            handle = session.submit(AllPairs(keys))
            assert handle.wait(timeout=30.0) and handle.state is RunState.FAILED
            with pytest.raises(TypeError, match="real numbers"):
                handle.result()
            streamed = []
            with pytest.raises(TypeError):
                streamed.extend(handle.stream())
            assert all(b != "item04" for _, b, _ in streamed)
        finally:
            session.close()

    def test_rerun_right_after_result_recomputes_nothing(self, tmp_path):
        """Every computed pair is journaled before its handle turns terminal."""
        store, keys = make_store(8)
        session = open_session(store, tmp_path, policy="fair")
        try:
            first = session.submit(AllPairs(keys))
            first.result()
            assert first.stats.n_pairs == 28
            second = session.submit(AllPairs(keys))
            assert second.state is RunState.DONE and second.memo_hits == 28
            assert list(second.stream()) and session.last_stats is first.stats
        finally:
            session.close()


# ----------------------------------------------------------------------
# One job, one id, from the socket to the store


class TestOneTrace:
    def test_served_store_backed_job_is_one_id_across_lanes(self, tmp_path):
        store, keys = make_store(8)
        session = open_session(store, tmp_path, policy="fair", profiling=True)
        server = RocketServer(session, keys).start()
        try:
            with connect(server.address) as client:
                handle = client.submit(AllPairs(keys))
                assert handle.result(timeout=60).is_complete()
                job_id = handle.status()["accounting"]["job_id"]
                again = client.submit(AllPairs(keys))  # short-circuited
                assert again.result(timeout=60).is_complete()
                again_id = again.status()["accounting"]["job_id"]
            trace = session.profile()
            events = [e for pid in trace.pids() for e in trace.events_for_pid(pid)]
        finally:
            server.close()
        by_lane = {}
        for e in events:
            if e.job_id == job_id:
                by_lane.setdefault(e.lane, set()).add(e.label)
        assert {"queued", "run"} <= by_lane["scheduler"]
        assert any("compare" in labels for lane, labels in by_lane.items()
                   if lane.startswith("gpu"))
        assert by_lane["store"] == {"memo:lookup", "memo:append"}
        # Every store span belongs to a job; the memoized rerun only looked up.
        store_spans = [e for e in events if e.lane == "store"]
        assert {e.job_id for e in store_spans} == {job_id, again_id}
        assert {e.label for e in store_spans if e.job_id == again_id} == {"memo:lookup"}
