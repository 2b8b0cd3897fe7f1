"""Client library of the Rocket serving daemon.

:func:`connect` opens a socket to a running daemon and returns a
:class:`ServedSession` that mirrors the in-process session
(:class:`~repro.runtime.backend.BackendSession`) — ``submit`` takes
the same :class:`~repro.core.workload.Workload` shapes (or a plain key
list) and returns a :class:`ServedHandle` with the familiar
``result`` / ``stream`` / ``progress`` / ``cancel`` / ``wait`` verbs,
so in-process code ports by swapping the constructor::

    with connect("127.0.0.1:7070", tenant="alice") as session:
        handle = session.submit(DeltaPairs(prior, new), priority=2.0)
        for a, b, value in handle.stream():
            ...
        matrix = handle.result()

Differences a caller can observe, both consequences of the socket:

- a FAILED job's ``result()`` raises
  :class:`~repro.serve.errors.RemoteJobFailed` carrying the remote
  error text, not the original exception type (types don't cross JSON);
- jobs **survive the client**: dropping the connection does not cancel
  anything.  Reconnect and :meth:`ServedSession.handle` by job id to
  reattach, :meth:`ServedHandle.ack` to release retained results.

``stream()`` reads the job's arrival-ordered results by cursor, the way
the in-process ``RunHandle.stream()`` does: every (re)iteration yields
the full sequence from the start.

A session holds one socket and serializes its requests, so one
``ServedSession`` is thread-safe but blocking calls (``result`` on a
slow job) hold other threads' requests back; open one connection per
concurrent consumer instead — connections are cheap, the daemon's
session is the shared resource.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.result import ResultMatrix
from repro.core.session import RunState
from repro.core.workload import Workload, as_workload
from repro.serve import protocol
from repro.serve.errors import (
    ProtocolError,
    RemoteJobFailed,
    ServeConnectionError,
)

__all__ = ["connect", "ServedSession", "ServedHandle"]

#: Client-side long-poll round per request; server caps at its own bound.
POLL_TIMEOUT = 5.0


def _parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    if isinstance(address, tuple):
        host, port = address
        return host, int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"address must be 'HOST:PORT' or a (host, port) tuple, got {address!r}"
        )
    return host or "127.0.0.1", int(port)


def connect(
    address: Union[str, Tuple[str, int]],
    *,
    tenant: str = "default",
    timeout: float = 10.0,
) -> "ServedSession":
    """Open a tenant-bound session to the daemon at ``address``.

    Raises :class:`ServeConnectionError` when nothing listens there,
    and the typed server rejection (e.g.
    :class:`~repro.serve.errors.UnknownTenant`) when the daemon turns
    the ``hello`` down.
    """
    host, port = _parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ServeConnectionError(
            f"cannot connect to rocket daemon at {host}:{port}: {exc}"
        ) from None
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return ServedSession(sock, tenant=tenant, address=f"{host}:{port}")


class ServedSession:
    """A tenant's connection to the daemon; mirrors the in-process session."""

    def __init__(self, sock: socket.socket, *, tenant: str, address: str) -> None:
        self._sock = sock
        self._lock = threading.Lock()
        self._closed = False
        self.address = address
        hello = self._request(
            {"op": "hello", "tenant": tenant, "version": protocol.PROTOCOL_VERSION}
        )
        #: The daemon-resolved tenant configuration (name/weight/quotas).
        self.tenant: Dict[str, Any] = hello["tenant"]
        #: Name of the backend the daemon's session runs on.
        self.backend: str = hello["backend"]

    # -- transport -------------------------------------------------------

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response exchange; raises typed server errors."""
        with self._lock:
            if self._closed:
                raise ServeConnectionError("served session is closed")
            try:
                protocol.send_message(self._sock, message)
                response = protocol.recv_message(self._sock)
            except ProtocolError as exc:
                raise ServeConnectionError(f"connection broke mid-frame: {exc}") from None
            except OSError as exc:
                raise ServeConnectionError(f"connection to daemon lost: {exc}") from None
        if response is None:
            raise ServeConnectionError("daemon closed the connection")
        if not response.get("ok", False):
            protocol.raise_error_response(response)
        return response

    # -- session surface -------------------------------------------------

    def submit(
        self,
        workload: Union[Workload, List[Any]],
        *,
        priority: float = 1.0,
        max_inflight: Optional[int] = None,
    ) -> "ServedHandle":
        """Queue a workload on the daemon; returns its handle.

        Accepts every :class:`Workload` shape or a plain key sequence
        (run as all-pairs), exactly like the in-process ``submit``.  A
        ``FilteredPairs`` predicate is evaluated *here* — the accepted
        pair set travels, not the callable.
        """
        response = self._request(
            {
                "op": "submit",
                "workload": protocol.workload_to_wire(as_workload(workload)),
                "priority": priority,
                "max_inflight": max_inflight,
            }
        )
        return ServedHandle(self, response["job"])

    def run(self, workload) -> ResultMatrix:
        """Submit and block for the result (convenience wrapper)."""
        return self.submit(workload).result()

    def handle(self, job_id: str) -> "ServedHandle":
        """Reattach to a job submitted earlier (same tenant, any
        connection); the reason served jobs survive disconnects."""
        record = ServedHandle(self, job_id)
        record.status()  # fail fast (UnknownJob) instead of on first use
        return record

    def keys(self) -> List[Any]:
        """The served corpus's key list."""
        return self._request({"op": "keys"})["keys"]

    def jobs(self) -> List[Dict[str, Any]]:
        """Status of every retained job of this tenant, oldest first."""
        return self._request({"op": "jobs"})["jobs"]

    def metrics(self) -> Dict[str, Any]:
        """``{"session": ..., "serve": ...}`` metrics snapshots."""
        return self._request({"op": "metrics"})["metrics"]

    def health(self) -> Dict[str, Any]:
        """The daemon's liveness/drain status document."""
        return self._request({"op": "health"})

    def close(self) -> None:
        """Drop the connection.  Idempotent; live jobs keep running."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ServedSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServedHandle:
    """Remote view of one served job; mirrors ``RunHandle``."""

    def __init__(self, client: ServedSession, job_id: str) -> None:
        self._client = client
        self.job_id = job_id
        self._result: Optional[ResultMatrix] = None
        self._last_status: Optional[Dict[str, Any]] = None

    # -- state -----------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The job's full daemon-side status document."""
        self._last_status = self._client._request(
            {"op": "status", "job": self.job_id}
        )
        return self._last_status

    @property
    def state(self) -> RunState:
        return RunState(self.status()["state"])

    def progress(self) -> Tuple[int, int]:
        """``(pairs_done, pairs_total)`` of this job, live."""
        status = self.status()
        return status["pairs_done"], status["pairs_total"]

    def done(self) -> bool:
        return RunState(self.status()["state"]) in (
            RunState.DONE,
            RunState.FAILED,
            RunState.CANCELLED,
        )

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until terminal; True once terminal, False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = POLL_TIMEOUT
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining < 0:
                    return False
            status = self._client._request(
                {"op": "wait", "job": self.job_id, "timeout": max(0.0, remaining)}
            )
            self._last_status = status
            if RunState(status["state"]) in (
                RunState.DONE,
                RunState.FAILED,
                RunState.CANCELLED,
            ):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False

    # -- consumption -----------------------------------------------------

    def result(self, timeout: Optional[float] = None) -> ResultMatrix:
        """Block until the job finishes; return its result matrix.

        Mirrors ``RunHandle.result``: raises
        :class:`~repro.serve.errors.RemoteJobFailed` for FAILED jobs
        (the JSON wire cannot carry the original exception type),
        ``RuntimeError`` for cancelled ones, ``TimeoutError`` when
        ``timeout`` elapses first.  The decoded matrix is cached, so
        repeated calls don't re-ship it.
        """
        if self._result is not None:
            return self._result
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = POLL_TIMEOUT
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
            status = self._client._request(
                {"op": "result", "job": self.job_id, "timeout": max(0.0, remaining)}
            )
            self._last_status = status
            state = RunState(status["state"])
            if state is RunState.DONE:
                self._result = protocol.matrix_from_wire(status["result"])
                return self._result
            if state is RunState.FAILED:
                raise RemoteJobFailed(
                    status.get("error") or "served job failed"
                )
            if state is RunState.CANCELLED:
                raise RuntimeError("job was cancelled")
            if deadline is not None and time.monotonic() >= deadline:
                done, total = status["pairs_done"], status["pairs_total"]
                raise TimeoutError(
                    f"job did not finish within {timeout}s ({done}/{total} pairs)"
                )

    def stream(self) -> Iterator[Tuple[Any, Any, Any]]:
        """Iterate ``(key_a, key_b, value)`` in daemon arrival order.

        Long-polls the daemon's replayable per-job log; unlike the
        in-process stream, every iterator starts from the beginning and
        yields the complete sequence (the log survives reconnects).  A
        FAILED job's :class:`RemoteJobFailed` is raised after the
        delivered pairs are drained, mirroring ``RunHandle.stream``.
        """
        cursor = 0
        while True:
            response = self._client._request(
                {
                    "op": "stream",
                    "job": self.job_id,
                    "cursor": cursor,
                    "wait": POLL_TIMEOUT,
                }
            )
            for a, b, value in response["triples"]:
                yield a, b, value
            cursor = response["cursor"]
            if response["drained"]:
                if RunState(response["state"]) is RunState.FAILED:
                    status = self.status()
                    raise RemoteJobFailed(
                        status.get("error") or "served job failed"
                    )
                return

    def cancel(self) -> bool:
        """Request cancellation; True if the job was still cancellable."""
        return self._client._request({"op": "cancel", "job": self.job_id})[
            "accepted"
        ]

    def ack(self) -> bool:
        """Release the daemon's retained results for this job.

        After the ack (and job completion) the id stops resolving —
        fetch the result first.  Returns True once the record is gone.
        """
        return self._client._request({"op": "ack", "job": self.job_id})["purged"]

    @property
    def accounting(self) -> Optional[Dict[str, Any]]:
        """The finished job's accounting record (dict form), if any."""
        return self.status().get("accounting")
