"""The Rocket serving daemon: one warm session, many tenants.

The paper's economics — comparing new items against a large corpus is
cheap once the cache hierarchy is warm — only pays off at user scale
if many clients share one warm session.  :class:`RocketServer` turns a
session (:class:`~repro.runtime.backend.BackendSession`, what
``Rocket.session()`` returns) into that shared service: it owns the
session (local or cluster backend), listens on a TCP socket, and serves
the length-prefixed JSON protocol of :mod:`repro.serve.protocol` with
one handler thread per connection.

Request verbs:

========== ==========================================================
``hello``   bind the connection to a tenant (must be first)
``keys``    the served corpus's key list
``submit``  queue a workload; returns the job id (quota-checked)
``status``  one job's state/progress/accounting
``jobs``    every retained job of the tenant
``wait``    long-poll a job's terminal state
``result``  the finished job's result matrix (or typed failure)
``stream``  a chunk of arrival-ordered triples from a cursor
``cancel``  request cancellation
``ack``     release the finished job's retained results
``metrics`` session + serve metrics registries (PR-6 shapes)
``health``  liveness/drain status for operators
========== ==========================================================

Multi-tenancy maps onto the session's FAIR scheduler: a submission's
requested priority is multiplied by its tenant's weight
(:mod:`repro.serve.tenants`), and per-tenant ``max_active`` /
``max_pending_pairs`` quotas are enforced at admission, before the
session is touched.  Job state lives in the
:class:`~repro.serve.registry.JobRegistry`, so it survives client
disconnects; results are retained until acked or a TTL expires.

Shutdown is graceful by default: ``SIGTERM`` (installed by
:meth:`serve_forever`) starts a **drain** — new submissions are
rejected with ``draining``, live jobs (queued ones included: the
scheduler admits and runs them) resolve, clients still connected
collect the results of the jobs they submitted, then the session
closes and the process exits.
"""

from __future__ import annotations

import signal
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Set

from repro.core.session import RunState, SessionClosed
from repro.core.workload import as_workload
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.runtime.backend import BackendSession
from repro.serve import protocol
from repro.serve.errors import ProtocolError, QuotaExceeded, ServeError, ServerDraining
from repro.serve.registry import DEFAULT_RESULT_TTL, JobRegistry
from repro.serve.tenants import TenantConfig, TenantDirectory

__all__ = ["RocketServer"]

#: Server-side cap on one long-poll round (wait/result/stream).  Bounds
#: how long a handler thread blocks per request; clients loop.
LONG_POLL_CAP = 10.0

#: Triples per stream response frame.
STREAM_CHUNK = 4096


def _number(
    request: Dict[str, Any], name: str, default: Any, kind: type = float, least: Any = None
) -> Any:
    """``request[name]`` (``default`` if absent) as a ``kind``, at least ``least``.

    A field that is not such a number is the client's fault: a
    ``ProtocolError``, never a daemon fault.
    """
    value = request.get(name, default)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(f"{name!r} must be a number, got {value!r}") from None
    if least is not None and not number >= least:
        raise ProtocolError(f"{name!r} must be at least {least}, got {value!r}")
    return number


class _Connection:
    """Per-connection state threaded through the verb handlers."""

    __slots__ = ("sock", "peer", "tenant", "undelivered")

    def __init__(self, sock: socket.socket, peer) -> None:
        self.sock = sock
        self.peer = peer
        self.tenant: Optional[TenantConfig] = None
        #: Ids of jobs submitted here whose results have not been
        #: delivered yet: a drain waits for them while the connection
        #: stays open.
        self.undelivered: Set[str] = set()


class RocketServer:
    """Serve one warm session to many socket clients.

    The server borrows the session — it submits, reads and closes it,
    but does not create it — so any backend the session API supports
    (local, cluster) is served unchanged::

        session = Rocket(app, store, backend="cluster",
                         n_nodes=4).session(policy="fair")
        server = RocketServer(session, keys, port=7070,
                              tenants=TenantDirectory.from_file(cfg))
        server.serve_forever()          # SIGTERM drains and exits

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    construction) — the test and embedding shape, paired with
    :meth:`start` / :meth:`close` instead of :meth:`serve_forever`.
    """

    def __init__(
        self,
        session: BackendSession,
        keys,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: Optional[TenantDirectory] = None,
        result_ttl: float = DEFAULT_RESULT_TTL,
        drain_timeout: float = 120.0,
    ) -> None:
        self._session = session
        self._keys = list(keys)
        self._tenants = tenants if tenants is not None else TenantDirectory.permissive()
        self._registry = JobRegistry(result_ttl=result_ttl)
        self._drain_timeout = drain_timeout
        self._metrics = MetricsRegistry()
        self._log = get_logger("serve.daemon")
        self._lock = threading.Lock()  # guards submit admission + lifecycle
        self._draining = False
        self._closed = False
        self._started = False
        self._stop = threading.Event()
        #: Requests being answered and the open connections; guarded by
        #: ``_responses``.  :meth:`close` lets the answers finish and,
        #: when draining, each open connection collect its jobs' results.
        self._responding = 0
        self._connections: Set[_Connection] = set()
        self._responses = threading.Condition()
        self._started_at = time.monotonic()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
            self._listener.listen(64)
        except OSError:
            self._listener.close()
            raise
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="rocket-serve-accept", daemon=True
        )
        self._purge_thread = threading.Thread(
            target=self._purge_loop, name="rocket-serve-purge", daemon=True
        )

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> str:
        """``host:port`` the daemon listens on."""
        return f"{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> "RocketServer":
        """Begin accepting connections (non-blocking); returns self."""
        with self._lock:
            if self._started:
                return self
            self._started = True
        self._accept_thread.start()
        self._purge_thread.start()
        self._log.info("serving on %s (backend=%s)", self.address, self._session.backend)
        return self

    def serve_forever(self, install_signals: Optional[bool] = None) -> None:
        """Serve until a drain is requested, then drain, close and return.

        Installs a ``SIGTERM``/``SIGINT`` -> :meth:`request_drain`
        handler when running on the main thread (pass
        ``install_signals=False`` to skip).
        """
        if install_signals is None:
            install_signals = threading.current_thread() is threading.main_thread()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_: self.request_drain())
        self.start()
        # Timed: a signal that landed on another thread runs its handler here.
        while not self._stop.wait(timeout=0.2):
            pass
        self.close(drain=True)

    def request_drain(self) -> None:
        """Flip to draining (signal-handler safe) and wake serve_forever.

        New submissions are rejected immediately; everything else —
        status, result, stream of live and retained jobs — keeps
        working while the drain completes.
        """
        self._draining = True
        self._stop.set()

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the daemon; idempotent (unlike a session's close).

        With ``drain=True`` live jobs — queued handles included — run
        to completion first, and every job submitted on a connection
        that is still open waits until its client has read the
        results (a terminal ``result``, a drained ``stream`` or an
        ``ack``), all bounded by ``timeout`` / ``drain_timeout``; a
        client that disconnects stops holding the drain.  With
        ``drain=False`` live jobs are cancelled.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        self._stop.set()
        deadline = time.monotonic() + (
            timeout if timeout is not None else self._drain_timeout
        )
        if drain:
            for record in self._registry.live_records():
                record.wait_drained(timeout=max(0.0, deadline - time.monotonic()))
        # Whatever remains (drain=False, or the deadline passed) is
        # cancelled so no handle is left unresolved behind the close.
        for record in self._registry.cancel_live():
            record.wait_drained(timeout=5.0)
        # Responses still being sent finish first: exiting would cut the
        # frame.  A drain also waits for open connections to collect the
        # results of the jobs they submitted.
        with self._responses:
            self._responses.wait_for(
                lambda: not self._responding
                and not (drain and any(c.undelivered for c in self._connections)),
                max(0.0, deadline - time.monotonic()),
            )
        try:
            self._session.close()
        except SessionClosed:
            pass  # the embedding application closed it first
        try:
            self._listener.close()
        except OSError:
            pass
        self._log.info("daemon closed (drained=%s)", drain)

    def __enter__(self) -> "RocketServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- background loops ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            self._metrics.inc("serve.connections.accepted")
            threading.Thread(
                target=self._serve_connection,
                args=(sock, peer),
                name=f"rocket-serve-conn-{peer[1] if len(peer) > 1 else peer}",
                daemon=True,
            ).start()

    def _purge_loop(self) -> None:
        while not self._closed:
            purged = self._registry.purge_expired()
            if purged:
                self._metrics.inc("serve.jobs.purged", purged)
            time.sleep(1.0)

    # -- connection handling ---------------------------------------------

    def _serve_connection(self, sock: socket.socket, peer) -> None:
        conn = _Connection(sock, peer)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._responses:
            self._connections.add(conn)
        try:
            while True:
                try:
                    request = protocol.recv_message(sock)
                except ProtocolError as exc:
                    # The stream is unframed from here on: answer if
                    # possible, then drop the connection.
                    self._try_send(sock, protocol.error_response(exc))
                    return
                if request is None:
                    return  # clean disconnect; jobs survive in the registry
                self._metrics.inc("serve.requests")
                with self._responses:
                    self._responding += 1
                try:
                    protocol.send_message(sock, self._dispatch(conn, request))
                except OSError:
                    return  # peer vanished mid-response; jobs survive
                finally:
                    with self._responses:
                        self._responding -= 1
                        self._responses.notify_all()
        except OSError:
            return
        finally:
            with self._responses:
                self._connections.discard(conn)
                self._responses.notify_all()
            try:
                sock.close()
            except OSError:
                pass

    def _try_send(self, sock: socket.socket, message: Dict[str, Any]) -> None:
        try:
            protocol.send_message(sock, message)
        except OSError:
            pass

    def _dispatch(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        handler: Optional[Callable] = getattr(self, f"_op_{op}", None) if isinstance(
            op, str
        ) and not op.startswith("_") else None
        try:
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            if conn.tenant is None and op != "hello":
                raise ProtocolError(f"first message must be 'hello', got {op!r}")
            response = handler(conn, request)
        except ServeError as exc:
            self._metrics.inc(f"serve.errors.{type(exc).__name__}")
            return protocol.error_response(exc)
        except Exception as exc:  # noqa: BLE001 - daemon must survive handlers
            self._log.warning("handler %s failed: %s", op, exc)
            self._metrics.inc("serve.errors.internal")
            return protocol.error_response(
                ServeError(f"{type(exc).__name__}: {exc}")
            )
        response.setdefault("ok", True)
        return response

    # -- verbs -----------------------------------------------------------

    def _op_hello(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        version = request.get("version", protocol.PROTOCOL_VERSION)
        if version != protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: client {version}, "
                f"server {protocol.PROTOCOL_VERSION}"
            )
        conn.tenant = self._tenants.resolve(request.get("tenant", "default"))
        return {
            "server": "rocket-serve",
            "version": protocol.PROTOCOL_VERSION,
            "backend": self._session.backend,
            "tenant": conn.tenant.to_dict(),
        }

    def _op_keys(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"keys": list(self._keys)}

    def _op_submit(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = conn.tenant
        workload = protocol.workload_from_wire(request.get("workload"))
        priority = _number(request, "priority", 1.0)
        if not priority > 0:
            raise ProtocolError(f"priority must be positive, got {priority}")
        max_inflight = request.get("max_inflight")
        if max_inflight is not None:
            max_inflight = _number(request, "max_inflight", None, int, least=1)
        # Admission is serialized so two racing submissions cannot both
        # pass a nearly-exhausted quota.
        with self._lock:
            if self._draining:
                raise ServerDraining("daemon is draining; submit elsewhere")
            if tenant.max_active is not None:
                live = len(self._registry.live_records(tenant.name))
                if live >= tenant.max_active:
                    raise QuotaExceeded(
                        f"tenant {tenant.name!r} already has {live} live jobs "
                        f"(max_active={tenant.max_active})"
                    )
            if tenant.max_pending_pairs is not None:
                pending = self._registry.pending_pairs(tenant.name)
                if pending + workload.n_pairs > tenant.max_pending_pairs:
                    raise QuotaExceeded(
                        f"tenant {tenant.name!r} has {pending} pending pairs; "
                        f"+{workload.n_pairs} exceeds max_pending_pairs="
                        f"{tenant.max_pending_pairs}"
                    )
            # Tenant weight multiplies the requested priority: the FAIR
            # scheduler's stride hand-out then gives the tenant its
            # configured share without knowing tenants exist.
            handle = self._session.submit(
                as_workload(workload),
                priority=priority * tenant.weight,
                max_inflight=max_inflight,
            )
            record = self._registry.register(tenant.name, handle)
        with self._responses:
            conn.undelivered.add(record.job_id)
        self._metrics.inc("serve.jobs.submitted")
        self._metrics.inc(f"serve.tenants.{tenant.name}.submitted")
        # Pairs served straight from the persistent memo store (zero when
        # the session has no store): tenants see whose corpora re-use pays.
        if handle.memo_hits:
            self._metrics.inc("serve.store_hits", handle.memo_hits)
            self._metrics.inc(f"serve.tenants.{tenant.name}.store_hits", handle.memo_hits)
        self._log.info(
            "job %s submitted by %s (%s, w=%g)",
            record.job_id, tenant.name, workload.describe(), priority * tenant.weight,
        )
        return {
            "job": record.job_id,
            "pairs": workload.n_pairs,
            "effective_priority": priority * tenant.weight,
        }

    def _delivered(self, job_id: str) -> None:
        """The job's results reached a client: it no longer holds a drain.

        Called while the response is still counted in ``_responding``,
        so a drain keeps waiting until the frame is sent.
        """
        with self._responses:
            for conn in self._connections:
                conn.undelivered.discard(job_id)

    def _record(self, conn: _Connection, request: Dict[str, Any]):
        job_id = request.get("job")
        if not isinstance(job_id, str):
            raise ProtocolError(f"'job' must be a job-id string, got {job_id!r}")
        return self._registry.get(conn.tenant.name, job_id)

    def _op_status(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._record(conn, request).status()

    def _op_jobs(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"jobs": [r.status() for r in self._registry.jobs_of(conn.tenant.name)]}

    def _op_wait(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self._record(conn, request)
        wait = min(_number(request, "timeout", LONG_POLL_CAP), LONG_POLL_CAP)
        record.handle.wait(timeout=max(0.0, wait))
        return record.status()

    def _op_result(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self._record(conn, request)
        wait = min(_number(request, "timeout", LONG_POLL_CAP), LONG_POLL_CAP)
        done = record.handle.wait(timeout=max(0.0, wait))
        status = record.status()
        if not done:
            return status  # state is non-terminal: the client loops
        if record.handle.state is RunState.DONE:
            status["result"] = protocol.matrix_to_wire(record.handle._matrix)
        self._delivered(record.job_id)
        return status

    def _op_stream(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self._record(conn, request)
        cursor = _number(request, "cursor", 0, int, least=0)
        wait = min(_number(request, "wait", LONG_POLL_CAP), LONG_POLL_CAP)
        chunk, drained = record.read_triples(cursor, STREAM_CHUNK, wait=wait)
        if drained:
            self._delivered(record.job_id)
        return {
            "triples": chunk,
            "cursor": cursor + len(chunk),
            "drained": drained,
            "state": record.handle.state.value,
        }

    def _op_cancel(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        record = self._record(conn, request)
        accepted = record.handle.cancel()
        if accepted:
            self._metrics.inc("serve.jobs.cancel_requests")
        return {"accepted": accepted, "state": record.handle.state.value}

    def _op_ack(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        purged = self._registry.ack(conn.tenant.name, request.get("job"))
        self._delivered(request["job"])
        return {"purged": purged}

    def _op_metrics(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        counts = self._registry.counts()
        self._metrics.set_gauge("serve.jobs.live", counts["live"])
        self._metrics.set_gauge("serve.jobs.retained", counts["retained"])
        return {
            "metrics": {
                "session": self._session.metrics(),
                "serve": self._metrics.snapshot(),
            }
        }

    def _op_health(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "serving",
            "backend": self._session.backend,
            "uptime_seconds": time.monotonic() - self._started_at,
            "jobs": self._registry.counts(),
            "n_keys": len(self._keys),
        }
