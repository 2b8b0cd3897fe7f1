"""Wire protocol of the Rocket serving daemon.

The daemon and its clients speak length-prefixed JSON over a stream
socket: every message is one frame — a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON.  The exchange is strictly
request/response: the client sends one request object (``{"op": ...}``)
and reads exactly one response object (``{"ok": true, ...}`` or
``{"ok": false, "error": CODE, "message": ...}``), so one socket needs
no multiplexing and a thread-per-connection server needs no framing
state beyond the socket itself.

This module owns everything both sides must agree on:

- frame encoding (:func:`send_message` / :func:`recv_message`);
- the workload codec (:func:`workload_to_wire` /
  :func:`workload_from_wire`) translating the four
  :class:`~repro.core.workload.Workload` shapes into plain JSON — a
  :class:`~repro.core.workload.FilteredPairs` predicate cannot travel
  as code, so the *client* evaluates it and ships the accepted pairs,
  which the server validates and rebuilds into a
  :class:`~repro.core.workload.PairSubset` of the key list: index
  columns, the same pair-set format every backend runs;
- the result codec (:func:`matrix_to_wire` / :func:`matrix_from_wire`)
  reusing the ``rocket-results`` JSON document shape of
  :func:`repro.core.result.save_results`;
- the error vocabulary (:data:`ERROR_TYPES` mapping wire codes to the
  exception classes in :mod:`repro.serve.errors`).

Keys must be JSON scalars (strings or numbers): the daemon serves one
corpus whose keys travel in every submit/result exchange.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.result import ResultMatrix, matrix_from_document, result_document
from repro.core.workload import (
    AllPairs,
    Bipartite,
    DeltaPairs,
    PairSubset,
    Workload,
)
from repro.serve.errors import (
    ProtocolError,
    QuotaExceeded,
    ServeError,
    ServerDraining,
    UnknownJob,
    UnknownTenant,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "send_message",
    "recv_message",
    "workload_to_wire",
    "workload_from_wire",
    "matrix_to_wire",
    "matrix_from_wire",
    "error_response",
    "raise_error_response",
]

#: Bumped on incompatible wire changes; ``hello`` exchanges it.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload — a corrupted length prefix must
#: fail the connection, not allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# ----------------------------------------------------------------------
# Framing


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one frame: 4-byte big-endian length + UTF-8 JSON payload."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; returns the decoded object, or None on clean EOF."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between frame header and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frames must hold JSON objects, got {type(message).__name__}"
        )
    return message


# ----------------------------------------------------------------------
# Workload codec


def _check_wire_keys(keys, what: str) -> List[Any]:
    if not isinstance(keys, list) or not keys:
        raise ProtocolError(f"{what} must be a non-empty list")
    for key in keys:
        if not isinstance(key, (str, int, float)):
            raise ProtocolError(
                f"{what} must hold JSON scalar keys, got {type(key).__name__}"
            )
    return keys


def _pair_columns(keys: List[Any], pairs: Any) -> Tuple[np.ndarray, np.ndarray]:
    """A filtered workload's ``[[key_a, key_b], ...]`` as ``i < j`` index columns.

    Every row must name two distinct keys of ``keys``; a reversed pair
    is normalised, and an empty list is refused.
    """
    if not isinstance(pairs, list) or not pairs:
        raise ProtocolError("filtered workload needs a non-empty 'pairs' list")
    index = {key: k for k, key in enumerate(keys)}
    columns = np.empty((2, len(pairs)), np.int64)
    for k, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ProtocolError(f"filtered pair {k} is not a [key_a, key_b] pair: {pair!r}")
        a, b = (index.get(key) if isinstance(key, (str, int, float)) else None for key in pair)
        if a is None or b is None:
            raise ProtocolError(f"filtered pair {k} names a key outside 'keys': {pair!r}")
        if a == b:
            raise ProtocolError(f"filtered pair {k} pairs a key with itself: {pair!r}")
        columns[:, k] = (a, b) if a < b else (b, a)
    return columns[0], columns[1]


def workload_to_wire(workload: Workload) -> Dict[str, Any]:
    """Encode a workload as a plain-JSON description.

    A workload with an explicit accepted set (``FilteredPairs``, whose
    predicate is evaluated here, on the client) ships that set as its
    accepted pair list; the other shapes ship their key lists only.
    """
    for key in workload.keys:
        if not isinstance(key, (str, int, float)):
            raise ProtocolError(
                f"served workloads need JSON scalar keys, got "
                f"{type(key).__name__} ({key!r})"
            )
    if workload.accepted is not None:
        return {
            "kind": "filtered",
            "keys": list(workload.keys),
            "pairs": [[a, b] for a, b in workload.pairs()],
        }
    if isinstance(workload, AllPairs):
        return {"kind": "all", "keys": list(workload.keys)}
    if isinstance(workload, Bipartite):
        return {
            "kind": "bipartite",
            "keys_a": list(workload.keys_a),
            "keys_b": list(workload.keys_b),
        }
    if isinstance(workload, DeltaPairs):
        return {
            "kind": "delta",
            "prior_keys": list(workload.prior_keys),
            "new_keys": list(workload.new_keys),
        }
    raise ProtocolError(
        f"workload type {type(workload).__name__} has no wire encoding"
    )


def workload_from_wire(doc: Any) -> Workload:
    """Rebuild the workload a client described; inverse of the encoder."""
    if not isinstance(doc, dict):
        raise ProtocolError(f"workload must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    try:
        if kind == "all":
            return AllPairs(_check_wire_keys(doc.get("keys"), "keys"))
        if kind == "filtered":
            keys = _check_wire_keys(doc.get("keys"), "keys")
            return PairSubset(AllPairs(keys), *_pair_columns(keys, doc.get("pairs")))
        if kind == "bipartite":
            return Bipartite(
                _check_wire_keys(doc.get("keys_a"), "keys_a"),
                _check_wire_keys(doc.get("keys_b"), "keys_b"),
            )
        if kind == "delta":
            return DeltaPairs(
                _check_wire_keys(doc.get("prior_keys"), "prior_keys"),
                _check_wire_keys(doc.get("new_keys"), "new_keys"),
            )
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"invalid {kind} workload: {exc}") from None
    raise ProtocolError(f"unknown workload kind {kind!r}")


# ----------------------------------------------------------------------
# Result codec


def matrix_to_wire(matrix: ResultMatrix) -> Dict[str, Any]:
    """Encode a (complete or partial) scalar result matrix.

    Same document shape as :func:`repro.core.result.save_results`,
    minus the file: the ordered key list plus ``[i, j, value]`` index
    triples.  Keys are shipped verbatim (JSON scalars), not
    stringified, so the decoded matrix is value-identical.
    """
    return result_document(matrix)


def matrix_from_wire(doc: Any) -> ResultMatrix:
    """Rebuild a result matrix from its wire document.

    A malformed document — a missing field, a row that is not
    ``[i, j, value]``, an index out of range, a non-real value — raises
    :class:`ProtocolError`.
    """
    try:
        return matrix_from_document(doc)
    except ValueError as exc:
        raise ProtocolError(f"malformed result document: {exc}") from None


# ----------------------------------------------------------------------
# Errors over the wire

#: Wire error code -> client-side exception class.
ERROR_TYPES = {
    "protocol": ProtocolError,
    "unknown-tenant": UnknownTenant,
    "unknown-job": UnknownJob,
    "quota": QuotaExceeded,
    "draining": ServerDraining,
    "error": ServeError,
}

_ERROR_CODES = {cls: code for code, cls in ERROR_TYPES.items()}


def error_response(exc: BaseException) -> Dict[str, Any]:
    """Server side: encode an exception as an error response object."""
    code = _ERROR_CODES.get(type(exc), "error")
    return {"ok": False, "error": code, "message": str(exc)}


def raise_error_response(response: Dict[str, Any]) -> None:
    """Client side: raise the typed exception an error response carries."""
    cls = ERROR_TYPES.get(response.get("error"), ServeError)
    raise cls(response.get("message", "server error"))
