"""Rocket-as-a-service: a persistent daemon sharing one warm session.

The paper's central economics — incremental comparison against a warm
cache hierarchy is orders of magnitude cheaper than cold recomputation
— only reach end users if the warm session outlives any single script.
This package provides that form factor:

- :mod:`repro.serve.daemon` — :class:`~repro.serve.daemon.RocketServer`
  owns one session (``Rocket(...).session()``, any backend) and serves
  it over a TCP socket (``rocket-repro serve`` on the CLI);
- :mod:`repro.serve.client` — :func:`~repro.serve.client.connect`
  returns a :class:`~repro.serve.client.ServedSession` mirroring the
  in-process session/handle surface;
- :mod:`repro.serve.protocol` — the length-prefixed JSON wire format
  and the workload/result codecs both sides share;
- :mod:`repro.serve.tenants` — per-tenant fair-share weights and
  admission quotas mapped onto the session's FAIR scheduler;
- :mod:`repro.serve.registry` — disconnect-surviving job records with
  replayable streams and ack/TTL result retention;
- :mod:`repro.serve.errors` — the typed exception vocabulary crossing
  the wire.
"""

from repro.serve.client import ServedHandle, ServedSession, connect
from repro.serve.daemon import RocketServer
from repro.serve.errors import (
    ProtocolError,
    QuotaExceeded,
    RemoteJobFailed,
    ServeConnectionError,
    ServeError,
    ServerDraining,
    UnknownJob,
    UnknownTenant,
)
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.registry import JobRegistry
from repro.serve.tenants import TenantConfig, TenantDirectory

__all__ = [
    "RocketServer",
    "ServedSession",
    "ServedHandle",
    "connect",
    "TenantConfig",
    "TenantDirectory",
    "JobRegistry",
    "PROTOCOL_VERSION",
    "ServeError",
    "ProtocolError",
    "UnknownTenant",
    "UnknownJob",
    "QuotaExceeded",
    "ServerDraining",
    "RemoteJobFailed",
    "ServeConnectionError",
]
