"""Always-on service layer: a supervised async gateway over tenant engines.

The batch pipeline answers "replay this stream"; this package answers
"keep answering while the stream never ends".  One gateway process hosts
many *tenants* — independent engine instances with their own bounded ingest
queue, durability policy and supervision — behind TCP and/or Unix-socket
listeners speaking newline-delimited JSON (:mod:`repro.updates.wire`).

The load-shedding contract, in degradation order: under backpressure a
tenant first *widens its coalescer batch window* (coalesce harder, same
memory envelope), and only when the bounded queue is truly full refuses
with an explicit ``overloaded`` reply carrying the resume position — never
silent loss, never unbounded buffering.  A crashed tenant engine is
restored from its newest valid checkpoint and replayed to the exact
pre-crash state while every other tenant keeps serving; a killed *process*
warm-starts from disk and clients resume from the ``offset`` counters.
Graceful shutdown drains queues, writes and verifies final checkpoints,
and only then closes the sockets.

Entry points: ``python -m repro.service --config service.json`` runs a
server; :class:`~repro.service.client.ServiceClient` talks to one;
``python -m repro.service.smoke`` is the SIGKILL chaos drill asserting
bit-identical recovery.
"""

from repro.service.config import (
    DEFAULT_CHECKPOINT_SECONDS,
    ServiceConfig,
    TenantSpec,
)
from repro.service.gateway import MISGateway, ShutdownReport, TenantReport
from repro.service.client import ServiceClient, ServiceThread, connect_with_retry
from repro.service.tenant import SERVICE_FORMAT, Tenant, engine_digest

__all__ = [
    "DEFAULT_CHECKPOINT_SECONDS",
    "ServiceConfig",
    "TenantSpec",
    "MISGateway",
    "ShutdownReport",
    "TenantReport",
    "ServiceClient",
    "ServiceThread",
    "connect_with_retry",
    "Tenant",
    "SERVICE_FORMAT",
    "engine_digest",
]
