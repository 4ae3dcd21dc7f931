"""The always-on gateway: NDJSON listeners over supervised tenants.

:class:`MISGateway` binds TCP and/or Unix-socket listeners and serves
newline-delimited JSON requests against its tenants.  Design rules:

* **One loop, no locks.**  Every engine touch happens in the gateway's
  event loop; batch application is synchronous between awaits, so every
  request observes a batch boundary (k-maximal solution, snapshot-clean
  engine).
* **Errors degrade, never detach.**  A malformed line, an unknown command,
  an injected fault or an overloaded queue produce an ``{"ok": false,
  "error": ...}`` reply on the same connection; only transport-level
  failures close it.  An injected ``service.query``/``service.ingest``
  fault is indistinguishable from any other degraded reply — the server
  survives, the client retries.
* **Graceful drain** (:meth:`shutdown`): mark draining (new ingests are
  refused with ``"draining"`` while health keeps answering) → drain every
  tenant — in-flight batches complete, the final checkpoint is written and
  integrity-verified; an injected ``service.shutdown`` crash is absorbed by
  the tenant's supervision loop and the drain retried — → only then close
  listeners and connections.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exceptions import (
    InjectedFault,
    OverloadedError,
    ServiceError,
    WireError,
)
from repro.resilience.durable import makedirs
from repro.resilience.faults import SERVICE_QUERY, trip
from repro.service.config import ServiceConfig
from repro.service.tenant import Tenant
from repro.updates.wire import MAX_LINE_BYTES, decode_line, encode_line, operations_from_wire

#: Slack over the payload cap so a maximal client line still fits the
#: reader's internal separator handling.
_READER_LIMIT = MAX_LINE_BYTES + 1024


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant outcome of a graceful shutdown."""

    name: str
    status: str
    durable: int
    final_checkpoint: Optional[str]


@dataclass(frozen=True)
class ShutdownReport:
    """What the drain accomplished, per tenant, before sockets closed."""

    tenants: Tuple[TenantReport, ...] = field(default_factory=tuple)

    @property
    def clean(self) -> bool:
        return all(report.status == "stopped" for report in self.tenants)


class MISGateway:
    """Serve dynamic-MIS update streams and queries to many clients."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.tenants: Dict[str, Tenant] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        self._servers: List[asyncio.AbstractServer] = []
        self._connections: List[asyncio.StreamWriter] = []
        self._draining = False
        self._closed = asyncio.Event()
        self.port: Optional[int] = None
        self.unix_path: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Create tenants, launch their supervision tasks, bind listeners."""
        data_dir = makedirs(self.config.data_dir)
        for spec in self.config.tenants:
            tenant = Tenant(spec, data_dir, retry=self.config.retry)
            self.tenants[spec.name] = tenant
            self._tasks[spec.name] = asyncio.get_running_loop().create_task(
                tenant.run(), name=f"tenant:{spec.name}"
            )
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=_READER_LIMIT,
            )
            self._servers.append(server)
            self.port = server.sockets[0].getsockname()[1]
        if self.config.unix_socket is not None:
            path = Path(self.config.unix_socket)
            makedirs(path.parent)
            if path.exists():
                path.unlink()
            server = await asyncio.start_unix_server(
                self._handle_connection, path=str(path), limit=_READER_LIMIT
            )
            self._servers.append(server)
            self.unix_path = str(path)

    async def wait_ready(self, timeout: Optional[float] = None) -> None:
        """Block until every tenant is serving (bootstrap complete).

        If a tenant's supervision task dies (or exhausts its retries)
        before ever becoming ready, the tenant's own startup error is
        raised here instead of waiting out the timeout.
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        for name, tenant in self.tenants.items():
            task = self._tasks[name]
            waiter = asyncio.ensure_future(tenant.ready.wait())
            try:
                remaining = None if deadline is None else deadline - loop.time()
                done, _pending = await asyncio.wait(
                    {waiter, task},
                    timeout=remaining,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                waiter.cancel()
            if waiter in done:
                continue
            if task in done:
                exc = task.exception()
                if exc is not None:
                    raise exc
                raise ServiceError(f"tenant {name!r} stopped before becoming ready")
            raise asyncio.TimeoutError(f"tenant {name!r} not ready in time")

    async def wait_closed(self) -> None:
        """Block until a shutdown (signal- or command-initiated) completes."""
        await self._closed.wait()

    async def shutdown(self) -> ShutdownReport:
        """Graceful drain: finish work, persist, verify, then close sockets."""
        if self._draining:
            await self._closed.wait()
            return self._report()
        self._draining = True
        for tenant in self.tenants.values():
            tenant.request_drain()
        for name, task in self._tasks.items():
            try:
                await asyncio.wait_for(task, self.config.drain_timeout)
            except asyncio.TimeoutError:
                task.cancel()
            except Exception:
                # The tenant failed terminally; its status already says so.
                pass
        # Only after every tenant has drained (final checkpoints written and
        # read-back verified) do the listeners and connections go away.
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        self._servers.clear()
        if self.unix_path and Path(self.unix_path).exists():
            Path(self.unix_path).unlink()
        self._closed.set()
        return self._report()

    def _report(self) -> ShutdownReport:
        return ShutdownReport(
            tenants=tuple(
                TenantReport(
                    name=name,
                    status=tenant.status,
                    durable=tenant.durable,
                    final_checkpoint=(
                        str(tenant.final_checkpoint)
                        if tenant.final_checkpoint
                        else None
                    ),
                )
                for name, tenant in self.tenants.items()
            )
        )

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.append(writer)
        subscriptions: List[Tuple[Tenant, object]] = []
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # Over-long line or torn transport: unrecoverable framing.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                reply = await self._dispatch(line, writer, subscriptions)
                try:
                    writer.write(encode_line(reply))
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    break
                if reply.get("bye"):
                    break
        finally:
            for tenant, callback in subscriptions:
                tenant.unsubscribe(callback)
            if writer in self._connections:
                self._connections.remove(writer)
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop already closing
                pass

    async def _dispatch(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        subscriptions: List,
    ) -> Dict:
        try:
            request = decode_line(line)
            command = request.get("cmd")
            handler = getattr(self, f"_cmd_{command}", None)
            if handler is None:
                raise ServiceError(f"unknown command {command!r}")
            reply = await handler(request, writer, subscriptions)
            reply.setdefault("ok", True)
            return reply
        except OverloadedError as exc:
            # Explicit load shedding: the client learns exactly how far the
            # server got and retries the whole request later.
            return {"ok": False, "error": "overloaded", "accepted": exc.accepted}
        except InjectedFault as exc:
            return {"ok": False, "error": "injected-fault", "detail": str(exc)}
        except asyncio.TimeoutError:
            return {"ok": False, "error": "timeout"}
        except (WireError, ServiceError) as exc:
            reply = {"ok": False, "error": str(exc)}
            expected = getattr(exc, "expected", None)
            if expected is not None:
                reply["expected"] = expected
            return reply

    def _tenant(self, request: Dict) -> Tenant:
        name = request.get("tenant")
        if not isinstance(name, str):
            raise ServiceError(f"'tenant' must be a name string, got {name!r}")
        tenant = self.tenants.get(name)
        if tenant is None:
            raise ServiceError(f"unknown tenant {name!r}")
        return tenant

    async def _await_ready(self, tenant: Tenant, request: Dict) -> None:
        """Wait for the tenant's engine (it may be mid-recovery), bounded by
        the request deadline."""
        timeout = request.get("timeout_ms")
        if timeout is None:
            timeout = self.config.query_timeout
        elif isinstance(timeout, (int, float)) and not isinstance(timeout, bool):
            timeout = timeout / 1000.0
        else:
            raise ServiceError(f"'timeout_ms' must be a number, got {timeout!r}")
        await asyncio.wait_for(tenant.ready.wait(), timeout)

    # ------------------------------------------------------------------ #
    # Commands
    # ------------------------------------------------------------------ #
    async def _cmd_ingest(self, request: Dict, writer, subscriptions) -> Dict:
        if self._draining:
            raise ServiceError("draining")
        tenant = self._tenant(request)
        seq = request.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ServiceError("ingest needs an integer 'seq' (1-based)")
        operations = operations_from_wire(request.get("ops", []))
        return dict(tenant.offer(operations, seq))

    async def _cmd_query(self, request: Dict, writer, subscriptions) -> Dict:
        trip(SERVICE_QUERY)
        tenant = self._tenant(request)
        await self._await_ready(tenant, request)
        vertex = request.get("vertex")
        if vertex is None:
            raise ServiceError("query needs a 'vertex'")
        # The label rule of operations_from_wire: bool is an int.
        if not isinstance(vertex, (int, str)):
            raise ServiceError(
                f"query 'vertex' must be an int, str or bool label, got "
                f"{type(vertex).__name__}"
            )
        return {
            "vertex": vertex,
            "in_solution": tenant.in_solution(vertex),
            "applied": tenant.applied,
        }

    async def _cmd_solution(self, request: Dict, writer, subscriptions) -> Dict:
        trip(SERVICE_QUERY)
        tenant = self._tenant(request)
        await self._await_ready(tenant, request)
        return {"solution": tenant.solution(), "applied": tenant.applied}

    async def _cmd_size(self, request: Dict, writer, subscriptions) -> Dict:
        trip(SERVICE_QUERY)
        tenant = self._tenant(request)
        await self._await_ready(tenant, request)
        return {"size": tenant.solution_size(), "applied": tenant.applied}

    async def _cmd_offset(self, request: Dict, writer, subscriptions) -> Dict:
        tenant = self._tenant(request)
        return dict(tenant.offsets())

    async def _cmd_flush(self, request: Dict, writer, subscriptions) -> Dict:
        tenant = self._tenant(request)
        await self._await_ready(tenant, request)
        await asyncio.wait_for(tenant.flush(), self.config.drain_timeout)
        return dict(tenant.offsets())

    async def _cmd_checkpoint(self, request: Dict, writer, subscriptions) -> Dict:
        tenant = self._tenant(request)
        await self._await_ready(tenant, request)
        await asyncio.wait_for(tenant.flush(), self.config.drain_timeout)
        path = tenant.checkpoint()
        return {"checkpoint": str(path) if path else None, **tenant.offsets()}

    async def _cmd_digest(self, request: Dict, writer, subscriptions) -> Dict:
        tenant = self._tenant(request)
        await self._await_ready(tenant, request)
        await asyncio.wait_for(tenant.flush(), self.config.drain_timeout)
        return {"digest": tenant.digest(), "applied": tenant.applied}

    async def _cmd_what_if(self, request: Dict, writer, subscriptions) -> Dict:
        trip(SERVICE_QUERY)
        tenant = self._tenant(request)
        await self._await_ready(tenant, request)
        # Flush first so the hypothetical branches off the state every
        # admitted operation is part of — and so the engine sits at a batch
        # boundary, the precondition for forking it.
        await asyncio.wait_for(tenant.flush(), self.config.drain_timeout)
        operations = operations_from_wire(request.get("ops", []))
        return dict(tenant.what_if(operations))

    async def _cmd_subscribe(self, request: Dict, writer, subscriptions) -> Dict:
        tenant = self._tenant(request)

        def push(event: Dict) -> None:
            try:
                writer.write(encode_line(event))
            except (ConnectionError, RuntimeError, WireError):
                tenant.unsubscribe(push)

        tenant.subscribe(push)
        subscriptions.append((tenant, push))
        return {"subscribed": tenant.spec.name}

    async def _cmd_unsubscribe(self, request: Dict, writer, subscriptions) -> Dict:
        tenant = self._tenant(request)
        for entry in list(subscriptions):
            if entry[0] is tenant:
                tenant.unsubscribe(entry[1])
                subscriptions.remove(entry)
        return {"unsubscribed": tenant.spec.name}

    async def _cmd_health(self, request: Dict, writer, subscriptions) -> Dict:
        # Health always answers, drain or not: liveness is exactly what a
        # draining service still owes its operators.
        return {
            "status": "draining" if self._draining else "serving",
            "tenants": {
                name: tenant.status for name, tenant in self.tenants.items()
            },
        }

    async def _cmd_ready(self, request: Dict, writer, subscriptions) -> Dict:
        ready = not self._draining and all(
            tenant.ready.is_set() for tenant in self.tenants.values()
        )
        return {"ready": ready}

    async def _cmd_stats(self, request: Dict, writer, subscriptions) -> Dict:
        if request.get("tenant") is not None:
            tenant = self._tenant(request)
            return {
                "stats": dict(tenant.stats),
                "crashes": list(tenant.crashes),
                **tenant.offsets(),
            }
        return {
            "tenants": {
                name: {"stats": dict(tenant.stats), **tenant.offsets()}
                for name, tenant in self.tenants.items()
            }
        }

    async def _cmd_shutdown(self, request: Dict, writer, subscriptions) -> Dict:
        # Reply first, then drain: the requester gets an acknowledgement
        # before its transport goes away with the listeners.
        asyncio.get_running_loop().create_task(self.shutdown())
        return {"bye": True, "status": "draining"}
