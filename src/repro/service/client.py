"""Synchronous NDJSON client and an in-process service harness.

:class:`ServiceClient` is a blocking socket client for the gateway — the
shape a shell script, a test or a benchmark wants.  It speaks the same
wire module as the server, transparently queues pushed subscription events
while waiting for replies, and implements the at-least-once ingest resume
protocol (:meth:`ingest_stream`): query ``offset``, send from
``applied + 1``, retry ``overloaded`` and ``injected-fault`` replies with
linear backoff.

:class:`ServiceThread` runs a full gateway in a daemon thread with its own
event loop — the harness the test-suite and the in-process resilience smoke
scenario use (the library's dev environment has no async test runner, and a
real socket round-trip exercises strictly more than a coroutine call).
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.exceptions import ServiceError
from repro.service.config import ServiceConfig
from repro.service.gateway import MISGateway, ShutdownReport
from repro.updates.operations import UpdateOperation
from repro.updates.wire import decode_line, encode_line, operations_to_wire


class ServiceClient:
    """Blocking NDJSON client for one gateway connection."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_socket: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        if (port is None) == (unix_socket is None):
            raise ServiceError("connect with exactly one of port / unix_socket")
        if unix_socket is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self._sock.settimeout(timeout)
                self._sock.connect(unix_socket)
            except BaseException:
                self._sock.close()
                raise
        else:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self.events: List[Dict] = []

    # ------------------------------------------------------------------ #
    def request(self, document: Dict) -> Dict:
        """One request/reply round-trip; pushed events are queued aside."""
        self._file.write(encode_line(document))
        self._file.flush()
        while True:
            line = self._file.readline()
            if not line:
                raise ServiceError("connection closed by server")
            message = decode_line(line)
            if "event" in message:
                self.events.append(message)
                continue
            return message

    def next_event(self) -> Dict:
        """Pop the oldest pushed event, reading the socket if none queued."""
        while not self.events:
            line = self._file.readline()
            if not line:
                raise ServiceError("connection closed by server")
            message = decode_line(line)
            if "event" in message:
                self.events.append(message)
        return self.events.pop(0)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Command helpers
    # ------------------------------------------------------------------ #
    def ingest(
        self, tenant: str, operations: Sequence[UpdateOperation], seq: int
    ) -> Dict:
        return self.request(
            {
                "cmd": "ingest",
                "tenant": tenant,
                "seq": seq,
                "ops": operations_to_wire(operations),
            }
        )

    def query(self, tenant: str, vertex, timeout_ms: Optional[int] = None) -> Dict:
        message = {"cmd": "query", "tenant": tenant, "vertex": vertex}
        if timeout_ms is not None:
            message["timeout_ms"] = timeout_ms
        return self.request(message)

    def solution(self, tenant: str) -> Dict:
        return self.request({"cmd": "solution", "tenant": tenant})

    def offset(self, tenant: str) -> Dict:
        return self.request({"cmd": "offset", "tenant": tenant})

    def flush(self, tenant: str) -> Dict:
        return self.request({"cmd": "flush", "tenant": tenant})

    def checkpoint(self, tenant: str) -> Dict:
        return self.request({"cmd": "checkpoint", "tenant": tenant})

    def digest(self, tenant: str) -> Dict:
        return self.request({"cmd": "digest", "tenant": tenant})

    def what_if(
        self, tenant: str, operations: Sequence[UpdateOperation]
    ) -> Dict:
        """Hypothetical query: solution size/delta after ``operations``,
        answered on a discarded copy-on-write fork — the live tenant engine
        and its digest are unchanged."""
        return self.request(
            {
                "cmd": "what_if",
                "tenant": tenant,
                "ops": operations_to_wire(operations),
            }
        )

    def subscribe(self, tenant: str) -> Dict:
        return self.request({"cmd": "subscribe", "tenant": tenant})

    def health(self) -> Dict:
        return self.request({"cmd": "health"})

    def ready(self) -> Dict:
        return self.request({"cmd": "ready"})

    def stats(self, tenant: Optional[str] = None) -> Dict:
        message: Dict = {"cmd": "stats"}
        if tenant is not None:
            message["tenant"] = tenant
        return self.request(message)

    def shutdown(self) -> Dict:
        return self.request({"cmd": "shutdown"})

    # ------------------------------------------------------------------ #
    def ingest_stream(
        self,
        tenant: str,
        operations: Iterable[UpdateOperation],
        *,
        chunk: int = 64,
        max_retries: int = 200,
        backoff: float = 0.02,
    ) -> Dict:
        """At-least-once delivery of a whole stream.

        Resumes from the server's ``applied`` counter (so a restarted server
        receives exactly the suffix it lost), retries ``overloaded`` and
        ``injected-fault`` replies with linear backoff, and re-syncs on
        sequence-gap errors via the ``expected`` hint.
        """
        pending = list(operations)
        reply = self.offset(tenant)
        if not reply.get("ok", False):
            raise ServiceError(f"offset failed: {reply}")
        position = int(reply["applied"])  # resend anything not yet applied
        retries = 0
        while position < len(pending):
            batch = pending[position : position + chunk]
            reply = self.ingest(tenant, batch, position + 1)
            if reply.get("ok"):
                position += len(batch)
                retries = 0
                continue
            retries += 1
            if retries > max_retries:
                raise ServiceError(f"ingest stalled at {position}: {reply}")
            if "expected" in reply:
                position = int(reply["expected"]) - 1
            time.sleep(backoff * min(retries, 10))
        return self.offset(tenant)


def connect_with_retry(
    *,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    unix_socket: Optional[str] = None,
    attempts: int = 100,
    delay: float = 0.05,
    timeout: float = 30.0,
) -> ServiceClient:
    """Connect to a gateway that may still be booting (subprocess drills)."""
    last: Optional[Exception] = None
    for _ in range(attempts):
        try:
            return ServiceClient(
                host=host, port=port, unix_socket=unix_socket, timeout=timeout
            )
        except (OSError, ServiceError) as exc:
            last = exc
            time.sleep(delay)
    raise ServiceError(f"could not connect to service: {last}")


class ServiceThread:
    """A gateway running in a daemon thread with a private event loop.

    Synchronous callers (tests, the smoke scenario) talk to it through
    :class:`ServiceClient` over a real socket; :meth:`stop` performs the
    graceful drain and returns the :class:`~repro.service.gateway.ShutdownReport`.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.gateway: Optional[MISGateway] = None
        self.report: Optional[ShutdownReport] = None
        self.error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    def start(self, timeout: float = 30.0) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceError("service thread did not become ready")
        if self.error is not None:
            raise ServiceError(f"service failed to start: {self.error}")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via .error
            self.error = exc
            self._ready.set()
        finally:
            loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        gateway = MISGateway(self.config)
        try:
            await gateway.start()
            await gateway.wait_ready(timeout=30.0)
        except BaseException as exc:
            self.error = exc
            self._ready.set()
            await gateway.shutdown()
            return
        self.gateway = gateway
        self._ready.set()
        await self._stop.wait()
        self.report = await gateway.shutdown()

    @property
    def port(self) -> Optional[int]:
        return self.gateway.port if self.gateway else None

    @property
    def unix_path(self) -> Optional[str]:
        return self.gateway.unix_path if self.gateway else None

    def client(self, timeout: float = 30.0) -> ServiceClient:
        if self.unix_path:
            return ServiceClient(unix_socket=self.unix_path, timeout=timeout)
        return ServiceClient(
            host=self.config.host, port=self.port, timeout=timeout
        )

    def call(self, func, *args, timeout: float = 30.0):
        """Run ``func(gateway, *args)`` inside the service loop (test hook)."""
        if self._loop is None or self.gateway is None:
            raise ServiceError("service thread is not running")

        async def runner():
            result = func(self.gateway, *args)
            if asyncio.iscoroutine(result):
                result = await result
            return result

        future = asyncio.run_coroutine_threadsafe(runner(), self._loop)
        return future.result(timeout)

    def stop(self, timeout: float = 60.0) -> Optional[ShutdownReport]:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServiceError("service thread did not stop in time")
        if self.error is not None:
            raise ServiceError(f"service thread failed: {self.error}")
        return self.report

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        try:
            self.stop()
        except ServiceError:
            if exc_info[0] is None:
                raise
