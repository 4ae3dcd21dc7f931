"""Service configuration: tenants, listeners, durability and retry policy.

A :class:`ServiceConfig` fully describes one gateway process: where it
listens (TCP and/or Unix socket), which tenants it hosts, and the shared
supervision/drain policy.  A :class:`TenantSpec` describes one tenant: the
engine it runs, its batching/backpressure envelope and its durability
policy.  Both are frozen dataclasses validated eagerly in ``__post_init__``
— a service must refuse a bad configuration at start-up, not discover it on
the first overloaded burst.

Batching invariants enforced here (the service's determinism contract
depends on them):

* ``window_max`` is a whole multiple of ``batch_size`` — the adaptive
  backpressure window only ever grows in whole-batch steps, so batch
  boundaries remain ``batch_size``-aligned;
* ``checkpoint_every`` is a whole multiple of ``batch_size`` — checkpoints
  land exactly on batch boundaries, where the solution is k-maximal and the
  engine is snapshot-clean;
* ``queue_cap`` admits at least one full batch — a queue that could never
  fill a batch would deadlock the serve loop.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.exceptions import ExperimentError, ServiceError
from repro.experiments.runner import check_algorithm_options, supports_snapshots
from repro.resilience.durable import atomic_writer
from repro.resilience.supervisor import RetryPolicy
from repro.workloads.replay import CheckpointConfig

PathLike = Union[str, Path]

#: Tenant names become checkpoint-directory names; keep them filesystem- and
#: wire-safe.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: Wall-clock checkpoint cadence used when a tenant sets no durability
#: interval at all — an always-on service must never run indefinitely
#: without a resumable state on disk.
DEFAULT_CHECKPOINT_SECONDS = 30.0


def _build(cls, document, where: str):
    """``cls(**document)``, refusing a key that is not a field of ``cls``."""
    if not isinstance(document, dict):
        raise ServiceError(
            f"{where} must be a JSON object, got {type(document).__name__}"
        )
    known = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(map(repr, set(document) - set(known)))
    if unknown:
        raise ServiceError(
            f"{where}: unknown key(s) {', '.join(unknown)}; known: {', '.join(known)}"
        )
    return cls(**document)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: an engine instance with batching and durability policy.

    Attributes
    ----------
    name:
        Tenant identifier; doubles as the checkpoint subdirectory name.
    algorithm:
        Registered algorithm name; must be snapshot-capable (a tenant that
        cannot be checkpointed could never be crash-recovered).
    batch_size:
        The coalescer batch unit.  In deterministic mode every applied batch
        is exactly this size (the tail only flushes on demand), so the
        solution trajectory is a pure function of the operation sequence.
    queue_cap:
        Bounded ingest queue, in operations.  An ingest that would push the
        queue past the cap is shed whole with an ``overloaded`` reply.
    window_max:
        Upper bound on the adaptive batch window (multiple of
        ``batch_size``).  Under backpressure the serve loop widens the
        window toward this bound before the queue ever sheds.
    adaptive:
        ``True`` (live default): window grows with queue depth — higher
        throughput, timing-dependent batch boundaries.  ``False``: fixed
        ``batch_size`` windows — bit-reproducible trajectories, the mode the
        chaos drill asserts bit-identical recovery in.
    checkpoint_every / checkpoint_every_seconds / checkpoint_keep:
        Durability policy (see :class:`~repro.workloads.replay.CheckpointConfig`);
        with neither interval set the tenant falls back to
        :data:`DEFAULT_CHECKPOINT_SECONDS` of wall clock.
    snapshot:
        Optional engine snapshot to warm-start from when no checkpoint
        exists yet (first boot of a pre-loaded tenant).
    options:
        Extra ``create_algorithm`` options (``k``, ``lazy``, ...); an option
        the algorithm's constructor does not take is refused here.
    """

    name: str
    algorithm: str = "DyOneSwap"
    batch_size: int = 64
    queue_cap: int = 4096
    window_max: int = 512
    adaptive: bool = True
    checkpoint_every: Optional[int] = None
    checkpoint_every_seconds: Optional[float] = None
    checkpoint_keep: int = 3
    snapshot: Optional[str] = None
    options: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _TENANT_NAME.match(self.name):
            raise ServiceError(
                f"tenant name {self.name!r} must match {_TENANT_NAME.pattern}"
            )
        try:
            check_algorithm_options(self.algorithm, self.options)
        except ExperimentError as exc:
            raise ServiceError(f"tenant {self.name!r}: {exc}") from None
        if not supports_snapshots(self.algorithm):
            raise ServiceError(
                f"tenant {self.name!r}: algorithm {self.algorithm!r} does not "
                "support snapshots, so it can be neither checkpointed nor "
                "crash-recovered"
            )
        if self.batch_size < 1:
            raise ServiceError(f"tenant {self.name!r}: batch_size must be >= 1")
        if self.queue_cap < self.batch_size:
            raise ServiceError(
                f"tenant {self.name!r}: queue_cap {self.queue_cap} cannot "
                f"admit one batch of {self.batch_size}"
            )
        if self.window_max < self.batch_size or self.window_max % self.batch_size:
            raise ServiceError(
                f"tenant {self.name!r}: window_max {self.window_max} must be a "
                f"positive multiple of batch_size {self.batch_size}"
            )
        if self.checkpoint_every is not None and (
            self.checkpoint_every < 1 or self.checkpoint_every % self.batch_size
        ):
            raise ServiceError(
                f"tenant {self.name!r}: checkpoint_every {self.checkpoint_every} "
                f"must be a positive multiple of batch_size {self.batch_size} "
                "so checkpoints land on batch boundaries"
            )
        if (
            self.checkpoint_every_seconds is not None
            and self.checkpoint_every_seconds <= 0
        ):
            raise ServiceError(
                f"tenant {self.name!r}: checkpoint_every_seconds must be positive"
            )
        if self.checkpoint_keep < 1:
            raise ServiceError(f"tenant {self.name!r}: checkpoint_keep must be >= 1")

    def checkpoint_config(self, data_dir: PathLike) -> CheckpointConfig:
        """The tenant's durability policy rooted under ``data_dir``."""
        every_seconds = self.checkpoint_every_seconds
        if self.checkpoint_every is None and every_seconds is None:
            every_seconds = DEFAULT_CHECKPOINT_SECONDS
        return CheckpointConfig(
            directory=Path(data_dir) / self.name,
            every=self.checkpoint_every,
            keep=self.checkpoint_keep,
            every_seconds=every_seconds,
        )

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ServiceConfig:
    """One gateway process: listeners, tenants, supervision and drain policy."""

    data_dir: str
    tenants: Tuple[TenantSpec, ...]
    host: str = "127.0.0.1"
    port: Optional[int] = None
    unix_socket: Optional[str] = None
    query_timeout: float = 5.0
    drain_timeout: float = 30.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ServiceError("a service needs at least one tenant")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate tenant names in {names}")
        if self.port is None and self.unix_socket is None:
            raise ServiceError(
                "a service needs a listener: set port (0 for ephemeral) "
                "and/or unix_socket"
            )
        if self.query_timeout <= 0 or self.drain_timeout <= 0:
            raise ServiceError("query_timeout and drain_timeout must be positive")

    def tenant(self, name: str) -> TenantSpec:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise ServiceError(f"unknown tenant {name!r}")

    def to_dict(self) -> Dict:
        document = dataclasses.asdict(self)
        document["tenants"] = list(document["tenants"])
        return document

    @classmethod
    def from_dict(cls, document: Dict) -> "ServiceConfig":
        """Build a config from a JSON document, refusing keys it does not know.

        Every key is a field of :class:`ServiceConfig`, :class:`TenantSpec`
        (each ``tenants`` entry) or
        :class:`~repro.resilience.supervisor.RetryPolicy` (``retry``); an
        absent key takes the field's default.
        """
        if not isinstance(document, dict):
            raise ServiceError(
                f"service config must be a JSON object, got {type(document).__name__}"
            )
        document = dict(document)
        try:
            tenants = []
            for entry in document.get("tenants", ()):
                name = entry.get("name") if isinstance(entry, dict) else None
                tenants.append(_build(TenantSpec, entry, f"tenant {name!r}"))
            document["tenants"] = tuple(tenants)
            if "retry" in document:
                document["retry"] = _build(RetryPolicy, document["retry"], "retry")
            return _build(cls, document, "service config")
        except TypeError as exc:
            raise ServiceError(f"invalid service config: {exc}") from exc

    @classmethod
    def from_file(cls, path: PathLike) -> "ServiceConfig":
        path = Path(path)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ServiceError(f"cannot read service config {path}: {exc}") from exc
        return cls.from_dict(document)

    def save(self, path: PathLike) -> None:
        """Write the config as JSON, atomically (the old file or the new one)."""
        with atomic_writer(path) as stream:
            stream.write((json.dumps(self.to_dict(), indent=2) + "\n").encode("utf-8"))
