"""Crash-state enumeration over traces of :mod:`repro.resilience.durable`.

A small ALICE (Pillai et al., "All File Systems Are Not Created Equal",
OSDI 2014): record the durable calls a writer makes, then for every prefix
of the trace build each on-disk state a power loss right after that prefix
may leave, write it to disk at the recorded paths, and run the real
recovery on it.

The persistence model:

* Everything present when recording began is on disk.
* **File data.**  A file holds the bytes of its last fsync in the prefix
  (or its content when recording began).  Bytes written after that may be
  dropped or torn: the file holds its synced bytes plus a cut of the rest —
  none of it, one byte, half, all but one byte, or all of it.  "The rest" is
  what the file holds at its next fsync in the trace, or at the end.
* **Directory entries.**  A file created, renamed or unlinked in a
  directory, and a subdirectory made in it, is on disk once that directory
  is fsynced.  Until then each such operation may be undone: every subset of
  a directory's pending operations while it has at most
  :data:`SUBSETS_UP_TO`, and every prefix beyond that.  A rename within a
  directory is atomic; a rename between two directories is an unlink in one
  and a link in the other.  A directory whose own entry is undone takes
  everything in it along.

The scenarios at the bottom record the library's durable writers at a size
given by the caller: ``tests/test_crash_states.py`` runs them small in
tier-1, ``tests/crash_states_full.py`` runs them larger in its own CI step.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import re
import shutil
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Callable, Dict, Iterator, List, Set, Tuple
from unittest import mock

from repro.exceptions import ServiceError, SnapshotError
from repro.experiments import fetch
from repro.experiments.runner import create_algorithm, run_algorithm
from repro.generators.random_graphs import gnm_random_graph
from repro.graphs.dynamic_graph import DynamicGraph
from repro.resilience.durable import recording
from repro.resilience.faults import FETCH, FaultPlan, inject_faults
from repro.resilience.supervisor import RetryPolicy
from repro.service.config import ServiceConfig, TenantSpec
from repro.service.tenant import Tenant, engine_digest
from repro.updates.protocol import EMPTY_FINGERPRINT, advance_identity, encode_operation
from repro.updates.streams import mixed_update_stream
from repro.workloads.replay import CheckpointConfig, latest_valid_checkpoint
from repro.workloads.snapshot import load_snapshot, save_snapshot
from repro.workloads.temporal import (
    cached_temporal_stream,
    synthetic_temporal_events,
    write_temporal_edge_list,
)

#: A directory with more pending entry operations than this has only the
#: prefixes of its pending list tried, not every subset.
SUBSETS_UP_TO = 4

_ROOT = PurePosixPath(".")


# --------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------- #
@dataclass
class Trace:
    """The durable calls made under ``root``, with the state around them."""

    root: Path
    initial: Dict[str, bytes]
    initial_dirs: Set[str]
    mtimes: Dict[str, int]
    events: List[tuple] = field(default_factory=list)
    final: Dict[str, bytes] = field(default_factory=dict)


def _scan(root: Path):
    files, dirs, mtimes = {}, set(), {}
    for path in root.rglob("*"):
        relative = path.relative_to(root).as_posix()
        if path.is_dir():
            dirs.add(relative)
        else:
            files[relative] = path.read_bytes()
            mtimes[relative] = path.stat().st_mtime_ns
    return files, dirs, mtimes


@contextmanager
def record(root: Path) -> Iterator[Trace]:
    """Record the durable calls of the block; ``trace.events`` grows live."""
    files, dirs, mtimes = _scan(root)
    trace = Trace(root, files, dirs, mtimes)
    with recording() as events:
        trace.events = events
        yield trace
    trace.events = list(trace.events)
    trace.final = _scan(root)[0]


# --------------------------------------------------------------------- #
# The model
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class State:
    """One on-disk state: directories and file contents, by relative path."""

    dirs: Tuple[str, ...]
    files: Tuple[Tuple[str, bytes], ...]

    @property
    def key(self):
        return self.dirs, tuple(
            (path, hashlib.sha1(data).digest()) for path, data in self.files
        )

    def describe(self) -> str:
        return ", ".join(f"{path}[{len(data)}B]" for path, data in self.files)


def _parent(path: str) -> str:
    return str(PurePosixPath(path).parent)


def _compile(trace: Trace):
    """Per event, its steps over inode numbers: ``("entry", dir, op)``,
    ``("fsync", inode, data)`` or ``("fsync_dir", dir)``."""
    relative = lambda path: Path(path).relative_to(trace.root).as_posix()  # noqa: E731
    inodes = itertools.count()
    names: Dict[str, int] = {}
    synced: Dict[int, bytes] = {}
    for path, data in trace.initial.items():
        names[path] = next(inodes)
        synced[names[path]] = data
    steps: List[List[tuple]] = []
    for op, *args in trace.events:
        if op == "fsync":
            path, data = relative(args[0]), args[1]
            steps.append([("fsync", names[path], data)])
            continue
        paths = [relative(arg) for arg in args]
        if op == "create":
            names[paths[0]] = next(inodes)
            step = [("entry", _parent(paths[0]), ("link", paths[0], names[paths[0]]))]
        elif op == "mkdir":
            step = [("entry", _parent(paths[0]), ("mkdir", paths[0]))]
        elif op == "unlink":
            step = [("entry", _parent(paths[0]), ("unlink", paths[0], names.pop(paths[0])))]
        elif op == "rename":
            source, target = paths
            inode = names.pop(source)
            names[target] = inode
            if _parent(source) == _parent(target):
                step = [("entry", _parent(source), ("move", source, target, inode))]
            else:
                step = [
                    ("entry", _parent(source), ("unlink", source, inode)),
                    ("entry", _parent(target), ("link", target, inode)),
                ]
        elif op == "fsync_dir":
            step = [("fsync_dir", paths[0])]
        else:  # pragma: no cover - the seam records nothing else
            raise AssertionError(f"unknown durable event {op!r}")
        steps.append(step)
    final = {inode: trace.final[path] for path, inode in names.items() if path in trace.final}
    # The initial files took the first inode numbers, in order.
    initial_names = {path: inode for inode, path in enumerate(trace.initial)}
    return steps, synced, final, initial_names


def _choices(pending: List[tuple]) -> List[List[tuple]]:
    if len(pending) <= SUBSETS_UP_TO:
        return [
            [op for op, keep in zip(pending, mask) if keep]
            for mask in itertools.product((False, True), repeat=len(pending))
        ]
    return [pending[:count] for count in range(len(pending) + 1)]


def _cuts(synced: bytes, volatile: bytes) -> List[bytes]:
    if volatile == synced:
        return [synced]
    if not volatile.startswith(synced):
        return [synced, volatile]
    rest = volatile[len(synced):]
    cuts = sorted({0, 1, len(rest) // 2, len(rest) - 1, len(rest)})
    return [synced + rest[:cut] for cut in cuts if 0 <= cut <= len(rest)]


def crash_states(trace: Trace) -> Iterator[Tuple[int, State]]:
    """Every ``(k, state)``: a state a power loss after ``events[:k]`` may leave."""
    steps, initial_synced, final, initial_names = _compile(trace)
    for k in range(len(trace.events) + 1):
        flat = [step for event in steps[:k] for step in event]
        synced = dict(initial_synced)
        last_sync: Dict[str, int] = {}
        for index, step in enumerate(flat):
            if step[0] == "fsync":
                synced[step[1]] = step[2]
            elif step[0] == "fsync_dir":
                last_sync[step[1]] = index
        committed, pending = [], defaultdict(list)
        for index, step in enumerate(flat):
            if step[0] == "entry":
                target = committed if last_sync.get(step[1], -1) > index else pending[step[1]]
                target.append((index, step[2]))
        later: Dict[int, bytes] = {}
        for event in reversed(steps[k:]):
            for step in reversed(event):
                if step[0] == "fsync":
                    later[step[1]] = step[2]
        directories = sorted(pending)
        for chosen in itertools.product(*(_choices(pending[d]) for d in directories)):
            kept = sorted(committed + [op for ops in chosen for op in ops])
            files = dict(initial_names)
            dirs = set(trace.initial_dirs) | {str(_ROOT)}
            for _, op in kept:
                if op[0] == "mkdir":
                    dirs.add(op[1])
                elif op[0] == "link":
                    files[op[1]] = op[2]
                elif op[0] == "unlink":
                    if files.get(op[1]) == op[2]:
                        del files[op[1]]
                elif op[0] == "move":
                    if files.get(op[1]) == op[3]:
                        del files[op[1]]
                    files[op[2]] = op[3]
            present = {str(_ROOT)}
            for directory in sorted(dirs, key=lambda d: len(PurePosixPath(d).parts)):
                if _parent(directory) in present:
                    present.add(directory)
            files = {p: i for p, i in files.items() if _parent(p) in present}
            paths = sorted(files)
            options = []
            for path in paths:
                inode = files[path]
                have = synced.get(inode, b"")
                options.append(_cuts(have, later.get(inode, final.get(inode, have))))
            for contents in itertools.product(*options):
                yield k, State(
                    tuple(sorted(present - {str(_ROOT)})),
                    tuple(zip(paths, contents)),
                )


def materialize(trace: Trace, state: State) -> None:
    """Replace ``trace.root``'s contents by ``state`` (initial mtimes kept)."""
    root = trace.root
    shutil.rmtree(root)
    root.mkdir()
    for directory in state.dirs:
        (root / directory).mkdir()
    for path, data in state.files:
        (root / path).write_bytes(data)
        if trace.initial.get(path) == data:
            mtime = trace.mtimes[path]
            os.utime(root / path, ns=(mtime, mtime))


def check_every_crash(trace: Trace, recover: Callable, check: Callable) -> int:
    """Run ``recover()`` on every distinct crash state and ``check(k, outcome)``
    for every crash point that can leave it; return the count of states."""
    outcomes: Dict = {}
    points = 0
    for k, state in crash_states(trace):
        points += 1
        key = state.key
        try:
            if key not in outcomes:
                materialize(trace, state)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    outcomes[key] = recover()
            check(k, outcomes[key])
        except Exception as exc:
            event = trace.events[k - 1][:2] if k else ("start",)
            raise AssertionError(
                f"crash after event {k} {event}: state {state.describe()}: {exc!r}"
            ) from exc
    assert points >= len(trace.events) + 1
    return len(outcomes)


# --------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------- #
_CHECKPOINT = re.compile(r"-(\d+)\.ckpt\.json$")


def _committed_checkpoints(trace: Trace, directory: Path, initially: int = 0):
    """``durable(k)``: the newest checkpoint offset in ``directory`` whose
    rename a directory fsync had made durable within ``events[:k]``."""
    durable, newest, renamed = [initially], initially, initially
    for op, *args in trace.events:
        if op == "rename" and Path(args[1]).parent == directory:
            match = _CHECKPOINT.search(args[1])
            if match:
                renamed = max(renamed, int(match.group(1)))
        elif op == "fsync_dir" and Path(args[0]) == directory:
            newest = renamed
        durable.append(newest)
    return durable.__getitem__


def _comparable(measurement) -> Dict:
    fields = dataclasses.asdict(measurement)
    del fields["elapsed_seconds"]
    return fields


def _runner_input(operations: int, seed: int):
    graph = gnm_random_graph(24, 40, seed=seed)
    stream = list(mixed_update_stream(graph.copy(), operations, seed=seed + 1))
    return graph, stream


def _runner_reference(name, graph, stream, batch_size, offsets):
    """An uninterrupted run's engine digest at each offset, and its measurement."""
    engine = create_algorithm(name, graph.copy(), None)
    digests, done = {0: engine_digest(engine)}, 0
    for offset in sorted(offsets):
        engine.apply_stream(stream[done:offset], batch_size=batch_size)
        digests[offset], done = engine_digest(engine), offset
    measurement = run_algorithm(name, graph, stream, batch_size=batch_size)
    return digests, _comparable(measurement)


def _check_runner(trace, config, name, graph, stream, batch_size, durable, digests, final):
    """Recovery is ``latest_valid_checkpoint`` →
    ``run_algorithm(resume_from=...)``; each crash state must restore a
    checkpoint at or past the durable one, bit-identical to the
    uninterrupted run there, and finish the stream exactly like it."""

    def recover():
        restored = latest_valid_checkpoint(config.directory, name)
        if restored is None:
            return 0, digests[0], _comparable(
                run_algorithm(name, graph, stream, batch_size=batch_size)
            )
        measurement = run_algorithm(
            name, graph, stream, batch_size=batch_size, resume_from=restored
        )
        return restored.processed, engine_digest(restored.restore()), _comparable(measurement)

    def check(k, outcome):
        offset, digest, measurement = outcome
        assert offset >= durable(k), f"recovered {offset}, durable {durable(k)}"
        assert digest == digests[offset]
        assert measurement == final

    return check_every_crash(trace, recover, check)


def runner_checkpoints(tmp_path: Path, *, operations, batch_size, every, keep, seed=1) -> int:
    """``run_algorithm`` checkpointing every ``every`` operations with keep-N."""
    name = "DyOneSwap"
    graph, stream = _runner_input(operations, seed)
    offsets = list(range(every, operations, every)) + [operations]
    digests, final = _runner_reference(name, graph, stream, batch_size, offsets)
    root = tmp_path / "root"
    root.mkdir()
    config = CheckpointConfig(root / "ckpt", every=every, keep=keep)
    with record(root) as trace:
        run_algorithm(name, graph, stream, batch_size=batch_size, checkpoint=config)
    durable = _committed_checkpoints(trace, config.directory)
    assert durable(len(trace.events)) == operations
    return _check_runner(
        trace, config, name, graph, stream, batch_size, durable, digests, final
    )


def quarantine_torn_checkpoint(tmp_path: Path, *, operations, batch_size, every, seed=2) -> int:
    """Discovery quarantines a torn newest checkpoint, and the resumed run
    writes new ones, while a power loss may strike."""
    name = "DyOneSwap"
    graph, stream = _runner_input(operations, seed)
    offsets = list(range(every, operations, every)) + [operations]
    digests, final = _runner_reference(name, graph, stream, batch_size, offsets)
    root = tmp_path / "root"
    root.mkdir()
    config = CheckpointConfig(root / "ckpt", every=every, keep=None)
    # Checkpoints up to ``cut`` from an earlier run, the newest torn.
    cut = 3 * every
    run_algorithm(name, graph, stream, batch_size=batch_size, checkpoint=config)
    for path in sorted(config.directory.iterdir())[3:]:
        path.unlink()
    torn = sorted(config.directory.iterdir())[-1]
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
    with record(root) as trace, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the quarantine's notice
        resume = latest_valid_checkpoint(config.directory, name)
        assert resume.processed == cut - every
        run_algorithm(
            name, graph, stream, batch_size=batch_size, checkpoint=config,
            resume_from=resume,
        )
    durable = _committed_checkpoints(trace, config.directory, initially=cut - every)
    assert durable(len(trace.events)) == operations
    return _check_runner(
        trace, config, name, graph, stream, batch_size, durable, digests, final
    )


def tenant_restart(tmp_path: Path, *, operations, batch_size, every, keep, seed=3) -> int:
    """A service tenant checkpoints, restarts on its data directory and
    goes on; recovery is a fresh tenant's ``_bootstrap``."""
    spec = TenantSpec(
        name="t", batch_size=batch_size, window_max=batch_size, adaptive=False,
        checkpoint_every=every, checkpoint_keep=keep,
    )
    ops = list(mixed_update_stream(DynamicGraph(), operations, seed=seed, edge_fraction=0.5))
    batches = [ops[i : i + batch_size] for i in range(0, operations, batch_size)]
    engine = create_algorithm(spec.algorithm, DynamicGraph(), None)
    reference = {0: (engine_digest(engine), EMPTY_FINGERPRINT)}
    identity, offset = EMPTY_FINGERPRINT, 0
    for batch in batches:
        engine.apply_batch(batch)
        identity, offset = advance_identity(identity, batch), offset + len(batch)
        reference[offset] = (engine_digest(engine), identity)
    root = tmp_path / "root"
    root.mkdir()
    data = root / "data"
    reported: List[Tuple[int, int]] = []
    with record(root) as trace:
        tenant = Tenant(spec, data)
        tenant._bootstrap()
        for batch in batches[: len(batches) // 2]:
            tenant._apply_batch(list(batch))
            reported.append((len(trace.events), tenant.durable))
        tenant = Tenant(spec, data)
        tenant._bootstrap()
        assert tenant.durable == reported[-1][1]
        for batch in batches[tenant.durable // batch_size :]:
            tenant._apply_batch(list(batch))
            reported.append((len(trace.events), tenant.durable))
    assert reported[-1][1] == operations - operations % every

    def durable(k):
        return max([offset for at, offset in reported if at <= k], default=0)

    def recover():
        recovered = Tenant(spec, data)
        recovered._bootstrap()
        return recovered.durable, recovered.digest(), recovered.fingerprint

    def check(k, outcome):
        offset, digest, fingerprint = outcome
        assert offset >= durable(k), f"recovered {offset}, durable {durable(k)}"
        assert (digest, fingerprint) == reference[offset]

    return check_every_crash(trace, recover, check)


def cache_build(tmp_path: Path, *, events, window, stale, seed=4) -> int:
    """``cached_temporal_stream`` builds its cache (over a stale entry when
    ``stale``) and the stream is read in full."""
    root = tmp_path / "root"
    root.mkdir()
    source = root / "events.txt"
    write_temporal_edge_list(
        synthetic_temporal_events(events, num_vertices=max(8, events // 4), seed=seed),
        source,
    )
    if stale:
        built = cached_temporal_stream(source, window=window)
        built.path.write_bytes(b'{"format": "stale"}\n')
    with record(root) as trace:
        stream = cached_temporal_stream(source, window=window)
        built = len(trace.events)
        assert stream.metadata["cache"] == "miss"
        expected = [encode_operation(op) for op in stream]

    def recover():
        replay = cached_temporal_stream(source, window=window)
        return replay.metadata["cache"], [encode_operation(op) for op in replay]

    def check(k, outcome):
        # A miss rebuilds; a hit replays exactly the uninterrupted stream;
        # once the build has returned, the entry is on disk.
        assert outcome[1] == expected
        assert k < built or outcome[0] == "hit"

    return check_every_crash(trace, recover, check)


def download(tmp_path: Path, *, size, pinned, interrupted, seed=5) -> int:
    """``fetch_file`` of a ``file://`` URL with its sidecar (a transfer
    interrupted after one chunk and retried when ``interrupted``), then
    ``fetch_dataset`` of the downloaded file."""
    upstream = tmp_path / "upstream" / "demo.txt"
    upstream.parent.mkdir()
    payload = bytes((seed * 31 + 7 * i) % 251 for i in range(size))
    upstream.write_bytes(payload)
    digest = hashlib.sha256(payload).hexdigest()
    spec = fetch.SnapDataset(
        name="demo", url=upstream.as_uri(), filename="demo.txt",
        sha256=digest if pinned else None,
    )
    root = tmp_path / "root"
    root.mkdir()
    directory = root / "snap"
    dest = directory / spec.filename
    plan = FaultPlan.at(FETCH, 2) if interrupted else FaultPlan()
    with mock.patch.dict(fetch.SNAP_TEMPORAL_DATASETS, {"demo": spec}):
        with record(root) as trace:
            with inject_faults(plan):
                fetch.fetch_file(
                    spec.url, dest, sha256=spec.sha256, chunk_size=max(1, size // 4),
                    retry=RetryPolicy(max_attempts=2, base_delay=0.0), sleep=lambda _: None,
                )
            fetched = len(trace.events)
            assert fetch.fetch_dataset("demo", directory=directory) == dest

        def recover():
            if dest.exists():
                sidecar = dest.with_name(dest.name + ".sha256").exists()
                fetch.verify_checksum(dest, spec.sha256)  # no false alarm
                found = "verified+sidecar" if sidecar else "verified"
            elif (directory / "demo.txt.part").exists():
                part = (directory / "demo.txt.part").read_bytes()
                assert payload.startswith(part), "a .part that is no prefix"
                found = "partial"
            else:
                found = "absent"
            assert fetch.fetch_dataset("demo", directory=directory, download=True) == dest
            assert dest.read_bytes() == payload
            fetch.verify_checksum(dest, digest)
            return found

        def check(k, outcome):
            # Once fetch_file has returned, the file and its sidecar are on
            # disk.
            assert k < fetched or outcome == "verified+sidecar"

        return check_every_crash(trace, recover, check)


def snapshot_and_config(tmp_path: Path, *, operations, seed=6) -> int:
    """``save_snapshot`` into a new directory and over itself, and
    ``ServiceConfig.save`` twice: each file is absent (its documented error),
    the old version or the new one, and the new one once saved."""
    graph, stream = _runner_input(operations, seed)
    engine = create_algorithm("DyOneSwap", graph.copy(), None)
    root = tmp_path / "root"
    root.mkdir()
    snapshot = root / "snapshots" / "engine.json"
    config_path = root / "service.json"
    configs = [
        ServiceConfig(data_dir=str(root / "data"), tenants=(TenantSpec(name=f"v{v}"),), port=0)
        for v in (1, 2)
    ]
    digests, snapshots_saved, configs_saved = [], [], []
    with record(root) as trace:
        for version in (0, 1):
            if version:
                engine.apply_stream(stream)
            save_snapshot(engine, snapshot)
            digests.append(engine_digest(engine))
            snapshots_saved.append(len(trace.events))
            configs[version].save(config_path)
            configs_saved.append(len(trace.events))

    def recover():
        try:
            restored = engine_digest(load_snapshot(snapshot))
        except SnapshotError:
            restored = None
        try:
            config = ServiceConfig.from_file(config_path)
        except ServiceError:
            config = None
        return restored, config

    def allowed(versions, saved, k):
        # Before the first save returned: absent or the first version.
        # After save n returned: version n, or version n + 1 in progress.
        done = sum(1 for at in saved if at <= k)
        return versions[max(done - 1, 0) : done + 1] + ([None] if done == 0 else [])

    def check(k, outcome):
        restored, config = outcome
        assert restored in allowed(digests, snapshots_saved, k)
        assert config in allowed(configs, configs_saved, k)

    return check_every_crash(trace, recover, check)
