"""Durable file operations: the one module that makes a file persist.

Every writer whose output must survive a crash — checkpoints, snapshots,
the temporal stream cache, dataset downloads and their checksum sidecars,
service configs — creates, writes, renames, unlinks and fsyncs through the
five calls below, and no other module in the library does (a tier-1 test
parses every module to hold that):

* :func:`atomic_writer` — a same-directory temp file, fsync, rename over
  the destination, fsync of the directory.  A crash at any point leaves the
  old file or the new one, never a hybrid, and the new one is on disk once
  the block exits.
* :func:`append_writer` — append to a file, fsync on a clean close (the
  resumable ``.part`` file of a download).
* :func:`replace` — rename, then fsync the destination's directory.
* :func:`makedirs` — create the missing directories and fsync the parent
  of each one created, so a file made durable inside a new directory cannot
  vanish with the directory's own entry.  An existing directory costs one
  ``stat``.
* :func:`remove` — unlink, where a missing file is fine.  No fsync: a
  power loss may bring the file back, so only best-effort clean-up uses it
  (keep-N pruning, a poisoned download).

With a trace installed by :func:`recording` (tests only), each call appends
one event per system call that changes what is on disk: ``("create",
path)``, ``("fsync", path, data)`` with the bytes made durable, ``("rename",
src, dst)``, ``("fsync_dir", path)``, ``("mkdir", path)`` and ``("unlink",
path)``.  The test suite's crash-state enumeration replays every prefix of
such a trace under each loss a file system may cause and runs the real
recovery on the result.  In production the trace is ``None`` and each call
pays one ``is None`` check, the pattern of :mod:`repro.resilience.faults`.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

PathLike = Union[str, Path]

#: The installed trace; ``None`` (the default) records nothing.
_TRACE: Optional[List[Tuple]] = None


def _record(op: str, *paths: PathLike) -> None:
    if _TRACE is not None:
        event: Tuple = (op, *map(str, paths))
        if op == "fsync":
            event += (Path(paths[0]).read_bytes(),)
        _TRACE.append(event)


@contextmanager
def recording() -> Iterator[List[Tuple]]:
    """Install an empty trace for the block and yield it (one at a time)."""
    global _TRACE
    if _TRACE is not None:
        raise RuntimeError("a durable-operation trace is already installed")
    _TRACE = []
    try:
        yield _TRACE
    finally:
        _TRACE = None


def _fsync_directory(directory: PathLike) -> None:
    handle = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(handle)
    finally:
        os.close(handle)
    _record("fsync_dir", directory)


@contextmanager
def atomic_writer(path: PathLike) -> Iterator[BinaryIO]:
    """Stream bytes into ``path`` via a same-directory temp file + fsync + rename.

    Yields the open binary temp file.  On a clean exit the data is fsynced,
    the rename commits it, and an fsync of the directory makes the rename
    durable.  On any exception the temp file is removed and ``path`` is
    untouched.  The data fsync runs *before* the rename: without it a power
    loss can surface the rename with zero-length data.  The directory fsync
    runs after it: until the entry reaches the disk, a power loss can undo a
    rename this function already returned from.
    """
    path = Path(path)
    handle, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    _record("create", temp_name)
    try:
        with os.fdopen(handle, "wb") as stream:
            yield stream
            stream.flush()
            os.fsync(stream.fileno())
            _record("fsync", temp_name)
        os.replace(temp_name, path)
        _record("rename", temp_name, path)
    except BaseException:
        try:
            remove(temp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


@contextmanager
def append_writer(path: PathLike) -> Iterator[BinaryIO]:
    """Append bytes to ``path`` (created when missing); fsync on a clean close.

    The new file's directory entry is not fsynced: the caller makes it
    durable by :func:`replace`-ing the file into place.
    """
    path = Path(path)
    created = not path.exists()
    with open(path, "ab") as stream:
        if created:
            _record("create", path)
        yield stream
        stream.flush()
        os.fsync(stream.fileno())
        _record("fsync", path)


def replace(source: PathLike, destination: PathLike) -> None:
    """Rename ``source`` over ``destination``, then fsync the destination's directory."""
    os.replace(source, destination)
    _record("rename", source, destination)
    _fsync_directory(Path(destination).parent)


def makedirs(path: PathLike) -> Path:
    """Create ``path`` and its missing parents; fsync the parent of each one created.

    Raises :class:`FileExistsError` when ``path`` or a parent exists and is
    not a directory, like ``Path.mkdir(parents=True, exist_ok=True)``.
    """
    path = Path(path)
    missing = []
    probe = path
    while not probe.is_dir():
        missing.append(probe)
        probe = probe.parent
    for directory in reversed(missing):
        try:
            os.mkdir(directory)
        except FileExistsError:
            # Another process got there first; the parent fsync below still
            # makes the entry durable before anything is written inside.
            if not directory.is_dir():
                raise
        _record("mkdir", directory)
        _fsync_directory(directory.parent)
    return path


def remove(path: PathLike) -> None:
    """Unlink ``path``; a missing file is fine.  Not fsynced (see the module notes)."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return
    _record("unlink", path)
