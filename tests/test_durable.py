"""The durability seam (:mod:`repro.resilience.durable`) and its exclusivity.

The seam's calls are tested on a real directory with the trace recorder
installed, so each test states exactly which system calls reach the disk.
``TestOneSeam`` parses every module under ``src/`` and fails when a module
other than the seam creates, writes, renames, unlinks or fsyncs a file,
except for an explicit list of writers that are not durable by design.
"""

from __future__ import annotations

import ast
import os
import stat
from pathlib import Path

import pytest

from repro.resilience import durable
from repro.resilience.durable import (
    append_writer,
    atomic_writer,
    makedirs,
    recording,
    remove,
    replace,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestAtomicWriter:
    def test_failed_overwrite_keeps_the_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "doc.json"
        with atomic_writer(path) as stream:
            stream.write(b"intact\n")

        class WriterCrashed(RuntimeError):
            pass

        with pytest.raises(WriterCrashed):
            with atomic_writer(path) as stream:
                stream.write(b"half of a new doc")
                raise WriterCrashed
        assert path.read_bytes() == b"intact\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_rename_is_made_durable_by_a_directory_fsync(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace_, close = os.fsync, os.replace, os.close

        def is_directory(fd):
            return stat.S_ISDIR(os.fstat(fd).st_mode)

        def spy_fsync(fd):
            calls.append("fsync directory" if is_directory(fd) else "fsync file")
            fsync(fd)

        def spy_replace(source, target):
            calls.append("replace")
            replace_(source, target)

        def spy_close(fd):
            if is_directory(fd):
                calls.append("close directory")
            close(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(os, "close", spy_close)
        with atomic_writer(tmp_path / "doc.json") as stream:
            stream.write(b"durable\n")
        assert calls == ["fsync file", "replace", "fsync directory", "close directory"]
        assert (tmp_path / "doc.json").read_bytes() == b"durable\n"

    def test_directory_fd_is_closed_when_its_fsync_fails(self, tmp_path, monkeypatch):
        closed = []
        fsync, close = os.fsync, os.close

        def failing_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("directory fsync failed")
            fsync(fd)

        def spy_close(fd):
            closed.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            close(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        monkeypatch.setattr(os, "close", spy_close)
        with pytest.raises(OSError, match="directory fsync failed"):
            with atomic_writer(tmp_path / "doc.json") as stream:
                stream.write(b"written, not yet durable\n")
        assert closed == [True]

    def test_trace_of_a_write_and_of_an_aborted_one(self, tmp_path):
        path = tmp_path / "doc.json"
        with recording() as trace:
            with atomic_writer(path) as stream:
                stream.write(b"new\n")
            with pytest.raises(KeyError):
                with atomic_writer(path) as stream:
                    stream.write(b"torn")
                    raise KeyError
        temp = trace[0][1]
        assert Path(temp).parent == tmp_path and temp.endswith(".tmp")
        assert trace[:4] == [
            ("create", temp),
            ("fsync", temp, b"new\n"),
            ("rename", temp, str(path)),
            ("fsync_dir", str(tmp_path)),
        ]
        # The aborted write never fsyncs or renames; its temp file goes.
        assert [event[0] for event in trace[4:]] == ["create", "unlink"]
        assert trace[4][1] == trace[5][1] != temp


class TestSeamCalls:
    def test_no_trace_is_installed_in_production(self):
        assert durable._TRACE is None
        with recording():
            with pytest.raises(RuntimeError, match="already installed"):
                with recording():
                    pass
        assert durable._TRACE is None

    def test_makedirs_fsyncs_the_parent_of_each_directory_it_creates(self, tmp_path):
        target = tmp_path / "a" / "b"
        with recording() as trace:
            assert makedirs(target) == target
            makedirs(target)  # existing: no system call that changes the disk
        assert target.is_dir()
        assert trace == [
            ("mkdir", str(tmp_path / "a")),
            ("fsync_dir", str(tmp_path)),
            ("mkdir", str(target)),
            ("fsync_dir", str(tmp_path / "a")),
        ]

    def test_makedirs_refuses_a_file_in_the_way(self, tmp_path):
        (tmp_path / "f").write_bytes(b"")
        with pytest.raises(FileExistsError):
            makedirs(tmp_path / "f" / "sub")

    def test_remove_tolerates_a_missing_file_and_never_fsyncs(self, tmp_path):
        path = tmp_path / "gone"
        path.write_bytes(b"x")
        with recording() as trace:
            remove(path)
            remove(path)
        assert not path.exists()
        assert trace == [("unlink", str(path))]

    def test_append_writer_fsyncs_everything_on_a_clean_close(self, tmp_path):
        path = tmp_path / "data.part"
        with recording() as trace:
            with append_writer(path) as stream:
                stream.write(b"abc")
            with pytest.raises(ValueError):
                with append_writer(path) as stream:
                    stream.write(b"de")
                    raise ValueError
            with append_writer(path) as stream:
                stream.write(b"f")
        assert path.read_bytes() == b"abcdef"
        assert trace == [
            ("create", str(path)),
            ("fsync", str(path), b"abc"),
            ("fsync", str(path), b"abcdef"),
        ]

    def test_replace_fsyncs_the_destination_directory(self, tmp_path):
        (tmp_path / "sub").mkdir()
        source = tmp_path / "x"
        source.write_bytes(b"x")
        with recording() as trace:
            replace(source, tmp_path / "sub" / "y")
        assert (tmp_path / "sub" / "y").read_bytes() == b"x"
        assert trace == [
            ("rename", str(source), str(tmp_path / "sub" / "y")),
            ("fsync_dir", str(tmp_path / "sub")),
        ]


# --------------------------------------------------------------------- #
# One seam
# --------------------------------------------------------------------- #
#: The only module allowed to make files persist.
SEAM = "resilience/durable.py"

#: Writers that are not durable by design, as (module, function, call),
#: each with its reason.  Everything else must go through the seam.
NON_DURABLE = {
    ("workloads/temporal.py", "write_temporal_edge_list", "open"): "writes a source dataset, not recovery state",
    ("service/smoke.py", "_spawn_server", "open"): "a server log of the smoke run",
    ("service/gateway.py", "start", "unlink"): "a stale socket left by a dead gateway",
    ("service/gateway.py", "shutdown", "unlink"): "the gateway's own socket",
}

#: ``module.function`` calls that change what is on disk.
_MODULE_CALLS = {
    ("os", "replace"), ("os", "rename"), ("os", "renames"), ("os", "fsync"),
    ("os", "fdatasync"), ("os", "unlink"), ("os", "remove"), ("os", "mkdir"),
    ("os", "makedirs"), ("os", "open"), ("os", "fdopen"), ("os", "truncate"),
    ("tempfile", "mkstemp"), ("shutil", "move"), ("shutil", "copy"),
    ("shutil", "copy2"), ("shutil", "copyfile"), ("shutil", "rmtree"),
}
#: Method names of :class:`pathlib.Path` that change what is on disk.
_PATH_METHODS = {
    "unlink", "rename", "write_text", "write_bytes", "mkdir", "touch", "rmdir",
}
_WRITE_MODE = set("wax+")


def _writes(call: ast.Call, position: int) -> bool:
    """Whether an ``open`` call's mode (argument ``position`` or ``mode=``)
    may write; a mode that is not a literal counts as writing."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            node = keyword.value
            break
    else:
        if len(call.args) <= position:
            return False
        node = call.args[position]
    if not isinstance(node, ast.Constant):
        return True
    return bool(set(node.value) & _WRITE_MODE)


def _disk_call(call: ast.Call):
    """The name of the disk-changing operation ``call`` makes, or ``None``."""
    func = call.func
    if isinstance(func, ast.Name):
        return "open" if func.id == "open" and _writes(call, 1) else None
    if not isinstance(func, ast.Attribute):
        return None
    owner = func.value.id if isinstance(func.value, ast.Name) else None
    if (owner, func.attr) in _MODULE_CALLS:
        return f"{owner}.{func.attr}"
    if func.attr == "open":
        # Path.open(mode, ...); gzip.open(path, mode, ...).
        return "open" if _writes(call, 1 if owner == "gzip" else 0) else None
    if func.attr in _PATH_METHODS:
        return func.attr
    # Path.replace(target) takes one argument; str.replace takes two.
    if func.attr == "replace" and len(call.args) == 1 and owner != "dataclasses":
        return "replace"
    return None


def _disk_calls(path: Path):
    """Yield ``(function, operation, line)`` for each disk-changing call in
    ``path``, and for each import of such a function from its module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if isinstance(child, ast.Call):
                operation = _disk_call(child)
                if operation is not None:
                    yield function, operation, child.lineno
            if isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    if (child.module, alias.name) in _MODULE_CALLS:
                        yield function, f"{child.module}.{alias.name}", child.lineno
            yield from visit(child, name)

    yield from visit(tree, "<module>")


class TestOneSeam:
    def test_only_the_seam_makes_files_persist(self):
        bypasses = []
        allowed_seen = set()
        for path in sorted(SRC.rglob("*.py")):
            module = path.relative_to(SRC).as_posix()
            if module == SEAM:
                continue
            for function, operation, line in _disk_calls(path):
                key = (module, function, operation.rsplit(".", 1)[-1])
                if key in NON_DURABLE:
                    allowed_seen.add(key)
                    continue
                bypasses.append(f"{module}:{line} {function}() calls {operation}")
        assert not bypasses, "durable writes outside resilience/durable.py:\n" + "\n".join(bypasses)
        # Every allowlisted writer still exists; a stale entry would hide a
        # future bypass under its name.
        assert allowed_seen == set(NON_DURABLE)

    def test_the_scanner_sees_every_kind_of_bypass(self, tmp_path):
        planted = tmp_path / "planted.py"
        planted.write_text(
            "import os, tempfile\n"
            "from os import unlink\n"
            "from pathlib import Path\n"
            "def f(p, mode):\n"
            "    os.replace(p, p)\n"
            "    os.fsync(3)\n"
            "    tempfile.mkstemp()\n"
            "    Path(p).unlink()\n"
            "    Path(p).replace(p)\n"
            "    p.write_bytes(b'')\n"
            "    p.mkdir()\n"
            "    open(p, 'ab')\n"
            "    p.open('w')\n"
            "    open(p, mode)\n"
            "    open(p)\n"
            "    p.open('rb')\n"
            "    'a b'.replace(' ', '')\n",
            encoding="utf-8",
        )
        found = [operation for _, operation, _ in _disk_calls(planted)]
        assert found == [
            "os.unlink", "os.replace", "os.fsync", "tempfile.mkstemp", "unlink", "replace",
            "write_bytes", "mkdir", "open", "open", "open",
        ]
