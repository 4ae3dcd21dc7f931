"""Every crash state the durable writers can leave, at tier-1 size.

For each writer, :mod:`crashsim` records the calls it makes through
:mod:`repro.resilience.durable`, builds every on-disk state a power loss
after each prefix of that trace may leave (lost and torn unsynced data,
undone directory entries) and runs the real recovery on it.  Recovery must
succeed or raise its documented error, restore at least the offset last
reported durable, equal an uninterrupted run there, and never mistake a
crash for corruption.  ``tests/crash_states_full.py`` runs the same
scenarios on longer traces in its own CI step.
"""

from __future__ import annotations

import pytest

import crashsim
from repro.resilience.durable import append_writer, remove


@pytest.mark.parametrize("batch_size", [1, 4], ids=["unbatched", "batched"])
def test_runner_checkpoints_with_keep_n(tmp_path, batch_size):
    states = crashsim.runner_checkpoints(
        tmp_path, operations=48, batch_size=batch_size, every=12, keep=2
    )
    assert states > 20


def test_tenant_checkpoints_across_a_restart(tmp_path):
    assert crashsim.tenant_restart(
        tmp_path, operations=48, batch_size=4, every=8, keep=2
    ) > 20


def test_quarantine_of_a_torn_checkpoint(tmp_path):
    assert crashsim.quarantine_torn_checkpoint(
        tmp_path, operations=40, batch_size=1, every=10
    ) > 20


@pytest.mark.parametrize("stale", [False, True], ids=["new", "over-stale"])
def test_temporal_cache_build_and_replay(tmp_path, stale):
    assert crashsim.cache_build(tmp_path, events=60, window=6.0, stale=stale) > 5


def test_download_with_its_sidecar(tmp_path):
    assert crashsim.download(tmp_path, size=64, pinned=False, interrupted=True) > 10


def test_snapshot_and_service_config(tmp_path):
    assert crashsim.snapshot_and_config(tmp_path, operations=10) > 20


# --------------------------------------------------------------------- #
# The model itself
# --------------------------------------------------------------------- #
def test_model_undoes_unsynced_entries_and_tears_unsynced_data(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    (root / "doc").write_bytes(b"v1")
    temp = str(root / ".doc.tmp")
    trace = crashsim.Trace(root, {"doc": b"v1"}, set(), {"doc": 0})
    trace.events = [
        ("create", temp),
        ("fsync", temp, b"v2v2"),
        ("rename", temp, str(root / "doc")),
        ("fsync_dir", str(root)),
    ]
    states = {}
    for k, state in crashsim.crash_states(trace):
        states.setdefault(k, set()).add(state.files)
    # Before the data fsync, the temp file may hold any cut of its bytes.
    assert {dict(files).get(".doc.tmp") for files in states[1]} == {
        None, b"", b"v", b"v2", b"v2v", b"v2v2",
    }
    # Before the directory fsync, the rename and the create may be undone.
    assert states[3] == {
        (("doc", b"v1"),),
        ((".doc.tmp", b"v2v2"), ("doc", b"v1")),
        (("doc", b"v2v2"),),
    }
    assert states[4] == {(("doc", b"v2v2"),)}


def test_enumeration_catches_a_write_in_place(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    path = root / "doc"
    path.write_bytes(b"old")
    with crashsim.record(root) as trace:
        remove(path)
        with append_writer(path) as stream:
            stream.write(b"new")

    def recover():
        return path.read_bytes() if path.exists() else None

    def check(k, outcome):
        assert outcome in (b"old", b"new")

    with pytest.raises(AssertionError, match="crash after event"):
        crashsim.check_every_crash(trace, recover, check)
