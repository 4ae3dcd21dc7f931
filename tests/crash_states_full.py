"""Every crash state the durable writers can leave, on longer traces.

The scenarios of ``tests/test_crash_states.py`` at larger sizes: more
checkpoints, several keep-N rotations, both batch modes, a tenant log with
several compactions, cache bodies of several chunk lines, pinned and
unpinned downloads with and without an interrupted transfer.  The name keeps it out of the default collection;
run it explicitly::

    PYTHONPATH=src python -m pytest -q tests/crash_states_full.py
"""

from __future__ import annotations

import pytest

import crashsim


@pytest.mark.parametrize("keep", [1, 2, 3])
@pytest.mark.parametrize("batch_size", [1, 8], ids=["unbatched", "batched"])
def test_runner_checkpoints_with_keep_n(tmp_path, batch_size, keep):
    assert crashsim.runner_checkpoints(
        tmp_path, operations=480, batch_size=batch_size, every=24, keep=keep
    ) > 200


@pytest.mark.parametrize("keep", [1, 3])
def test_tenant_checkpoints_across_a_restart(tmp_path, keep):
    assert crashsim.tenant_restart(
        tmp_path, operations=384, batch_size=8, every=16, keep=keep
    ) > 200


@pytest.mark.parametrize("keep", [1, 3])
def test_tenant_log_commits_compactions_and_a_torn_append(tmp_path, keep):
    assert crashsim.tenant_log(
        tmp_path, vertices=60, operations=640, batch_size=8, every=16, keep=keep
    ) > 500


@pytest.mark.parametrize("batch_size", [1, 4], ids=["unbatched", "batched"])
def test_quarantine_of_a_torn_checkpoint(tmp_path, batch_size):
    assert crashsim.quarantine_torn_checkpoint(
        tmp_path, operations=160, batch_size=batch_size, every=16
    ) > 50


@pytest.mark.parametrize("stale", [False, True], ids=["new", "over-stale"])
def test_temporal_cache_build_and_replay(tmp_path, stale):
    assert crashsim.cache_build(tmp_path, events=600, window=12.0, stale=stale) > 5


@pytest.mark.parametrize("interrupted", [False, True], ids=["whole", "interrupted"])
@pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
def test_download_with_its_sidecar(tmp_path, pinned, interrupted):
    assert crashsim.download(
        tmp_path, size=4096, pinned=pinned, interrupted=interrupted
    ) > 10


def test_snapshot_and_service_config(tmp_path):
    assert crashsim.snapshot_and_config(tmp_path, operations=60) > 20
