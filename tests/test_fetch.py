"""Tests for the SNAP dataset fetch helpers (offline-safe by construction)."""

from __future__ import annotations

import gzip
import hashlib

import pytest

from repro.exceptions import DatasetError
from repro.experiments.fetch import (
    FETCH_RETRY,
    SNAP_TEMPORAL_DATASETS,
    _dataset_dir,
    _dataset_unavailable_message,
    _fetch_file,
    _sha256_of,
    _verify_checksum,
    fetch_dataset,
    snap_temporal_stream,
)
from repro.resilience.supervisor import RetryPolicy

EVENTS_TEXT = "# demo\n1 2 10\n2 3 11\n1 3 14\n3 3 15\n2 4 20\n"


@pytest.fixture()
def events_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(EVENTS_TEXT, encoding="utf-8")
    return path


class TestChecksums:
    def test_sha256_of_matches_hashlib(self, events_file):
        expected = hashlib.sha256(EVENTS_TEXT.encode("utf-8")).hexdigest()
        assert _sha256_of(events_file) == expected

    def test_verify_records_sidecar_on_first_use(self, events_file):
        digest = _verify_checksum(events_file)
        sidecar = events_file.with_name(events_file.name + ".sha256")
        assert sidecar.read_text().strip() == digest
        # A clean re-verify passes.
        assert _verify_checksum(events_file) == digest

    def test_verify_detects_on_disk_corruption(self, events_file):
        _verify_checksum(events_file)
        events_file.write_text(EVENTS_TEXT + "9 9 99\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="modified or corrupted"):
            _verify_checksum(events_file)

    def test_verify_enforces_pinned_digest(self, events_file):
        with pytest.raises(DatasetError, match="SHA-256 mismatch"):
            _verify_checksum(events_file, "0" * 64)


class TestFetchFile:
    def test_file_url_download_with_checksum(self, events_file, tmp_path):
        dest = tmp_path / "downloaded" / "demo.txt"
        digest = _sha256_of(events_file)
        fetched = _fetch_file(events_file.as_uri(), dest, sha256=digest)
        assert fetched == dest
        assert dest.read_text(encoding="utf-8") == EVENTS_TEXT
        assert dest.with_name(dest.name + ".sha256").read_text().strip() == digest

    def test_checksum_mismatch_leaves_nothing_behind(self, events_file, tmp_path):
        dest = tmp_path / "downloaded" / "demo.txt"
        with pytest.raises(DatasetError, match="pinned SHA-256"):
            _fetch_file(events_file.as_uri(), dest, sha256="0" * 64)
        assert not dest.exists()
        assert not list(dest.parent.glob("*.tmp"))

    def test_unreachable_url_raises_dataset_error(self, tmp_path):
        missing = tmp_path / "no-such-file.txt"
        with pytest.raises(DatasetError, match="cannot download"):
            _fetch_file(missing.as_uri(), tmp_path / "out.txt")

    def test_retries_wait_by_the_retry_policy(self, tmp_path):
        missing = tmp_path / "no-such-file.txt"
        policy = RetryPolicy(max_attempts=3, base_delay=0.5, cap=0.75, seed=4)
        slept = []
        with pytest.raises(DatasetError, match="cannot download"):
            _fetch_file(
                missing.as_uri(), tmp_path / "out.txt", retry=policy,
                sleep=slept.append,
            )
        assert slept == [policy.delay(1), policy.delay(2)]

    def test_default_retry_policy(self):
        assert (FETCH_RETRY.max_attempts, FETCH_RETRY.base_delay, FETCH_RETRY.cap) == (
            4, 0.25, 8.0,
        )


class TestFetchDataset:
    def test_unknown_name_rejected(self):
        with pytest.raises(DatasetError, match="unknown SNAP"):
            fetch_dataset("definitely-not-a-dataset")

    def test_absent_file_is_offline_safe(self, tmp_path):
        # download=False (the default) never touches the network.
        assert fetch_dataset("CollegeMsg", directory=tmp_path) is None
        message = _dataset_unavailable_message("CollegeMsg", tmp_path)
        assert "CollegeMsg" in message and "download=True" in message

    def test_present_file_is_verified_and_returned(self, tmp_path):
        spec = SNAP_TEMPORAL_DATASETS["CollegeMsg"]
        path = tmp_path / spec.filename
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(EVENTS_TEXT)
        assert fetch_dataset("CollegeMsg", directory=tmp_path) == path
        # Corruption after the first verification is caught.
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(EVENTS_TEXT + "7 8 99\n")
        with pytest.raises(DatasetError):
            fetch_dataset("CollegeMsg", directory=tmp_path)

    def test_fresh_sidecar_skips_rehashing(self, tmp_path, monkeypatch):
        # Re-hashing a multi-hundred-MB dump on every call would dominate
        # cache-hit replays: once the sidecar digest is at least as new as
        # the file, fetch_dataset must return without reading the payload.
        spec = SNAP_TEMPORAL_DATASETS["CollegeMsg"]
        path = tmp_path / spec.filename
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(EVENTS_TEXT)
        assert fetch_dataset("CollegeMsg", directory=tmp_path) == path  # records sidecar

        from repro.experiments import fetch as fetch_module

        def forbidden(*_args, **_kwargs):  # pragma: no cover - the assertion
            raise AssertionError("_sha256_of must not run on a fresh sidecar")

        monkeypatch.setattr(fetch_module, "_sha256_of", forbidden)
        assert fetch_dataset("CollegeMsg", directory=tmp_path) == path

    def test_dataset_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATASET_DIR", str(tmp_path / "elsewhere"))
        assert _dataset_dir() == tmp_path / "elsewhere"
        assert _dataset_dir(tmp_path) == tmp_path


class TestSnapTemporalStream:
    def test_absent_dataset_raises_with_instructions(self, tmp_path):
        with pytest.raises(DatasetError, match="offline-safe"):
            snap_temporal_stream("CollegeMsg", directory=tmp_path)

    def test_gzipped_dataset_streams_lazily_through_the_cache(self, tmp_path):
        # A stand-in gzip file in the registry's expected location: the
        # full pipeline (gzip parser → windowing → chunked cache → lazy
        # reader) runs without network access.
        spec = SNAP_TEMPORAL_DATASETS["CollegeMsg"]
        path = tmp_path / spec.filename
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(EVENTS_TEXT)
        stream = snap_temporal_stream(
            "CollegeMsg", directory=tmp_path, window=10.0
        )
        assert stream.metadata["cache"] == "miss"
        operations = [str(op) for op in stream]
        assert operations  # the self loop (3,3) was skipped, the rest parsed
        again = snap_temporal_stream("CollegeMsg", directory=tmp_path, window=10.0)
        assert again.metadata["cache"] == "hit"
        assert [str(op) for op in again] == operations
        assert again.length_hint() == len(operations)
