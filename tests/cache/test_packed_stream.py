"""Tests for the packed RPM2 stream file and the artifact-backed cache.

The RPM2 layout is the columnar on-disk form of a
:class:`~repro.cache.hierarchy.MissStream`; the stream artifact store
persists captures in it for :func:`cached_miss_stream`.
"""

import gzip
import shutil
from pathlib import Path

import pytest

from repro.cache.artifacts import (
    StreamArtifactStore,
    get_artifact_store,
    set_artifact_store,
)
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import (
    MissStream,
    cached_miss_stream,
    capture_miss_stream,
    clear_miss_stream_cache,
)
from repro.errors import TraceFormatError
from repro.obs.metrics import get_metrics
from repro.storage.fsck import scan_directory
from repro.trace.synthetic import AtumWorkload

#: An artifact and sidecar for FIXTURE_WORKLOAD at a 1K-16 L1, written
#: by the earlier (mmap-based) stream code: artifact directories and
#: fsck spools written then must stay valid, byte layout and
#: content_hash included.
FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures" / "rpm2"
FIXTURE_KEY = "c084e9f164b7068e"
FIXTURE_WORKLOAD = AtumWorkload(segments=3, references_per_segment=300, seed=7)


@pytest.fixture(scope="module")
def stream():
    workload = AtumWorkload(segments=3, references_per_segment=4_000, seed=7)
    return capture_miss_stream(iter(workload), DirectMappedCache(2048, 16))


class TestRpm2SaveLoad:
    def test_roundtrip(self, stream, tmp_path):
        path = tmp_path / "stream.rpm2"
        stream.save(path)
        with open(path, "rb") as handle:
            assert handle.read(4) == b"RPM2"
        loaded = MissStream.load(path)
        assert loaded.events == stream.events
        assert loaded.processor_references == stream.processor_references

    def test_gzip_roundtrip(self, stream, tmp_path):
        path = tmp_path / "stream.rpm2.gz"
        stream.save(path)
        with gzip.open(path, "rb") as handle:
            assert handle.read(4) == b"RPM2"
        assert MissStream.load(path).events == stream.events

    def test_content_hash_stable_across_roundtrip(self, stream, tmp_path):
        path = tmp_path / "stream.rpm2"
        stream.save(path)
        assert MissStream.load(path).content_hash() == stream.content_hash()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.rpm2"
        MissStream().save(path)
        loaded = MissStream.load(path)
        assert loaded.events == []
        assert loaded.processor_references == 0


class TestRpm2Errors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpm2"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(TraceFormatError, match="not a saved miss stream"):
            MissStream.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.rpm2"
        path.write_bytes(b"RPM2" + b"\x00" * 4)
        with pytest.raises(TraceFormatError, match="header"):
            MissStream.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rpm2"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="not a saved miss stream"):
            MissStream.load(path)

    def test_truncated_columns(self, stream, tmp_path):
        path = tmp_path / "cut.rpm2"
        stream.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(TraceFormatError, match="column"):
            MissStream.load(path)

    def test_unsupported_version(self, stream, tmp_path):
        path = tmp_path / "vers.rpm2"
        stream.save(path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version"):
            MissStream.load(path)


class TestCommittedArtifact:
    """RPM2 files written before this reader stay valid, byte for byte."""

    def test_loads_bit_identical_to_a_fresh_capture(self, tmp_path):
        loaded = MissStream.load(FIXTURE_DIR / f"{FIXTURE_KEY}.rpm2")
        fresh = capture_miss_stream(
            iter(FIXTURE_WORKLOAD), DirectMappedCache(1024, 16)
        )
        assert loaded.events == fresh.events
        assert loaded.processor_references == fresh.processor_references
        resaved = tmp_path / "resaved.rpm2"
        loaded.save(resaved)
        assert resaved.read_bytes() == (
            FIXTURE_DIR / f"{FIXTURE_KEY}.rpm2"
        ).read_bytes()

    def test_store_serves_it_under_the_same_key(self):
        store = StreamArtifactStore(FIXTURE_DIR)
        assert store.key(FIXTURE_WORKLOAD, 1024, 16) == FIXTURE_KEY
        stream, miss_ratio = store.load(FIXTURE_WORKLOAD, 1024, 16)
        assert stream.content_hash() == (
            "e29ba4870dd46b97414c111efc2a073096cf0977dfddd5a58cb51df03e941f90"
        )
        assert miss_ratio == pytest.approx(0.22111111111111112)

    def test_fsck_scans_it_clean(self, tmp_path):
        root = tmp_path / "spool"
        shutil.copytree(FIXTURE_DIR, root)
        report = scan_directory(root)
        assert report["ok"] is True
        assert report["findings"] == []
        assert report["scanned"]["artifacts"] == 1


class TestArtifactStore:
    @pytest.fixture(autouse=True)
    def _isolate(self, monkeypatch):
        monkeypatch.delenv("REPRO_STREAM_ARTIFACTS", raising=False)
        clear_miss_stream_cache()
        yield
        set_artifact_store(None)
        clear_miss_stream_cache()

    def test_env_var_configures_store(self, monkeypatch, tmp_path):
        assert get_artifact_store() is None
        monkeypatch.setenv("REPRO_STREAM_ARTIFACTS", str(tmp_path))
        store = get_artifact_store()
        assert isinstance(store, StreamArtifactStore)
        assert store.root == tmp_path
        workload = AtumWorkload(
            segments=1, references_per_segment=1_000, seed=4
        )
        cached_miss_stream(workload, 2048, 16)
        assert store.load(workload, 2048, 16) is not None

    def test_save_then_load_roundtrip(self, tmp_path):
        workload = AtumWorkload(
            segments=1, references_per_segment=1_000, seed=5
        )
        store = StreamArtifactStore(tmp_path)
        assert store.load(workload, 2048, 16) is None
        set_artifact_store(store)
        stream, ratio = cached_miss_stream(workload, 2048, 16)
        entry = store.load(workload, 2048, 16)
        assert entry is not None
        loaded, loaded_ratio = entry
        assert loaded_ratio == ratio
        assert loaded.events == stream.events

    def test_artifact_hit_skips_recapture(self, tmp_path):
        workload = AtumWorkload(
            segments=1, references_per_segment=1_000, seed=6
        )
        set_artifact_store(tmp_path)
        first, ratio = cached_miss_stream(workload, 2048, 16)
        clear_miss_stream_cache()
        metrics = get_metrics()
        hits_before = metrics.counter("miss_stream.artifact_hits").value
        captures_before = metrics.histogram(
            "miss_stream.capture_seconds"
        ).count
        second, ratio_again = cached_miss_stream(workload, 2048, 16)
        assert metrics.counter("miss_stream.artifact_hits").value == (
            hits_before + 1
        )
        assert metrics.histogram(
            "miss_stream.capture_seconds"
        ).count == captures_before
        assert ratio_again == ratio
        assert second.events == first.events

    def test_corrupt_artifact_treated_as_miss(self, tmp_path):
        workload = AtumWorkload(
            segments=1, references_per_segment=1_000, seed=8
        )
        store = StreamArtifactStore(tmp_path)
        set_artifact_store(store)
        cached_miss_stream(workload, 2048, 16)
        stream_path = next(tmp_path.glob("*.rpm2"))
        stream_path.write_bytes(b"RPM2" + b"\x00" * 3)
        assert store.load(workload, 2048, 16) is None
        clear_miss_stream_cache()
        metrics = get_metrics()
        misses_before = metrics.counter("miss_stream.artifact_misses").value
        stream, _ = cached_miss_stream(workload, 2048, 16)
        assert metrics.counter("miss_stream.artifact_misses").value == (
            misses_before + 1
        )
        assert stream.readins > 0
        assert store.load(workload, 2048, 16) is not None
