"""Tests for miss-stream persistence."""

import struct

import pytest

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import (
    FLUSH_MARKER,
    MissStream,
    capture_miss_stream,
    replay_miss_stream,
)
from repro.cache.set_associative import SetAssociativeCache
from repro.errors import TraceFormatError
from repro.trace.synthetic import AtumWorkload


@pytest.fixture(scope="module")
def stream():
    workload = AtumWorkload(segments=2, references_per_segment=5_000, seed=3)
    return capture_miss_stream(iter(workload), DirectMappedCache(2048, 16))


def rpms_bytes(stream: MissStream) -> bytes:
    """``stream`` in the legacy ``RPMS`` record format (flushes inline)."""
    return b"".join([
        b"RPMS",
        struct.pack("<QQ", stream.processor_references, len(stream.events)),
        *(
            struct.pack("<bQ", code, max(address, 0))
            for code, address in stream.events
        ),
    ])


class TestSaveLoad:
    def test_roundtrip(self, stream, tmp_path):
        path = tmp_path / "stream.rpm2"
        stream.save(path)
        loaded = MissStream.load(path)
        assert loaded.events == stream.events
        assert loaded.processor_references == stream.processor_references

    def test_gzip_roundtrip(self, stream, tmp_path):
        path = tmp_path / "stream.rpm2.gz"
        stream.save(path)
        loaded = MissStream.load(path)
        assert loaded.events == stream.events

    def test_flush_markers_survive(self, stream, tmp_path):
        assert FLUSH_MARKER in stream.events
        path = tmp_path / "s.rpm2"
        stream.save(path)
        assert FLUSH_MARKER in MissStream.load(path).events

    def test_replay_of_loaded_stream_matches(self, stream, tmp_path):
        path = tmp_path / "s.rpm2"
        stream.save(path)
        loaded = MissStream.load(path)

        a = SetAssociativeCache(16 * 1024, 32, 4)
        b = SetAssociativeCache(16 * 1024, 32, 4)
        replay_miss_stream(stream, a)
        replay_miss_stream(loaded, b)
        assert a.stats.__dict__ == b.stats.__dict__
        for set_a, set_b in zip(a.sets, b.sets):
            assert set_a.view() == set_b.view()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.rpm2"
        MissStream().save(path)
        loaded = MissStream.load(path)
        assert loaded.events == []
        assert loaded.processor_references == 0


class TestLegacyRpms:
    """Files in the pre-RPM2 record format still load."""

    def test_rpms_file_loads(self, stream, tmp_path):
        path = tmp_path / "legacy.rpms"
        path.write_bytes(rpms_bytes(stream))
        loaded = MissStream.load(path)
        assert loaded.events == stream.events
        assert loaded.processor_references == stream.processor_references


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpms"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError, match="not a saved miss stream"):
            MissStream.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.rpms"
        path.write_bytes(b"RPMS" + b"\x00" * 4)
        with pytest.raises(TraceFormatError, match="header"):
            MissStream.load(path)

    def test_truncated_records(self, stream, tmp_path):
        path = tmp_path / "cut.rpms"
        path.write_bytes(rpms_bytes(stream)[:-4])
        with pytest.raises(TraceFormatError, match="record"):
            MissStream.load(path)
