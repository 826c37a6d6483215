"""The L1 capture against a per-reference ``access`` loop.

:func:`~repro.cache.hierarchy.cached_miss_streams` generates the trace
once and captures every missing geometry from it, one
:func:`~repro.cache.hierarchy.capture_miss_stream` call each, through
:meth:`DirectMappedCache.capture`. Each stream, and each cache's
statistics and contents, must equal what one ``access`` call per
reference to the oracle L1 gives (``tests/trace/oracle.py``).
"""

import itertools

import pytest

from repro.cache.artifacts import StreamArtifactStore, set_artifact_store
from repro.cache.associative_l1 import AssociativeL1Cache
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache import hierarchy
from repro.cache.hierarchy import (
    cached_miss_stream,
    cached_miss_streams,
    capture_miss_stream,
    clear_miss_stream_cache,
)
from repro.cache.stream import FLUSH_MARKER
from repro.obs.metrics import get_metrics
from repro.obs.spans import get_tracer
from repro.trace.synthetic import AtumWorkload
from tests.trace import oracle

WORKLOAD = AtumWorkload(segments=3, references_per_segment=5_000, seed=31)
#: Paper L1s plus a geometry with 64-byte blocks.
GEOMETRIES = [(4096, 16), (16384, 16), (16384, 32), (2048, 64)]


def oracle_capture(workload, geometry):
    l1 = oracle.DirectMappedL1(*geometry)
    return oracle.capture(oracle.references(workload), l1), l1


@pytest.fixture(scope="module")
def expected():
    return {g: oracle_capture(WORKLOAD, g) for g in GEOMETRIES}


@pytest.fixture(autouse=True)
def cold_cache(monkeypatch):
    monkeypatch.delenv("REPRO_STREAM_ARTIFACTS", raising=False)
    set_artifact_store(None)
    clear_miss_stream_cache()
    yield
    set_artifact_store(None)
    clear_miss_stream_cache()


@pytest.mark.parametrize(
    "geometries",
    [
        list(combo)
        for size in range(1, 5)
        for combo in itertools.combinations(GEOMETRIES, size)
    ],
)
def test_one_pass_matches_oracle(geometries, expected):
    entries = cached_miss_streams(WORKLOAD, geometries)
    assert len(entries) == len(geometries)
    for geometry, (stream, ratio) in zip(geometries, entries):
        reference, l1 = expected[geometry]
        assert stream.events == reference.events
        assert stream.processor_references == reference.processor_references
        assert ratio == l1.stats.readin_miss_ratio
        assert stream.events.count(FLUSH_MARKER) == WORKLOAD.segments - 1


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_capture_miss_stream_leaves_the_oracle_cache(geometry, expected):
    reference, reference_l1 = expected[geometry]
    l1 = DirectMappedCache(*geometry)
    stream = capture_miss_stream(iter(WORKLOAD), l1)
    assert stream.events == reference.events
    assert stream.processor_references == reference.processor_references
    assert l1.stats == reference_l1.stats
    assert l1._tags == reference_l1._tags
    assert l1._dirty == reference_l1._dirty


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_access_matches_the_oracle_reference_by_reference(geometry):
    ours, theirs = DirectMappedCache(*geometry), oracle.DirectMappedL1(*geometry)
    for ref in WORKLOAD:
        if ref.is_flush:
            ours.invalidate_all()
            theirs.invalidate_all()
            continue
        assert ours.access(ref) == theirs.access(ref)
    assert ours.stats == theirs.stats
    assert ours._tags == theirs._tags and ours._dirty == theirs._dirty


def test_capture_continues_from_a_warm_cache():
    trace = list(WORKLOAD)
    middle = len(trace) // 3
    ours, theirs = DirectMappedCache(4096, 16), oracle.DirectMappedL1(4096, 16)
    for ref in trace[:middle]:
        if ref.is_flush:
            ours.invalidate_all()
            theirs.invalidate_all()
            continue
        ours.access(ref)
        theirs.access(ref)
    stream = capture_miss_stream(iter(trace[middle:]), ours)
    reference = oracle.capture(trace[middle:], theirs)
    assert stream.events == reference.events
    assert ours.stats == theirs.stats
    assert ours._tags == theirs._tags and ours._dirty == theirs._dirty


def test_one_generation_and_one_capture_call_per_geometry(monkeypatch, expected):
    # The public per-geometry entry point is what profilers wrap, so each
    # geometry goes through it, while the trace is generated only once.
    generated, calls = [], []
    segment_pairs = AtumWorkload.segment_pairs
    capture = hierarchy.capture_miss_stream

    def counting_segments(self, segment):
        generated.append(segment)
        return segment_pairs(self, segment)

    def wrapped_capture(trace, l1):
        stream = capture(list(trace), l1)
        calls.append((l1.capacity_bytes, l1.block_size, stream.processor_references))
        return stream

    monkeypatch.setattr(AtumWorkload, "segment_pairs", counting_segments)
    monkeypatch.setattr(hierarchy, "capture_miss_stream", wrapped_capture)
    entries = cached_miss_streams(WORKLOAD, GEOMETRIES[:3])
    assert generated == list(range(WORKLOAD.segments))
    assert calls == [(c, b, len(WORKLOAD)) for c, b in GEOMETRIES[:3]]
    for geometry, (stream, _) in zip(GEOMETRIES[:3], entries):
        assert stream.events == expected[geometry][0].events


def test_repeated_and_memoized_geometries():
    first, _ = cached_miss_stream(WORKLOAD, 4096, 16)
    entries = cached_miss_streams(WORKLOAD, [(4096, 16), (2048, 64), (4096, 16)])
    assert entries[0][0] is first and entries[2][0] is first
    assert entries[1][0].events == oracle_capture(WORKLOAD, (2048, 64))[0].events


def test_one_capture_span_for_all_missing_geometries():
    metrics = get_metrics()
    before = metrics.histogram("miss_stream.capture_seconds").count
    tracer = get_tracer()
    spans_before = len(tracer.records)
    cached_miss_streams(WORKLOAD, GEOMETRIES[:3])
    assert metrics.histogram("miss_stream.capture_seconds").count == before + 1
    (record,) = tracer.records[spans_before:]
    assert record.name == "l1_capture"
    assert record.attrs["geometries"] == ["4096B/16B", "16384B/16B", "16384B/32B"]


def test_partial_artifact_hit(tmp_path, monkeypatch, expected):
    on_disk, *captured = GEOMETRIES[:3]
    store = StreamArtifactStore(tmp_path)
    set_artifact_store(store)
    cached_miss_stream(WORKLOAD, *on_disk)
    clear_miss_stream_cache()
    saved = []
    save = StreamArtifactStore.save

    def recording_save(self, workload, capacity, block, *entry):
        saved.append((capacity, block))
        return save(self, workload, capacity, block, *entry)

    monkeypatch.setattr(StreamArtifactStore, "save", recording_save)
    metrics = get_metrics()
    hits = metrics.counter("miss_stream.artifact_hits").value
    misses = metrics.counter("miss_stream.artifact_misses").value
    entries = cached_miss_streams(WORKLOAD, GEOMETRIES[:3])
    assert saved == captured
    assert metrics.counter("miss_stream.artifact_hits").value == hits + 1
    assert metrics.counter("miss_stream.artifact_misses").value == misses + 2
    for geometry, (stream, ratio) in zip(GEOMETRIES[:3], entries):
        reference, l1 = expected[geometry]
        assert stream.events == reference.events
        assert stream.processor_references == reference.processor_references
        assert ratio == l1.stats.readin_miss_ratio
        assert store.load(WORKLOAD, *geometry) is not None


def test_a_plain_reference_list_is_a_workload_too(expected):
    entries = cached_miss_streams(list(WORKLOAD), GEOMETRIES[:2])
    for geometry, (stream, _) in zip(GEOMETRIES[:2], entries):
        assert stream.events == expected[geometry][0].events


def test_other_l1_models_are_refused():
    with pytest.raises(TypeError):
        capture_miss_stream(iter(WORKLOAD), AssociativeL1Cache(4096, 16, 2))
