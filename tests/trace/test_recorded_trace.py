"""A trace generated once and replayed from memory."""

import pytest

from repro.trace.synthetic import CHUNK, AtumWorkload, RecordedTrace, trace_chunks

WORKLOAD = AtumWorkload(segments=3, references_per_segment=1_000, seed=23)


def pairs(chunks):
    """The chunks as one list, each FLUSH as ``None``."""
    flat = []
    for chunk in chunks:
        if chunk is None:
            flat.append(None)
        else:
            assert len(chunk) <= CHUNK
            flat.extend(chunk)
    return flat


@pytest.mark.parametrize("workload", [WORKLOAD, WORKLOAD.warmed()])
def test_every_pass_is_the_trace(workload):
    recorded = RecordedTrace(workload)
    expected = pairs(workload.pair_chunks())
    assert pairs(recorded.pair_chunks()) == expected
    assert pairs(recorded.pair_chunks()) == expected
    assert list(recorded) == list(workload)


def test_a_reference_list_is_recorded_too():
    references = list(WORKLOAD)
    assert pairs(trace_chunks(references)) == pairs(WORKLOAD.pair_chunks())
    recorded = RecordedTrace(iter(references))
    assert list(recorded) == references
    assert list(recorded) == references


def test_the_trace_is_generated_once(monkeypatch):
    generated = []
    segment_pairs = AtumWorkload.segment_pairs

    def counting(self, segment):
        generated.append(segment)
        return segment_pairs(self, segment)

    monkeypatch.setattr(AtumWorkload, "segment_pairs", counting)
    recorded = RecordedTrace(WORKLOAD)
    for _ in range(3):
        list(recorded.pair_chunks())
    assert generated == [0, 1, 2]


def test_a_second_pass_waits_for_the_first():
    recorded = RecordedTrace(WORKLOAD)
    first = recorded.pair_chunks()
    next(first)
    with pytest.raises(RuntimeError):
        recorded.pair_chunks()
