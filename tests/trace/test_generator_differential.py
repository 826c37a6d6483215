"""The compiled generator against the per-reference oracle.

:class:`repro.trace.process_model.ProcessModel` compiles each model
into one closure with ``randrange`` inlined; ``tests/trace/oracle.py``
keeps the method-based model it replaced. Every knob must give the
same ``(kind, address)`` sequence, draw for draw.
"""

import random
from dataclasses import replace

import pytest

from repro.trace.process_model import ProcessModel, ProcessParameters
from repro.trace.reference import KINDS
from repro.trace.synthetic import CHUNK, AtumWorkload, SegmentParameters
from tests.trace import oracle

USER = ProcessParameters()
KNOBS = {
    "user": USER,
    "os": SegmentParameters().os,
    "shared": replace(USER, shared_fraction=0.2),
    "shared_os": replace(SegmentParameters().os, shared_fraction=0.05),
    "sequential_allocation": replace(USER, allocation_skip_max=1),
    "odd_skip": replace(USER, allocation_skip_max=5),
    "no_chase": replace(USER, chase_fraction=0.0),
    "uniform_placement": replace(USER, placement_skew=1.0),
    "word_granule": replace(USER, data_block=4),
    "wide_granule": replace(USER, data_block=64, arena_granules=64),
    "long_loops": replace(USER, loop_span=1000, routine_size=64),
    "short_stack": replace(USER, data_stack=8, new_block_probability=0.1),
    "runs": replace(USER, sequential_run_probability=0.5),
}


def emitted(model, sizes):
    pairs = []
    for size in sizes:
        pairs += model.emit(size)
    return [(KINDS[code], address) for code, address in pairs]


@pytest.mark.parametrize("knob", sorted(KNOBS))
@pytest.mark.parametrize("pid, seed", [(1, 4), (7, 1989)])
def test_model_matches_oracle(knob, pid, seed):
    params = KNOBS[knob]
    got = emitted(ProcessModel(pid, seed, params), [1, 3, 250, 4_000])
    reference = oracle.ProcessModel(pid, seed, params)
    assert got == [reference.next_reference() for _ in range(len(got))]


def test_next_reference_is_the_same_stream():
    model = ProcessModel(3, seed=11)
    reference = oracle.ProcessModel(3, seed=11)
    for _ in range(2_000):
        assert model.next_reference() == reference.next_reference()


WORKLOADS = {
    "cold": AtumWorkload(segments=3, references_per_segment=6_000, seed=19),
    "warmed": AtumWorkload(
        segments=3, references_per_segment=6_000, seed=19
    ).warmed(),
    "shared": AtumWorkload(
        segments=3, references_per_segment=6_000, seed=23
    ).with_params(user=KNOBS["shared"], os=KNOBS["shared_os"]),
    "short_quanta": AtumWorkload(
        segments=4, references_per_segment=3_000, seed=5
    ).with_params(switch_interval=40, processes=3),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_oracle(name):
    workload = WORKLOADS[name]
    assert list(workload) == list(oracle.references(workload))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pair_chunks_are_the_trace(name):
    workload = WORKLOADS[name]
    flattened = []
    for chunk in workload.pair_chunks():
        if chunk is None:
            flattened.append(None)
            continue
        assert 0 < len(chunk) <= CHUNK
        flattened += [(KINDS[code], address) for code, address in chunk]
    expected = [
        None if ref.is_flush else (ref.kind, ref.address)
        for ref in oracle.references(workload)
    ]
    assert flattened == expected


def test_segment_references_match_oracle():
    workload = WORKLOADS["cold"]
    for segment in range(workload.segments):
        assert list(workload.segment_references(segment)) == list(
            oracle.segment_references(workload, segment)
        )


def _inlined_randbelow(getrandbits, n):
    """The draw the generator inlines wherever the oracle calls randrange."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@pytest.mark.parametrize("n", list(range(1, 70)) + [255, 256, 257, 1 << 20])
def test_inlined_draw_is_randrange(n):
    ours = random.Random(n)
    stdlib = random.Random(n)
    for _ in range(200):
        assert _inlined_randbelow(ours.getrandbits, n) == stdlib.randrange(n)
        assert 1 + _inlined_randbelow(ours.getrandbits, n) == (
            stdlib.randrange(1, n + 1)
        )
    assert ours.random() == stdlib.random()
