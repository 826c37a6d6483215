"""Parallel sweeps are bit-identical to the serial runner.

:class:`~repro.experiments.runner.ParallelSweepRunner` must reproduce
the serial :meth:`~repro.experiments.runner.ExperimentRunner.run`
results exactly for a fixed workload seed: every worker derives its
trace deterministically and replays whole points.
"""

import pytest

from repro.cache.hierarchy import cached_miss_stream, clear_miss_stream_cache
from repro.experiments.runner import (
    ExperimentRunner,
    ParallelSweepRunner,
    SweepPoint,
)
from repro.resilience.policy import SweepOutcome
from repro.trace.synthetic import AtumWorkload


def small_workload():
    return AtumWorkload(segments=3, references_per_segment=4_000, seed=19)


def assert_results_identical(actual, expected):
    assert actual.global_miss_ratio == expected.global_miss_ratio
    assert actual.local_miss_ratio == expected.local_miss_ratio
    assert actual.fraction_writebacks == expected.fraction_writebacks
    assert actual.l1_miss_ratio == expected.l1_miss_ratio
    assert actual.writeback_miss_ratio == expected.writeback_miss_ratio
    assert actual.mru_distribution == expected.mru_distribution
    assert actual.mru_update_fraction == expected.mru_update_fraction
    assert set(actual.schemes) == set(expected.schemes)
    for label, scheme in expected.schemes.items():
        got = actual.schemes[label]
        assert got.hits == scheme.hits, label
        assert got.misses == scheme.misses, label
        assert got.total == scheme.total, label
        assert got.readin_hits == scheme.readin_hits, label


@pytest.mark.parametrize("processes", [1, 2])
def test_parallel_sweep_matches_serial(processes):
    workload = small_workload()
    points = [
        SweepPoint("4K-16", "64K-32", 2),
        SweepPoint("4K-16", "64K-32", 4),
        SweepPoint("8K-16", "64K-32", 4),
        SweepPoint("4K-16", "128K-32", 4, mru_list_lengths=(1,)),
        SweepPoint(
            "4K-16", "64K-32", 4, transforms=("xor", "swap"),
            mru_list_lengths=(1, 2), writeback_optimization=False,
        ),
    ]
    serial_runner = ExperimentRunner(workload)
    expected = [
        serial_runner.run(
            p.l1, p.l2, p.associativity,
            tag_bits=p.tag_bits,
            transforms=p.transforms,
            mru_list_lengths=p.mru_list_lengths,
            extra_tag_bits=p.extra_tag_bits,
            writeback_optimization=p.writeback_optimization,
        )
        for p in points
    ]
    parallel = ParallelSweepRunner(workload, processes=processes)
    outcome = parallel.run_points(points)
    assert outcome.ok
    assert len(outcome.results) == len(points)
    for got, want in zip(outcome.results, expected):
        assert_results_identical(got, want)


def test_parallel_sweep_empty():
    outcome = ParallelSweepRunner(small_workload()).run_points([])
    assert outcome == SweepOutcome(results=[])


def test_engine_and_legacy_runner_results_identical():
    """The runner's two instrumentation paths agree end to end."""
    workload = small_workload()
    engine_result = ExperimentRunner(workload, use_engine=True).run(
        "4K-16", "64K-32", 4, mru_list_lengths=(2,), transforms=("xor", "swap")
    )
    legacy_result = ExperimentRunner(workload, use_engine=False).run(
        "4K-16", "64K-32", 4, mru_list_lengths=(2,), transforms=("xor", "swap")
    )
    assert_results_identical(engine_result, legacy_result)


def test_cached_miss_stream_is_shared():
    """Same workload + L1 geometry: one capture, shared object."""
    clear_miss_stream_cache()
    workload = small_workload()
    first, ratio_a = cached_miss_stream(workload, 4096, 16)
    second, ratio_b = cached_miss_stream(
        small_workload(), 4096, 16
    )
    assert first is second
    assert ratio_a == ratio_b
    other, _ = cached_miss_stream(workload, 8192, 16)
    assert other is not first
    clear_miss_stream_cache()


def test_progress_lines_count_points(capsys):
    points = [
        SweepPoint("4K-16", "64K-32", 2),
        SweepPoint("4K-16", "64K-32", 4),
    ]
    ParallelSweepRunner(
        small_workload(), processes=1, progress=True
    ).run_points(points)
    lines = capsys.readouterr().err.splitlines()
    finished = [line for line in lines if "finished" in line]
    assert "point 1/2 finished" in finished[0]
    assert "point 2/2 finished" in finished[1]
    assert "4K-16 / 64K-32" in finished[0]
    assert not any("shard" in line for line in lines)
