"""Differential tests: the fused replay kernel vs the observer oracle.

:meth:`~repro.core.engine.FusedProbeEngine.replay` runs a whole miss
stream through one loop that inlines LRU replacement, the seeded
random fill of empty frames and every scheme's probe accounting. The
reference is a :class:`~repro.cache.set_associative.SetAssociativeCache`
serving one request per call with
:class:`~repro.cache.observers.ProbeObserver` instances running each
scheme's actual ``lookup()``. These tests replay identical randomized
streams through both and assert *exact* equality of every accumulator
field, the MRU hit-distance histogram and the cache statistics —
across associativities 1 to 16, tag transforms and widths, subset
counts, full-width compares, reduced MRU lists, the generic fallback,
both write-back settings, and flushes while sets are still filling.
"""

import random

import pytest

from repro.cache.hierarchy import MissStream, replay_miss_stream
from repro.cache.observers import MruDistanceObserver, ProbeObserver
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stream import FLUSH_MARKER
from repro.core.banked import BankedLookup
from repro.core.engine import FusedProbeEngine
from repro.core.mru import MRULookup
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.core.traditional import TraditionalLookup
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    ExperimentRunner,
    _scheme_plan,
    config_result_to_dict,
)
from repro.trace.synthetic import AtumWorkload

CAPACITY = 16 * 1024
BLOCK = 32

ACCUMULATOR_FIELDS = (
    "hit_accesses",
    "hit_probes",
    "miss_accesses",
    "miss_probes",
    "writeback_accesses",
    "writeback_probes",
)


def full_roster(associativity):
    """Every production roster entry, plus the odd shapes and fallbacks.

    The runner's own plan covers aliased labels, four transforms
    (``swap`` has non-default slicing) at two tag widths, default
    subset counts and reduced MRU lists; the extras add full-width
    compares, an explicit two-subset group and the generic fallback.
    """
    a = associativity
    lengths = (1, 2) if a > 2 else (1,)
    roster = list(
        _scheme_plan(a, 16, ("xor", "none", "improved", "swap"), lengths, (32,))
    )
    roster.append(
        ("partial/full", PartialCompareLookup(a, tag_bits=16, partial_bits=16,
                                              subsets=a))
    )
    if a >= 2:
        roster.append(
            ("partial/s2", PartialCompareLookup(a, tag_bits=16, subsets=2,
                                                transform="improved"))
        )
        roster.append(("banked", BankedLookup(a)))
    return roster


def random_events(seed, accesses=4000, writeback_fraction=0.25,
                  flush_at=()):
    """A request stream with reuse at every MRU depth.

    Half the requests reuse a hot pool of about twice the cache's
    blocks, so hits land at every frame and MRU rank; the rest are
    uniform over a 4 GB space, so tags are wider than 16 bits and
    masked tags collide. Flush markers go before the given steps.
    """
    rng = random.Random(seed)
    hot = [rng.randrange(0, 1 << 32) & ~(BLOCK - 1)
           for _ in range(2 * CAPACITY // BLOCK)]
    events = []
    flush_at = set(flush_at)
    for step in range(accesses):
        if step in flush_at:
            events.append(FLUSH_MARKER)
        if rng.random() < 0.5:
            address = rng.choice(hot[: 64 + step // 8])
        else:
            address = rng.randrange(0, 1 << 32) & ~(BLOCK - 1)
        code = 1 if rng.random() < writeback_fraction else 0
        events.append((code, address))
    return events


def replay_both(roster_fn, associativity, writeback_optimization, events):
    """Replay ``events`` through the oracle and the kernel."""
    legacy = SetAssociativeCache(CAPACITY, BLOCK, associativity)
    legacy_accs = {}
    for label, scheme in roster_fn(associativity):
        observer = ProbeObserver(
            scheme,
            writeback_optimization=writeback_optimization,
            label=label,
        )
        legacy.attach(observer)
        legacy_accs[label] = observer.accumulator
    distance_observer = MruDistanceObserver(associativity)
    legacy.attach(distance_observer)

    engine = FusedProbeEngine(CAPACITY, BLOCK, associativity)
    channels = {}
    for label, scheme in roster_fn(associativity):
        channels[label] = engine.add_scheme(
            scheme,
            writeback_optimization=writeback_optimization,
            label=label,
        )
    distance_stats = engine.add_mru_distance()

    stream = MissStream(events=events)
    replay_miss_stream(stream, legacy)
    replay_miss_stream(stream, engine)
    return legacy, engine, legacy_accs, channels, distance_observer, distance_stats


def assert_identical(legacy, engine, legacy_accs, channels,
                     distance_observer, distance_stats):
    for label, reference in legacy_accs.items():
        accumulator = channels[label].accumulator
        for field in ACCUMULATOR_FIELDS:
            assert getattr(accumulator, field) == getattr(reference, field), (
                f"{label}.{field} diverges from the observer reference"
            )
    assert distance_stats.hits == distance_observer.hits
    assert distance_stats.accesses == distance_observer.accesses
    assert distance_stats.updates == distance_observer.updates
    assert distance_stats.counts == distance_observer.counts
    assert distance_stats.distribution() == distance_observer.distribution()
    assert engine.stats.__dict__ == legacy.stats.__dict__


@pytest.mark.parametrize("associativity", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("writeback_optimization", [True, False])
def test_engine_matches_observers_exactly(associativity, writeback_optimization):
    events = random_events(seed=1000 + associativity)
    pieces = replay_both(
        full_roster, associativity, writeback_optimization, events
    )
    legacy = pieces[0]
    # The stream exercises hits, evictions and dirty evictions.
    assert legacy.stats.readin_hits and legacy.stats.writeback_hits
    assert legacy.stats.dirty_evictions
    assert_identical(*pieces)


def test_engine_matches_across_cold_start_flushes():
    """Flushes while sets are partly empty reseed the fill draws."""
    for associativity in (1, 2, 4, 8, 16):
        events = random_events(
            seed=77 + associativity, flush_at=(0, 40, 41, 300, 1200, 2500)
        )
        for wb_opt in (True, False):
            pieces = replay_both(full_roster, associativity, wb_opt, events)
            assert_identical(*pieces)


def test_engine_matches_on_single_partial_fast_path():
    """A roster with exactly one partial configuration agrees too."""

    def roster(a):
        return [
            ("naive", NaiveLookup(a)),
            ("mru", MRULookup(a)),
            ("partial", PartialCompareLookup(a, tag_bits=16)),
        ]

    for a in (4, 16):
        for wb_opt in (True, False):
            events = random_events(seed=5 if wb_opt else 6, flush_at=(900,))
            assert_identical(*replay_both(roster, a, wb_opt, events))


def test_runner_engine_matches_observer_oracle_on_every_roster_shape():
    """``ExperimentRunner`` end to end, for the four roster shapes the
    tables and figures run: default (Table 4, Figure 4), write-backs
    un-optimized (Figure 3), reduced MRU lists (Figure 5) and several
    transforms at several tag widths (Figure 6)."""
    workload = AtumWorkload(segments=2, references_per_segment=3000, seed=8)
    shapes = [
        {},
        {"writeback_optimization": False},
        {"mru_list_lengths": (1, 2)},
        {"transforms": ("none", "xor", "improved"), "extra_tag_bits": (16, 32)},
    ]
    engine_runner = ExperimentRunner(workload, use_engine=True)
    oracle_runner = ExperimentRunner(workload, use_engine=False)
    for a in (2, 8, 16):
        for options in shapes:
            fused = engine_runner.run("1K-16", "8K-32", a, **options)
            oracle = oracle_runner.run("1K-16", "8K-32", a, **options)
            assert config_result_to_dict(fused) == config_result_to_dict(
                oracle
            ), (a, options)


def test_engine_shares_aliased_partial_scheme():
    """One scheme instance under two labels: identical totals, one group."""
    engine = FusedProbeEngine(CAPACITY, BLOCK, 4)
    scheme = PartialCompareLookup(4, tag_bits=16)
    first = engine.add_scheme(scheme, label="partial")
    second = engine.add_scheme(scheme, label="partial/xor/t16")
    assert first.group is second.group
    rng = random.Random(3)
    engine.replay([(0, rng.randrange(0, 1 << 20) & ~31) for _ in range(2000)])
    a1, a2 = first.accumulator, second.accumulator
    for field in ACCUMULATOR_FIELDS:
        assert getattr(a1, field) == getattr(a2, field)
    assert a1.hit_probes > 0


def test_engine_rejects_mismatched_associativity():
    engine = FusedProbeEngine(CAPACITY, BLOCK, 4)
    with pytest.raises(ConfigurationError):
        engine.add_scheme(NaiveLookup(8))
    with pytest.raises(ConfigurationError):
        FusedProbeEngine(CAPACITY, BLOCK, 3)
    with pytest.raises(ConfigurationError):
        FusedProbeEngine(CAPACITY, BLOCK, 1024)


def test_engine_rejects_duplicate_labels_and_late_schemes():
    engine = FusedProbeEngine(CAPACITY, BLOCK, 4)
    engine.add_scheme(NaiveLookup(4), label="naive")
    with pytest.raises(ConfigurationError):
        engine.add_scheme(NaiveLookup(4), label="naive")
    engine.replay([(0, 64)])
    with pytest.raises(ConfigurationError):
        engine.add_scheme(PartialCompareLookup(4, tag_bits=16))


def test_engine_accumulator_reads_are_live():
    """Accumulators finalize on read; replays continue the cache state."""
    engine = FusedProbeEngine(CAPACITY, BLOCK, 4)
    channel = engine.add_scheme(TraditionalLookup(4))
    oracle = SetAssociativeCache(CAPACITY, BLOCK, 4)
    rng = random.Random(9)
    events = [(0, rng.randrange(0, 1 << 18) & ~31) for _ in range(150)]
    engine.replay(events[:100])
    oracle.replay(events[:100])
    acc = channel.accumulator
    assert acc.hit_accesses + acc.miss_accesses == 100
    engine.replay(events[100:])
    oracle.replay(events[100:])
    acc = channel.accumulator
    assert acc.hit_accesses + acc.miss_accesses == 150
    assert acc.hit_accesses == oracle.stats.readin_hits
    assert engine.stats == oracle.stats
