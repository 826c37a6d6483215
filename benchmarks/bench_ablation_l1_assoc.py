"""Ablation: what if the level-one cache were set-associative?

The paper fixes the L1 as direct-mapped (Table 3). That choice shapes
everything downstream: a wider L1 filters re-references out of the
miss stream, so the L2 sees fewer requests and a larger fraction of
them miss (the same distinct-block traffic over a smaller request
count) — which shifts the probe economics toward the partial scheme
(cheap misses) and away from MRU.
"""

from _bench_utils import once, save_result

from repro.cache.associative_l1 import AssociativeL1Cache
from repro.cache.hierarchy import TwoLevelHierarchy
from repro.cache.observers import MruDistanceObserver, ProbeObserver
from repro.cache.set_associative import SetAssociativeCache
from repro.core.mru import MRULookup
from repro.core.partial import PartialCompareLookup
from repro.experiments.report import render_table

L1_ASSOCIATIVITIES = (1, 2, 4)


def sweep(runner):
    rows = {}
    for l1_assoc in L1_ASSOCIATIVITIES:
        l1 = AssociativeL1Cache(16 * 1024, 16, associativity=l1_assoc)
        l2 = SetAssociativeCache(256 * 1024, 32, 4)
        mru = ProbeObserver(MRULookup(4))
        partial = ProbeObserver(PartialCompareLookup(4, tag_bits=16))
        distance = MruDistanceObserver(4)
        l2.attach_all([mru, partial, distance])
        # The capture loop models direct-mapped L1s only; the live
        # hierarchy drives any L1 and issues the same L2 requests.
        TwoLevelHierarchy(l1, l2).run(iter(runner.workload))

        rows[l1_assoc] = (
            l1.stats.readin_miss_ratio,
            l2.stats.local_miss_ratio,
            distance.distribution()[0],
            mru.accumulator.probes_per_hit,
            partial.accumulator.probes_per_hit,
        )
    return rows


def test_l1_associativity(benchmark, runner, results_dir):
    rows = once(benchmark, sweep, runner)

    l1_ratios = [rows[a][0] for a in L1_ASSOCIATIVITIES]
    assert l1_ratios == sorted(l1_ratios, reverse=True)

    # A wider L1 removes conflict re-misses, so the L2's request
    # stream loses temporal locality: the local miss ratio goes UP
    # (the same distinct-block traffic over fewer requests).
    assert rows[4][1] > rows[1][1]

    rendered = render_table(
        ["L1 assoc", "L1 miss", "L2 local miss", "f1",
         "MRU hit probes", "Partial hit probes"],
        [(a, *rows[a]) for a in L1_ASSOCIATIVITIES],
        title="Ablation: L1 associativity (16K-16 L1 over 256K-32 4-way L2)",
    )
    save_result(results_dir, "ablation_l1_assoc", rendered)
