"""Two-level cache hierarchy and miss-stream capture/replay.

:class:`TwoLevelHierarchy` wires a direct-mapped L1 to a
set-associative L2 with the paper's protocol: read-in first, then
write-back of the dirty victim; flush references cold-start both
levels.

Because the L1 is independent of every L2 parameter under study, the
L1 pass can be done once per L1 configuration and its *miss stream*
(the sequence of read-in/write-back requests plus flush markers)
replayed into many instrumented L2 configurations. This is what makes
the full Table 4 sweep affordable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache import stream as stream_format
from repro.cache.artifacts import get_artifact_store
from repro.cache.direct_mapped import DirectMappedCache, RequestKind
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stats import HierarchyStats
from repro.cache.stream import FLUSH_MARKER
from repro.obs.metrics import get_metrics
from repro.obs.spans import span
from repro.trace.reference import Reference
from repro.trace.synthetic import RecordedTrace, trace_chunks


@dataclass
class MissStream:
    """A captured L1 request stream, replayable into any L2.

    Events are ``(kind_code, address)`` tuples, with
    :data:`FLUSH_MARKER` standing for a flush boundary. Also records
    how many processor references produced the stream, so global miss
    ratios can be computed after replay.
    """

    events: List[Tuple[int, int]] = field(default_factory=list)
    processor_references: int = 0
    #: Cached (readins, writebacks, events counted) — both kind counts
    #: are computed in one pass and invalidated whenever the event list
    #: grows (appends through the methods below or directly).
    _counts: Optional[Tuple[int, int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _recount(self) -> None:
        if self._counts is not None and self._counts[2] == len(self.events):
            return
        readins = writebacks = 0
        for code, _ in self.events:
            if code == 0:
                readins += 1
            elif code == 1:
                writebacks += 1
        self._counts = (readins, writebacks, len(self.events))

    @property
    def readins(self) -> int:
        """Number of read-in events (one cached pass for both kinds)."""
        self._recount()
        return self._counts[0]

    @property
    def writebacks(self) -> int:
        """Number of write-back events (one cached pass for both kinds)."""
        self._recount()
        return self._counts[1]

    def __len__(self) -> int:
        return len(self.events)

    def content_hash(self) -> str:
        """SHA-256 (hex) of the stream's RPM2 columns and reference count."""
        return stream_format.content_hash(self.events, self.processor_references)

    def save(self, path) -> None:
        """Persist the stream as RPM2 to ``path`` (gzip if it ends ``.gz``).

        Capturing an L1 miss stream is the expensive step of large
        studies; saving it lets many later sessions replay it into new
        L2 configurations without rerunning the L1.
        """
        stream_format.write(path, self.events, self.processor_references)

    @classmethod
    def load(cls, path) -> "MissStream":
        """Load a stream written by :meth:`save` (or a legacy ``RPMS`` file).

        Raises:
            TraceFormatError: On a bad header or truncated file.
            IntegrityError: When the CRC32 footer refutes the content.
        """
        events, processor_references = stream_format.read(path)
        return cls(events=events, processor_references=processor_references)


@dataclass
class InclusionStats:
    """Counters for inclusion enforcement and write-back hints."""

    #: L1 blocks dropped because their enclosing L2 block was evicted.
    back_invalidations: int = 0
    #: Back-invalidated L1 blocks that were dirty (their data is
    #: forwarded straight to memory).
    dirty_back_invalidations: int = 0
    #: Write-backs whose retained position indicator was consulted.
    hints_consulted: int = 0
    #: ... and pointed at the block's actual L2 frame.
    hints_correct: int = 0
    #: ... and were wrong (the block had left the L2 — impossible when
    #: inclusion is enforced).
    hints_wrong: int = 0

    @property
    def hint_accuracy(self) -> float:
        """Fraction of consulted hints that were correct."""
        if self.hints_consulted == 0:
            return 0.0
        return self.hints_correct / self.hints_consulted


class TwoLevelHierarchy:
    """Direct-mapped L1 over a set-associative L2 (paper Table 3).

    Args:
        l1, l2: The two cache levels.
        enforce_inclusion: When True, an L2 eviction back-invalidates
            every L1 block it covers, maintaining multi-level
            inclusion [Baer88]. Dirty L1 copies lost this way are
            counted as forced memory write-backs. The paper does not
            enforce inclusion but monitors how nearly it holds; both
            modes are supported.
        track_writeback_hints: When True, models the write-back
            optimization's bookkeeping explicitly: on each read-in the
            L1 retains a ``log2(a)``-bit indicator of the L2 frame the
            block landed in, and each write-back checks it. With
            inclusion enforced the hint is always correct; without,
            the accuracy measures how safe the "hint" variant is.
            Hints are keyed per L1 *set index*, which is exact for the
            paper's direct-mapped L1 (one block per line); with a
            set-associative L1 only the most recent fill per set is
            tracked.
    """

    def __init__(
        self,
        l1: DirectMappedCache,
        l2: SetAssociativeCache,
        enforce_inclusion: bool = False,
        track_writeback_hints: bool = False,
    ) -> None:
        if l2.block_size < l1.block_size:
            # A smaller L2 block could not hold an L1 write-back.
            raise ValueError(
                f"L2 block size {l2.block_size} smaller than L1 block "
                f"size {l1.block_size}"
            )
        self.l1 = l1
        self.l2 = l2
        self.stats = HierarchyStats(l1=l1.stats, l2=l2.stats)
        self.enforce_inclusion = enforce_inclusion
        self.inclusion = InclusionStats()
        self._hints = {} if track_writeback_hints else None
        if enforce_inclusion:
            l2.eviction_listener = self._on_l2_eviction

    def access(self, ref: Reference) -> None:
        """Service one processor reference (or flush sentinel)."""
        if ref.is_flush:
            self.flush()
            return
        self.stats.processor_references += 1
        requests = self.l1.access(ref)
        pending_hint = None
        for request in requests:
            hit = self.l2.request(request)
            if self._hints is None:
                continue
            line = self.l1.mapper.set_index(request.address)
            if request.kind is RequestKind.READ_IN:
                # Record after the whole batch: the victim write-back
                # (issued second) must still see its own hint.
                frame = self.l2.locate(request.address)
                pending_hint = (line, request.address, frame)
            else:
                self._consult_hint(line, request.address, hit)
        if pending_hint is not None:
            line, address, frame = pending_hint
            self._hints[line] = (address, frame)

    def _consult_hint(self, line: int, address: int, l2_hit: bool) -> None:
        entry = self._hints.pop(line, None)
        if entry is None or entry[0] != address:
            return
        self.inclusion.hints_consulted += 1
        if l2_hit and self.l2.locate(address) == entry[1]:
            self.inclusion.hints_correct += 1
        else:
            self.inclusion.hints_wrong += 1

    def _on_l2_eviction(self, address: int, was_dirty: bool) -> None:
        """Back-invalidate every L1 block inside the evicted L2 block."""
        for offset in range(0, self.l2.block_size, self.l1.block_size):
            sub_address = address + offset
            dropped = self.l1.invalidate(sub_address)
            if dropped is None:
                continue
            self.inclusion.back_invalidations += 1
            if dropped:
                self.inclusion.dirty_back_invalidations += 1
            if self._hints is not None:
                line = self.l1.mapper.set_index(sub_address)
                entry = self._hints.get(line)
                if entry is not None and entry[0] == sub_address:
                    del self._hints[line]

    def run(self, trace: Iterable[Reference]) -> HierarchyStats:
        """Service an entire trace and return the hierarchy statistics."""
        for ref in trace:
            self.access(ref)
        return self.stats

    def flush(self) -> None:
        """Cold-start both levels (no write-back traffic), as between
        the paper's 23 concatenated traces."""
        self.l1.invalidate_all()
        self.l2.invalidate_all()
        if self._hints is not None:
            self._hints.clear()

    def inclusion_holds(self) -> bool:
        """Check multi-level inclusion: every L1 block resident in L2.

        The paper does not enforce inclusion but monitors how nearly it
        holds; this is the checking primitive (used by tests and the
        inclusion diagnostics).
        """
        for address in self.l1.resident_addresses():
            if not self.l2.contains(address):
                return False
        return True


def capture_miss_stream(
    trace: Iterable[Reference], l1: DirectMappedCache
) -> MissStream:
    """Run ``trace`` through ``l1`` alone, recording its request stream.

    ``trace`` is any iterable of references. One that also has a
    ``pair_chunks()`` method (an
    :class:`~repro.trace.synthetic.AtumWorkload` or a
    :class:`~repro.trace.synthetic.RecordedTrace`) is read in that
    form, chunks of ``(code, address)`` pairs with ``None`` per FLUSH,
    and no :class:`Reference` is built per reference. Each chunk runs
    through :meth:`~repro.cache.direct_mapped.DirectMappedCache.capture`,
    the L1's own access loop, which appends the read-in and write-back
    events straight to the stream.

    ``l1`` is left with the statistics and contents it would have after
    one :meth:`~repro.cache.direct_mapped.DirectMappedCache.access`
    call per reference (and ``invalidate_all`` per FLUSH). Other L1
    models, such as the set-associative
    :class:`~repro.cache.associative_l1.AssociativeL1Cache`, run in a
    :class:`TwoLevelHierarchy` instead.

    Raises:
        TypeError: When ``l1`` is not a ``DirectMappedCache``.
    """
    if not isinstance(l1, DirectMappedCache):
        raise TypeError(
            f"capture_miss_stream models direct-mapped L1s, got {l1!r}"
        )
    stream = MissStream()
    emit = stream.events.append
    for chunk in trace_chunks(trace):
        if chunk is None:
            l1.invalidate_all()
            emit(FLUSH_MARKER)
            continue
        l1.capture(chunk, emit)
        stream.processor_references += len(chunk)
    return stream


#: Process-wide miss-stream cache, content-addressed by
#: (workload identity, L1 capacity, L1 block size). Values are
#: (stream, L1 read-in miss ratio) pairs.
_MISS_STREAM_CACHE: Dict[tuple, Tuple[MissStream, float]] = {}


def _workload_key(workload) -> tuple:
    """Content address for a workload.

    Uses the workload's own ``cache_key()`` when it provides one
    (:class:`~repro.trace.synthetic.AtumWorkload` does — seed, segment
    structure, and model parameters); otherwise falls back to object
    identity, which still deduplicates repeated captures of the same
    instance.
    """
    cache_key = getattr(workload, "cache_key", None)
    if cache_key is not None:
        return (type(workload).__qualname__,) + tuple(cache_key())
    return ("id", id(workload))


def cached_miss_stream(
    workload, capacity_bytes: int, block_size: int
) -> Tuple[MissStream, float]:
    """Captured L1 request stream for one geometry (see
    :func:`cached_miss_streams`).

    Returns:
        ``(stream, l1_readin_miss_ratio)``. The stream is shared;
        callers must treat it as immutable.
    """
    return cached_miss_streams(workload, [(capacity_bytes, block_size)])[0]


def cached_miss_streams(
    workload, geometries: Sequence[Tuple[int, int]]
) -> List[Tuple[MissStream, float]]:
    """Captured L1 request streams for ``workload``, memoized process-wide.

    ``geometries`` lists ``(capacity_bytes, block_size)`` L1 geometries.
    ``workload`` is any iterable of references; an
    :class:`~repro.trace.synthetic.AtumWorkload` is generated straight
    into ``(code, address)`` chunks
    (:meth:`~repro.trace.synthetic.AtumWorkload.pair_chunks`). The L1
    pass is the expensive, L2-independent step of every sweep; this
    keys captured streams by (workload identity, L1 geometry) so
    L2-only sweeps — even across independent
    :class:`~repro.experiments.runner.ExperimentRunner` instances —
    never re-simulate the L1 for a workload they have already seen.
    The workload is generated once however many geometries are found
    neither in memory nor in the artifact store: with more than one, a
    :class:`~repro.trace.synthetic.RecordedTrace` records it on the
    first capture and replays it to the others. Each geometry is
    captured by one :func:`capture_miss_stream` call, the public entry
    point profilers wrap.

    When a stream artifact store is configured
    (``REPRO_STREAM_ARTIFACTS`` or
    :func:`repro.cache.artifacts.set_artifact_store`), an in-process
    miss first tries the store, and every fresh capture is saved to it,
    so later processes (sweep workers, ``repro-serve`` jobs, new
    sessions) load the stream instead of re-simulating the L1.

    Cache behavior is published to the process metrics registry, per
    geometry (``miss_stream.cache_hits`` / ``cache_misses`` in process,
    ``miss_stream.artifact_hits`` / ``artifact_misses`` on disk). The
    capture pass — the expensive phase — runs under one ``l1_capture``
    tracing span naming its geometries, with its wall time recorded in
    the ``miss_stream.capture_seconds`` histogram. Instrumentation
    wraps the whole pass, never the per-reference loop.

    Returns:
        One ``(stream, l1_readin_miss_ratio)`` per requested geometry,
        in order. Streams are shared; callers must treat them as
        immutable.
    """
    geometries = [tuple(geometry) for geometry in geometries]
    workload_key = _workload_key(workload)
    metrics = get_metrics()
    store = get_artifact_store()
    missing = []
    for geometry in dict.fromkeys(geometries):
        key = (workload_key,) + geometry
        if key in _MISS_STREAM_CACHE:
            metrics.counter("miss_stream.cache_hits").inc()
            continue
        metrics.counter("miss_stream.cache_misses").inc()
        if store is not None:
            entry = store.load(workload, *geometry)
            if entry is not None:
                metrics.counter("miss_stream.artifact_hits").inc()
                _MISS_STREAM_CACHE[key] = entry
                continue
            metrics.counter("miss_stream.artifact_misses").inc()
        missing.append(geometry)
    if missing:
        # Several geometries share one generation of the trace: the
        # first capture records it, the others replay the record.
        trace = RecordedTrace(workload) if len(missing) > 1 else workload
        captured = []
        start = time.perf_counter()
        with span(
            "l1_capture",
            geometries=[f"{c}B/{b}B" for c, b in missing],
        ):
            for geometry in missing:
                l1 = DirectMappedCache(*geometry)
                stream = capture_miss_stream(trace, l1)
                captured.append((geometry, (stream, l1.stats.readin_miss_ratio)))
        metrics.histogram("miss_stream.capture_seconds").observe(
            time.perf_counter() - start
        )
        for geometry, entry in captured:
            _MISS_STREAM_CACHE[(workload_key,) + geometry] = entry
            if store is not None:
                store.save(workload, *geometry, *entry)
    return [_MISS_STREAM_CACHE[(workload_key,) + g] for g in geometries]


def clear_miss_stream_cache() -> None:
    """Drop every memoized miss stream (frees the captured traces)."""
    _MISS_STREAM_CACHE.clear()


def replay_miss_stream(stream: MissStream, l2) -> None:
    """Feed a captured miss stream into an L2 model.

    ``l2`` is a :class:`SetAssociativeCache` (one method call per
    request: the reference oracle, with any observers attached) or a
    :class:`~repro.core.engine.FusedProbeEngine` (the whole-stream
    replay kernel). Both take the stream's events through ``replay``
    and count hits and misses in ``l2.stats``.
    """
    l2.replay(stream.events)
