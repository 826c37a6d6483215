"""ATUM-like synthetic multiprogrammed workload (substitute for the
paper's traces; see DESIGN.md §4).

The paper drove its simulations with one very large trace built by
concatenating 23 ATUM traces of a multiprogrammed VAX operating system
(~350,000 references each, >8 million total), with cache flushes
inserted between them so each starts cold.

:class:`AtumWorkload` mirrors that structure: ``segments`` independent
segments, each a multiprogrammed mix of user processes plus an OS
kernel pseudo-process, round-robin scheduled with exponentially
distributed scheduling quanta, a FLUSH sentinel between segments. The
per-process reference model lives in :mod:`repro.trace.process_model`.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.trace.process_model import ProcessModel, ProcessParameters
from repro.trace.reference import FLUSH, KIND_CODES, KINDS, AccessKind, Reference

#: Most pairs per generated chunk: large enough to amortise the
#: per-chunk work of the L1 capture, small enough that the chunk in
#: flight adds little to the resident set.
CHUNK = 256


@dataclass(frozen=True)
class SegmentParameters:
    """Shape of one trace segment (one "ATUM trace" equivalent)."""

    #: Number of user processes multiprogrammed in the segment.
    processes: int = 6
    #: Mean references between context switches.
    switch_interval: int = 20_000
    #: Probability a scheduling quantum runs the OS pseudo-process.
    os_quantum_fraction: float = 0.12
    #: Parameters of the user-process reference model.
    user: ProcessParameters = ProcessParameters()
    #: Parameters of the OS pseudo-process (bigger code footprint,
    #: flatter data locality, more pointer chasing — OS activity is
    #: what made ATUM traces notoriously hard on caches).
    os: ProcessParameters = ProcessParameters(
        instruction_fraction=0.58,
        branch_probability=0.20,
        loop_branch_fraction=0.78,
        routines=48,
        routine_theta=1.3,
        data_theta=1.55,
        new_block_probability=0.003,
        chase_fraction=0.08,
        chase_blocks=300,
    )

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range knobs."""
        if self.processes <= 0:
            raise ConfigurationError("at least one process per segment")
        if self.switch_interval <= 0:
            raise ConfigurationError("switch_interval must be positive")
        if not 0.0 <= self.os_quantum_fraction <= 1.0:
            raise ConfigurationError("os_quantum_fraction outside [0, 1]")
        self.user.validate()
        self.os.validate()


class AtumWorkload:
    """Deterministic multiprogrammed synthetic trace.

    Args:
        segments: Number of concatenated cold-start segments (paper: 23).
        references_per_segment: References per segment (paper: ~350,000).
        seed: Master seed; every derived stream is seeded from it.
        params: Per-segment shape.

    Iterating the workload yields :class:`Reference` objects with a
    FLUSH sentinel between segments (and none before the first or after
    the last); :meth:`pair_chunks` yields the same trace as chunks of
    ``(code, address)`` pairs, the form the L1 capture consumes.
    """

    def __init__(
        self,
        segments: int = 23,
        references_per_segment: int = 350_000,
        seed: int = 1989,
        params: SegmentParameters = SegmentParameters(),
        cold_start: bool = True,
    ) -> None:
        if segments <= 0:
            raise ConfigurationError("segments must be positive")
        if references_per_segment <= 0:
            raise ConfigurationError("references_per_segment must be positive")
        params.validate()
        self.segments = segments
        self.references_per_segment = references_per_segment
        self.seed = seed
        self.params = params
        #: When False, no FLUSH sentinels are emitted between segments
        #: — the paper's "warmer" variant (caches carry state across
        #: segment boundaries; miss ratios shrink, orderings persist).
        self.cold_start = cold_start

    def __len__(self) -> int:
        """Total reference count, excluding FLUSH sentinels."""
        return self.segments * self.references_per_segment

    def cache_key(self) -> tuple:
        """Hashable identity of the generated reference stream.

        Two workloads with equal keys generate identical traces, so
        captured miss streams can be content-addressed by this key plus
        the L1 geometry (see
        :func:`~repro.cache.hierarchy.cached_miss_streams`).
        """
        return (
            self.segments,
            self.references_per_segment,
            self.seed,
            self.cold_start,
            self.params,
        )

    def __iter__(self) -> Iterator[Reference]:
        for chunk in self.pair_chunks():
            if chunk is None:
                yield FLUSH
                continue
            for code, address in chunk:
                yield Reference(KINDS[code], address)

    def segment_references(self, segment: int) -> Iterator[Reference]:
        """References of one segment (no FLUSH sentinel)."""
        for chunk in self.segment_pairs(segment):
            for code, address in chunk:
                yield Reference(KINDS[code], address)

    def pair_chunks(self) -> Iterator[Optional[List[Tuple[int, int]]]]:
        """The whole trace as chunks of ``(code, address)`` pairs.

        ``None`` stands where :meth:`__iter__` yields the FLUSH
        sentinel. This is the form the L1 capture consumes
        (:func:`~repro.cache.hierarchy.cached_miss_streams`): no
        :class:`Reference` is built per reference.
        """
        for segment in range(self.segments):
            if segment > 0 and self.cold_start:
                yield None
            yield from self.segment_pairs(segment)

    def segment_pairs(self, segment: int) -> Iterator[List[Tuple[int, int]]]:
        """One segment as chunks of at most :data:`CHUNK` pairs.

        Codes are those of :data:`repro.trace.reference.KINDS`.
        """
        if not 0 <= segment < self.segments:
            raise ConfigurationError(
                f"segment {segment} out of range [0, {self.segments})"
            )
        params = self.params
        scheduler = random.Random((self.seed * 1_000_003) ^ segment)
        # Pids recycle across segments: like the paper's 23 traces, all
        # segments share one 32-bit virtual space (both caches are
        # flushed at segment boundaries, so no stale blocks leak), but
        # each segment reseeds the process models, capturing a
        # different process population.
        pid_base = 1
        users = [
            ProcessModel(pid_base + i, seed=self.seed ^ (segment << 8), params=params.user)
            for i in range(params.processes)
        ]
        # The kernel keeps one layout across segments (the OS is the
        # same OS in every ATUM snapshot); only its transient state
        # restarts. User populations reseed per segment.
        kernel = ProcessModel(
            pid_base + params.processes, seed=self.seed, params=params.os
        )

        produced = 0
        total = self.references_per_segment
        while produced < total:
            if scheduler.random() < params.os_quantum_fraction:
                process = kernel
                quantum = max(1, int(scheduler.expovariate(1.0) * params.switch_interval * 0.3))
            else:
                process = users[scheduler.randrange(len(users))]
                quantum = max(1, int(scheduler.expovariate(1.0) * params.switch_interval))
            quantum = min(quantum, total - produced)
            produced += quantum
            emit = process.emit
            while quantum > CHUNK:
                yield emit(CHUNK)
                quantum -= CHUNK
            yield emit(quantum)

    def scaled(self, fraction: float) -> "AtumWorkload":
        """A shorter workload with the same shape (for fast benchmarks).

        Keeps all segments (so cold-start effects keep their relative
        weight) but scales each segment's length.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        refs = max(1, int(self.references_per_segment * fraction))
        return AtumWorkload(
            segments=self.segments,
            references_per_segment=refs,
            seed=self.seed,
            params=self.params,
            cold_start=self.cold_start,
        )

    def with_params(self, **changes) -> "AtumWorkload":
        """Copy of the workload with segment parameters replaced."""
        return AtumWorkload(
            segments=self.segments,
            references_per_segment=self.references_per_segment,
            seed=self.seed,
            params=replace(self.params, **changes),
            cold_start=self.cold_start,
        )

    def warmed(self) -> "AtumWorkload":
        """Copy with cold-start flushes removed (the paper's "warmer"
        variant)."""
        return AtumWorkload(
            segments=self.segments,
            references_per_segment=self.references_per_segment,
            seed=self.seed,
            params=self.params,
            cold_start=False,
        )


#: One chunk of a trace in pair form: ``(code, address)`` pairs, codes
#: those of :data:`repro.trace.reference.KINDS`; ``None`` is a FLUSH.
PairChunk = Optional[List[Tuple[int, int]]]


def trace_chunks(trace: Iterable[Reference]) -> Iterator[PairChunk]:
    """``trace`` as chunks of at most :data:`CHUNK` pairs, ``None`` per FLUSH.

    A trace with its own ``pair_chunks()`` (:class:`AtumWorkload`,
    :class:`RecordedTrace`) makes them without building a
    :class:`Reference` per reference; any other iterable of references
    is converted.
    """
    pair_chunks = getattr(trace, "pair_chunks", None)
    if pair_chunks is not None:
        yield from pair_chunks()
        return
    chunk: List[Tuple[int, int]] = []
    for ref in trace:
        if ref.is_flush:
            yield chunk
            yield None
            chunk = []
            continue
        chunk.append((KIND_CODES[ref.kind], ref.address))
        if len(chunk) == CHUNK:
            yield chunk
            chunk = []
    yield chunk


class RecordedTrace:
    """A trace generated once and replayed from memory.

    The first :meth:`pair_chunks` pass draws the chunks of ``trace``
    (:func:`trace_chunks`) and keeps each reference as one byte of kind
    code and eight of address; every later pass replays that record.
    This is how several L1 geometries are captured from one generation
    of a workload (:func:`~repro.cache.hierarchy.cached_miss_streams`)
    without holding a pair object per reference. Iterating yields
    :class:`Reference` objects, with FLUSH sentinels, like the trace.

    Raises:
        RuntimeError: From a pass started before the first one ended.
    """

    def __init__(self, trace: Iterable[Reference]) -> None:
        self._source: Optional[Iterator[PairChunk]] = trace_chunks(trace)
        self._codes = bytearray()
        self._addresses = array("Q")
        #: Record positions at which a FLUSH stands.
        self._flushes: List[int] = []
        self._recorded = False

    def __iter__(self) -> Iterator[Reference]:
        for chunk in self.pair_chunks():
            if chunk is None:
                yield FLUSH
                continue
            for code, address in chunk:
                yield Reference(KINDS[code], address)

    def pair_chunks(self) -> Iterator[PairChunk]:
        """The trace as chunks of ``(code, address)`` pairs, ``None`` per FLUSH."""
        if self._recorded:
            return self._replay()
        if self._source is None:
            raise RuntimeError("the first pass over this trace has not ended")
        source, self._source = self._source, None
        return self._record(source)

    def _record(self, source: Iterator[PairChunk]) -> Iterator[PairChunk]:
        codes, addresses = self._codes, self._addresses
        for chunk in source:
            if chunk is None:
                self._flushes.append(len(codes))
            elif chunk:
                chunk_codes, chunk_addresses = zip(*chunk)
                codes.extend(chunk_codes)
                addresses.extend(chunk_addresses)
            yield chunk
        self._recorded = True

    def _replay(self) -> Iterator[PairChunk]:
        codes, addresses = self._codes, self._addresses
        start = 0
        for flush in self._flushes + [None]:
            end = len(codes) if flush is None else flush
            for low in range(start, end, CHUNK):
                high = min(low + CHUNK, end)
                yield list(zip(codes[low:high], addresses[low:high]))
            if flush is not None:
                yield None
            start = end


def kind_mix(workload: AtumWorkload, sample: int = 20_000) -> dict:
    """Fractions of instruction/load/store references in a sample prefix."""
    counts = {AccessKind.INSTRUCTION: 0, AccessKind.LOAD: 0, AccessKind.STORE: 0}
    taken = 0
    for ref in workload:
        if ref.is_flush:
            continue
        counts[ref.kind] += 1
        taken += 1
        if taken >= sample:
            break
    total = max(1, taken)
    return {kind: count / total for kind, count in counts.items()}
