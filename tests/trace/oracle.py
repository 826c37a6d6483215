"""Per-reference oracles of the front end.

The production front end compiles each process model into one closure
(:mod:`repro.trace.process_model`) and runs generated chunks of
``(code, address)`` pairs through the L1's one access loop
(:meth:`repro.cache.direct_mapped.DirectMappedCache.capture`, which
``DirectMappedCache.access`` also calls). The code here is the
per-reference implementation they replaced, kept as the reference the
differential tests compare them against:

- :class:`ProcessModel`: one method call per reference, drawing from
  ``random.Random`` through its public methods;
- :func:`segment_references` / :func:`references`: the multiprogrammed
  scheduler loop over those models, one :class:`Reference` each;
- :class:`DirectMappedL1`: the direct-mapped write-back,
  write-allocate L1, one reference per ``access`` call;
- :func:`capture`: one ``access`` call per reference.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.cache.address import AddressMapper
from repro.cache.direct_mapped import MemoryRequest, RequestKind
from repro.cache.hierarchy import MissStream
from repro.cache.stats import CacheStats
from repro.cache.stream import FLUSH_MARKER
from repro.errors import ConfigurationError
from repro.trace.process_model import (
    _CHASE_BASE,
    _CODE_BASE,
    _DATA_BASE,
    PROCESS_SPACE_BITS,
    ProcessParameters,
    _ZipfCdf,
    shared_block_set,
)
from repro.trace.reference import FLUSH, AccessKind, Reference


class ProcessModel:
    """Reference generator for one process (or the OS kernel)."""

    def __init__(
        self,
        pid: int,
        seed: int,
        params: ProcessParameters = ProcessParameters(),
    ) -> None:
        if pid < 0:
            raise ConfigurationError("pid must be non-negative")
        params.validate()
        self.pid = pid
        self.params = params
        self._rng = random.Random((seed << 20) ^ (pid * 0x9E3779B1))
        self._base = pid << PROCESS_SPACE_BITS
        region = 1 << (PROCESS_SPACE_BITS - 2)  # 16 MB per region
        # The code segment lands at a random 32 KB-aligned spot in the
        # code region, like a randomly relocated executable.
        code_span = params.routines * params.routine_size
        code_slots = max(1, (region - code_span) // 0x8000)
        self._code_base = (
            self._base + _CODE_BASE + self._rng.randrange(code_slots) * 0x8000
        )
        self._data_base = self._base + _DATA_BASE
        self._data_region_granules = region // params.data_block
        self._pc = self._code_base
        self._data_stack: List[int] = []
        self._zipf_cdf = _ZipfCdf(params.data_stack, params.data_theta)
        self._routine_cdf = _ZipfCdf(params.routines, params.routine_theta)
        # Each process gets its own hot-routine ordering, so different
        # processes do not share a layout (they cannot share blocks
        # anyway — distinct address spaces).
        self._routine_order = list(range(params.routines))
        self._rng.shuffle(self._routine_order)
        self._arena_remaining = 0
        self._next_new_block = self._fresh_arena()
        self._run_block = None
        self._run_remaining = 0
        # The chase set is scattered uniformly through its own 16 MB
        # region (linked structures live wherever the allocator put
        # them), at chase_spacing-granule alignment so distinct entries
        # never share a cache block.
        chase_base = (self._base + _CHASE_BASE) // params.data_block
        step = params.chase_spacing
        slots = self._data_region_granules // step
        positions = set()
        while len(positions) < params.chase_blocks:
            positions.add(self._skewed_slot(slots) * step)
        self._chase_set = [chase_base + p for p in sorted(positions)]
        self._rng.shuffle(self._chase_set)
        self._chase_cdf = _ZipfCdf(params.chase_blocks, params.chase_theta)
        if params.shared_fraction > 0.0:
            self._shared_set = shared_block_set(
                params.shared_blocks, granule=params.data_block
            )
            self._shared_cdf = _ZipfCdf(params.shared_blocks, params.shared_theta)
        else:
            self._shared_set = ()
            self._shared_cdf = None

    def _skewed_slot(self, slots: int) -> int:
        """A slot index skewed toward 0 by ``placement_skew``."""
        u = self._rng.random() ** self.params.placement_skew
        index = int(u * slots)
        return min(index, slots - 1)

    def _fresh_arena(self) -> int:
        """Pick a new 64 KB-aligned arena in the data region."""
        params = self.params
        arena_granules = 0x10000 // params.data_block
        arenas = max(1, self._data_region_granules // arena_granules)
        start = self._skewed_slot(arenas) * arena_granules
        self._arena_remaining = params.arena_granules
        return self._data_base // params.data_block + start

    def next_reference(self) -> Tuple[AccessKind, int]:
        """Produce one ``(kind, address)`` pair."""
        rng = self._rng
        if rng.random() < self.params.instruction_fraction:
            return AccessKind.INSTRUCTION, self._next_instruction()
        if self._shared_cdf is not None and (
            rng.random() < self.params.shared_fraction
        ):
            rank = bisect.bisect_left(self._shared_cdf, rng.random())
            block = self._shared_set[rank]
            offset = rng.randrange(self.params.data_block // 4) * 4
            address = block * self.params.data_block + offset
            if rng.random() < self.params.shared_store_fraction:
                return AccessKind.STORE, address
            return AccessKind.LOAD, address
        address = self._next_data_address()
        if rng.random() < self.params.store_fraction:
            return AccessKind.STORE, address
        return AccessKind.LOAD, address

    def _next_instruction(self) -> int:
        params = self.params
        rng = self._rng
        address = self._pc
        if rng.random() < params.branch_probability:
            if rng.random() < params.loop_branch_fraction:
                # Short backward branch: loop within the current routine.
                span = min(params.loop_span, address - self._code_base)
                if span >= 4:
                    self._pc = address - (rng.randrange(span // 4) + 1) * 4
                else:
                    self._pc = address + 4
            else:
                # Call/jump to the start of another routine; targets are
                # Zipf-distributed so a few routines are hot.
                rank = bisect.bisect_left(self._routine_cdf, rng.random())
                routine = self._routine_order[rank]
                self._pc = self._code_base + routine * params.routine_size
        else:
            self._pc = address + 4
            end = self._code_base + params.routines * params.routine_size
            if self._pc >= end:
                self._pc = self._code_base
        return address

    def _next_data_address(self) -> int:
        params = self.params
        rng = self._rng

        if params.chase_fraction and rng.random() < params.chase_fraction:
            rank = bisect.bisect_left(self._chase_cdf, rng.random())
            block = self._chase_set[rank]
            offset = rng.randrange(params.data_block // 4) * 4
            return block * params.data_block + offset

        if self._run_remaining > 0 and self._run_block is not None:
            # Continue a sequential run into the adjacent block.
            self._run_remaining -= 1
            self._run_block += 1
            block = self._run_block
            self._promote(block)
        else:
            block = self._pick_block()
            if rng.random() < params.sequential_run_probability:
                self._run_block = block
                self._run_remaining = rng.randrange(1, 5)
            else:
                self._run_remaining = 0
        offset = rng.randrange(params.data_block // 4) * 4
        return block * params.data_block + offset

    def _pick_block(self) -> int:
        params = self.params
        rng = self._rng
        stack = self._data_stack
        fresh = not stack or rng.random() < params.new_block_probability
        if not fresh:
            u = rng.random()
            distance = bisect.bisect_left(self._zipf_cdf, u) + 1
            if distance > len(stack):
                fresh = True
        if fresh:
            if self._arena_remaining <= 0:
                self._next_new_block = self._fresh_arena()
            skip = self.params.allocation_skip_max
            if skip > 1:
                skip = rng.randrange(1, skip + 1)
            block = self._next_new_block + skip - 1
            self._next_new_block = block + 1
            self._arena_remaining -= skip
        else:
            block = stack.pop(distance - 1)
        stack.insert(0, block)
        if len(stack) > params.data_stack:
            stack.pop()
        return block

    def _promote(self, block: int) -> None:
        stack = self._data_stack
        try:
            stack.remove(block)
        except ValueError:
            pass
        stack.insert(0, block)
        if len(stack) > self.params.data_stack:
            stack.pop()


def segment_references(workload, segment: int) -> Iterator[Reference]:
    """One segment of ``workload`` through the oracle process models."""
    params = workload.params
    scheduler = random.Random((workload.seed * 1_000_003) ^ segment)
    users = [
        ProcessModel(1 + i, seed=workload.seed ^ (segment << 8), params=params.user)
        for i in range(params.processes)
    ]
    kernel = ProcessModel(1 + params.processes, seed=workload.seed, params=params.os)
    produced = 0
    total = workload.references_per_segment
    while produced < total:
        if scheduler.random() < params.os_quantum_fraction:
            process = kernel
            quantum = max(1, int(scheduler.expovariate(1.0) * params.switch_interval * 0.3))
        else:
            process = users[scheduler.randrange(len(users))]
            quantum = max(1, int(scheduler.expovariate(1.0) * params.switch_interval))
        quantum = min(quantum, total - produced)
        for _ in range(quantum):
            kind, address = process.next_reference()
            yield Reference(kind, address)
        produced += quantum


def references(workload) -> Iterator[Reference]:
    """The whole oracle trace, FLUSH between cold-start segments."""
    for segment in range(workload.segments):
        if segment > 0 and workload.cold_start:
            yield FLUSH
        yield from segment_references(workload, segment)


class DirectMappedL1:
    """Direct-mapped, write-back, write-allocate L1 (paper Table 3)."""

    def __init__(self, capacity_bytes: int, block_size: int) -> None:
        num_lines = capacity_bytes // block_size
        self.mapper = AddressMapper(block_size, num_lines)
        self._tags: List[Optional[int]] = [None] * num_lines
        self._dirty: List[bool] = [False] * num_lines
        self.stats = CacheStats()

    def access(self, ref: Reference) -> List[MemoryRequest]:
        """Service one reference: ``[]`` on a hit; on a miss a read-in,
        then a write-back if the victim was dirty."""
        index, tag = self.mapper.split(ref.address)
        if self._tags[index] == tag:
            self.stats.readin_hits += 1
            if ref.kind is AccessKind.STORE:
                self._dirty[index] = True
            return []
        self.stats.readin_misses += 1
        block_start = (ref.address >> self.mapper.block_bits) << self.mapper.block_bits
        requests = [MemoryRequest(RequestKind.READ_IN, block_start)]
        victim_tag = self._tags[index]
        if victim_tag is not None:
            self.stats.evictions += 1
            if self._dirty[index]:
                self.stats.dirty_evictions += 1
                victim_addr = self.mapper.rebuild(index, victim_tag)
                requests.append(MemoryRequest(RequestKind.WRITE_BACK, victim_addr))
        self._tags[index] = tag
        self._dirty[index] = ref.kind is AccessKind.STORE
        return requests

    def invalidate_all(self) -> None:
        """Cold-start flush: no write-backs."""
        self._tags = [None] * len(self._tags)
        self._dirty = [False] * len(self._dirty)


_REQUEST_CODES = {RequestKind.READ_IN: 0, RequestKind.WRITE_BACK: 1}


def capture(trace: Iterable[Reference], l1) -> MissStream:
    """Run ``trace`` through ``l1`` one ``access`` call per reference."""
    stream = MissStream()
    for ref in trace:
        if ref.is_flush:
            l1.invalidate_all()
            stream.events.append(FLUSH_MARKER)
            continue
        stream.processor_references += 1
        for request in l1.access(ref):
            stream.events.append((_REQUEST_CODES[request.kind], request.address))
    return stream
