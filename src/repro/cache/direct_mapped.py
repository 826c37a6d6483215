"""Direct-mapped write-back level-one cache (paper Table 3).

On a miss that replaces a dirty block, the new block is first obtained
via a *read-in* request and then a *write-back* of the victim is issued
to the level-two cache — in that order, as Table 3 specifies. The
cache is write-allocate: a store miss fetches the block and then dirties
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.address import AddressMapper
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError
from repro.trace.reference import KIND_CODES, Reference


class RequestKind(Enum):
    """Request types the level-one cache issues to the level below."""

    READ_IN = "read_in"
    WRITE_BACK = "write_back"


@dataclass(frozen=True)
class MemoryRequest:
    """One request from the level-one cache to the level-two cache.

    ``address`` is the byte address of the first byte of the level-one
    block (level-two geometry may differ; it re-maps the address).
    """

    kind: RequestKind
    address: int


#: Request kinds by the event codes :meth:`DirectMappedCache.capture`
#: emits (and miss streams store): 0 read-in, 1 write-back.
_REQUEST_KINDS = (RequestKind.READ_IN, RequestKind.WRITE_BACK)


class DirectMappedCache:
    """Direct-mapped, write-back, write-allocate cache."""

    def __init__(self, capacity_bytes: int, block_size: int) -> None:
        if capacity_bytes <= 0 or capacity_bytes % block_size:
            raise ConfigurationError(
                f"capacity {capacity_bytes} is not a multiple of block "
                f"size {block_size}"
            )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        num_lines = capacity_bytes // block_size
        self.mapper = AddressMapper(block_size, num_lines)
        self._tags: List[Optional[int]] = [None] * num_lines
        self._dirty: List[bool] = [False] * num_lines
        self.stats = CacheStats()

    @property
    def num_lines(self) -> int:
        """Number of direct-mapped lines."""
        return len(self._tags)

    def access(self, ref: Reference) -> List[MemoryRequest]:
        """Service one processor reference; return requests for the L2.

        Returns an empty list on a hit; on a miss, a read-in request
        followed (if the victim was dirty) by a write-back request.
        """
        events: List[Tuple[int, int]] = []
        self.capture(((KIND_CODES[ref.kind], ref.address),), events.append)
        if not events:
            return []
        return [
            MemoryRequest(_REQUEST_KINDS[code], address) for code, address in events
        ]

    def capture(
        self,
        pairs: Sequence[Tuple[int, int]],
        emit: Callable[[Tuple[int, int]], object],
    ) -> None:
        """Service a run of references given as ``(code, address)`` pairs.

        The cache's one access loop (:meth:`access` is a single-pair
        call into it). ``code`` indexes
        :data:`~repro.trace.reference.KINDS` (2 is a store). Each miss
        calls ``emit((0, block_start))`` for its read-in and then, if
        the victim was dirty, ``emit((1, victim_start))`` for its
        write-back: Table 3's order. Tags, dirty bits and ``stats``
        advance as one reference at a time would advance them, but no
        object is built per reference, which is what lets the L1
        capture (:func:`~repro.cache.hierarchy.capture_miss_stream`)
        run whole chunks of a generated trace through it.
        """
        tags, dirty = self._tags, self._dirty
        bits, set_bits = self.mapper.block_bits, self.mapper.set_bits
        mask = len(tags) - 1
        misses = evictions = dirty_evictions = 0
        for code, address in pairs:
            block = address >> bits
            line = block & mask
            tag = block >> set_bits
            victim = tags[line]
            if victim == tag:
                if code == 2:
                    dirty[line] = True
                continue
            misses += 1
            emit((0, block << bits))
            if victim is not None:
                evictions += 1
                if dirty[line]:
                    dirty_evictions += 1
                    emit((1, ((victim << set_bits) | line) << bits))
            tags[line] = tag
            dirty[line] = code == 2
        stats = self.stats
        stats.readin_hits += len(pairs) - misses
        if misses:
            stats.readin_misses += misses
            stats.evictions += evictions
            stats.dirty_evictions += dirty_evictions

    def contains(self, address: int) -> bool:
        """Whether the block holding ``address`` is resident."""
        index, tag = self.mapper.split(address)
        return self._tags[index] == tag

    def invalidate(self, address: int) -> Optional[bool]:
        """Drop the block holding ``address`` if resident.

        Returns ``None`` if the block was not resident, otherwise
        whether the dropped copy was dirty (the caller decides what to
        do about the lost write data — e.g. count a forced write-back
        when enforcing multi-level inclusion).
        """
        index, tag = self.mapper.split(address)
        if self._tags[index] != tag:
            return None
        was_dirty = self._dirty[index]
        self._tags[index] = None
        self._dirty[index] = False
        return was_dirty

    def invalidate_all(self) -> None:
        """Flush without write-backs (the paper's cold-start flush)."""
        for index in range(self.num_lines):
            self._tags[index] = None
            self._dirty[index] = False

    def resident_addresses(self) -> List[int]:
        """Block-start addresses of every resident block (inclusion
        checking and diagnostics)."""
        addresses = []
        for index, tag in enumerate(self._tags):
            if tag is not None:
                addresses.append(self.mapper.rebuild(index, tag))
        return addresses

    def flush_dirty(self) -> List[MemoryRequest]:
        """Write back every dirty block and invalidate the cache.

        Not used by the paper's cold-start protocol, but provided for
        warm-cache experiments.
        """
        requests = []
        for index in range(self.num_lines):
            tag = self._tags[index]
            if tag is not None and self._dirty[index]:
                address = self.mapper.rebuild(index, tag)
                requests.append(MemoryRequest(RequestKind.WRITE_BACK, address))
            self._tags[index] = None
            self._dirty[index] = False
        return requests

    def __repr__(self) -> str:
        return (
            f"DirectMappedCache(capacity_bytes={self.capacity_bytes}, "
            f"block_size={self.block_size})"
        )
