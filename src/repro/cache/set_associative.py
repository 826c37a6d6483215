"""Set-associative level-two cache with probe instrumentation.

Services read-in and write-back requests from the level-one cache
(Table 3), one request per method call. Replacement is true LRU by
default (FIFO and Random for the replacement ablation). Attached
observers (:meth:`SetAssociativeCache.attach`) each receive an
immutable :class:`~repro.core.probes.SetView` snapshot per access and
run their own lookup, so they compute how many probes each lookup
implementation would have spent, all from the same simulation pass.

This per-request model serves the hierarchy, multiprocessor,
inclusion and ablation studies, and it is the reference oracle for
probe accounting. Production L2 replays run through
:class:`~repro.core.engine.FusedProbeEngine`, a whole-stream kernel
that must stay bit-identical to this cache with observers attached.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from repro.cache.address import AddressMapper
from repro.cache.direct_mapped import MemoryRequest, RequestKind
from repro.cache.replacement import ReplacementPolicy, make_replacement
from repro.cache.set_state import CacheSet
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError


def l2_address_mapper(
    capacity_bytes: int, block_size: int, associativity: int
) -> AddressMapper:
    """Validate a set-associative geometry; return its address mapper.

    Raises:
        ConfigurationError: When the associativity is not a power of
            two or the capacity does not divide into blocks and sets.
    """
    if associativity <= 0 or associativity & (associativity - 1):
        raise ConfigurationError(
            f"associativity must be a positive power of two, got {associativity}"
        )
    blocks = capacity_bytes // block_size
    if blocks * block_size != capacity_bytes:
        raise ConfigurationError(
            f"capacity {capacity_bytes} is not a multiple of block size {block_size}"
        )
    if blocks % associativity:
        raise ConfigurationError(
            f"{blocks} blocks do not divide into {associativity}-way sets"
        )
    return AddressMapper(block_size, blocks // associativity)


class SetAssociativeCache:
    """An ``a``-way set-associative write-back cache.

    Args:
        capacity_bytes: Total data capacity.
        block_size: Block size in bytes (power of two).
        associativity: Set size ``a`` (power of two).
        replacement: Policy instance or registry name (default ``lru``).
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int,
        associativity: int,
        replacement: Union[ReplacementPolicy, str] = "lru",
    ) -> None:
        self.mapper = l2_address_mapper(
            capacity_bytes, block_size, associativity
        )
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.sets = [
            CacheSet(associativity) for _ in range(self.mapper.num_sets)
        ]
        if isinstance(replacement, str):
            replacement = make_replacement(replacement)
        self.replacement = replacement
        self.stats = CacheStats()
        self.observers: List = []
        #: Optional callable invoked with (block_address, was_dirty)
        #: whenever a valid block is evicted — the hook the hierarchy
        #: uses to enforce multi-level inclusion (back-invalidation).
        self.eviction_listener = None

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return len(self.sets)

    def attach(self, observer) -> None:
        """Attach a probe observer (see :mod:`repro.cache.observers`)."""
        self.observers.append(observer)

    def attach_all(self, observers: Iterable) -> None:
        """Attach several probe observers at once."""
        for observer in observers:
            self.attach(observer)

    def replay(self, events: Iterable[Tuple[int, int]]) -> None:
        """Service ``(kind_code, address)`` events one request at a time.

        Code 0 is a read-in, 1 a write-back, and a negative code a
        flush marker (:meth:`invalidate_all`).
        """
        read_in = self.read_in
        write_back = self.write_back
        for code, address in events:
            if code < 0:
                self.invalidate_all()
            elif code == 0:
                read_in(address)
            else:
                write_back(address)

    def request(self, req: MemoryRequest) -> bool:
        """Service one L1 request; return True on a hit."""
        if req.kind is RequestKind.READ_IN:
            return self.read_in(req.address)
        return self.write_back(req.address)

    def read_in(self, address: int) -> bool:
        """Service a read-in request; returns True on a hit.

        On a miss the LRU victim is evicted (an invalid frame is filled
        first) and the block installed clean.
        """
        index, tag = self.mapper.split(address)
        cache_set = self.sets[index]
        frame = cache_set.find(tag)
        if self.observers:
            self._notify(cache_set, tag, RequestKind.READ_IN)
        if frame is not None:
            self.stats.readin_hits += 1
            cache_set.touch(frame)
            return True

        self.stats.readin_misses += 1
        self._fill(index, tag, dirty=False)
        return False

    def write_back(self, address: int) -> bool:
        """Service a write-back from the L1; returns True on a hit.

        A hit dirties the block and refreshes its recency (the paper:
        write-backs "update the MRU list, determining the replacement
        policy"). Inclusion is not enforced, so a write-back can miss;
        the block is then allocated dirty.
        """
        index, tag = self.mapper.split(address)
        cache_set = self.sets[index]
        frame = cache_set.find(tag)
        if self.observers:
            self._notify(cache_set, tag, RequestKind.WRITE_BACK)
        if frame is not None:
            self.stats.writeback_hits += 1
            cache_set.set_dirty(frame)
            cache_set.touch(frame)
            return True

        self.stats.writeback_misses += 1
        self._fill(index, tag, dirty=True)
        return False

    def contains(self, address: int) -> bool:
        """Whether the block holding ``address`` is resident."""
        index, tag = self.mapper.split(address)
        return self.sets[index].find(tag) is not None

    def locate(self, address: int) -> Optional[int]:
        """Frame index holding ``address``'s block, or ``None``.

        Used for the paper's write-back optimization: the L1 retains a
        ``log2(a)``-bit indicator of the frame its block occupies in
        the L2 (blocks never change frames once loaded).
        """
        index, tag = self.mapper.split(address)
        return self.sets[index].find(tag)

    def invalidate(self, address: int) -> bool:
        """Drop the block holding ``address`` (no write-back traffic).

        Models a coherency invalidation arriving at this cache.
        Returns True if the block was resident.
        """
        index, tag = self.mapper.split(address)
        frame = self.sets[index].find(tag)
        if frame is None:
            return False
        self.sets[index].invalidate(frame)
        return True

    def invalidate_all(self) -> None:
        """Flush every set without write-backs (cold-start boundary).

        After the flush the cache is indistinguishable from a freshly
        constructed one: set state, tag indices, and the replacement
        policy's fill randomness are all restored to their cold state,
        so a replay after a flush marker is identical to one into a
        freshly constructed cache.
        """
        for cache_set in self.sets:
            cache_set.invalidate_all()
        self.replacement.reset()

    def _fill(self, set_index: int, tag: int, dirty: bool) -> None:
        cache_set = self.sets[set_index]
        victim = self.replacement.victim(cache_set)
        victim_tag = cache_set.tag_at(victim)
        if victim_tag is not None:
            self.stats.evictions += 1
            victim_dirty = cache_set.is_dirty(victim)
            if victim_dirty:
                self.stats.dirty_evictions += 1
            if self.eviction_listener is not None:
                address = self.mapper.rebuild(set_index, victim_tag)
                self.eviction_listener(address, victim_dirty)
        cache_set.install(victim, tag, dirty=dirty)

    def _notify(self, cache_set: CacheSet, tag: int, kind: RequestKind) -> None:
        if not self.observers:
            return
        view = cache_set.view()
        for observer in self.observers:
            observer.observe(view, tag, kind)

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache(capacity_bytes={self.capacity_bytes}, "
            f"block_size={self.block_size}, "
            f"associativity={self.associativity})"
        )
