"""Fused L2 replay: one LRU kernel that accounts every scheme at once.

The schemes' probe counts are all pure functions of a handful of
*shared lookup facts* about the pre-update set state:

- the hit frame (ground truth, one dict lookup);
- the hit block's MRU rank (one C-level ``list.index``);
- per partial-compare configuration, which frames partially match the
  incoming tag.

:class:`FusedProbeEngine` is an L2 cache model bound to one geometry
and one channel roster. :meth:`~FusedProbeEngine.replay` runs a whole
captured miss stream through a single loop that inlines the set/tag
split, true-LRU replacement with the seeded random fill of empty
frames, and the accounting of those facts into *histograms* (hits by
frame, hits by MRU rank). :meth:`~FusedProbeEngine.finalize` then
derives every scheme's probe totals analytically:

======================  ================================================
scheme                  probes per access
======================  ================================================
traditional             ``1`` (hit or miss)
naive                   hit at frame ``f`` → ``f + 1``; miss → ``a``
mru (list length m)     hit at distance ``d ≤ m`` → ``1 + d``; hit in
                        the unlisted tail → ``1 + m + tail_rank + 1``;
                        miss → ``1 + a``
partial (s subsets)     one step-one probe per subset reached, plus one
                        step-two probe per partial match scanned (none
                        when the partial width equals the tag width)
======================  ================================================

Cache state is flat and lives in the loop's locals: one block→frame
dict for the whole cache, and per touched set a list of resident
blocks in MRU order, a list of empty frames, and one integer holding
the partial-compare fields of every frame. Like the paper's hardware,
which stores transformed tags, the engine stores at fill time the
field each partial comparator will read; a lookup then XORs the set's
word with the incoming tag's word and finds every partially matching
frame with a few word-wide operations (one guard bit per field), so
no per-frame Python loop runs. Only partial compares and hits past a
reduced MRU list need per-access arithmetic; everything else is a
histogram increment.

The engine must stay bit-identical to the observer path
(:class:`~repro.cache.set_associative.SetAssociativeCache` with
:mod:`repro.cache.observers` attached), which remains the reference
oracle; ``tests/core/test_engine_differential.py`` enforces that.
It models the paper's replacement policy only: true LRU, filling
empty frames at random in frame order from a generator seeded as
:class:`~repro.cache.replacement.LruReplacement` seeds it, and
reseeded at every flush marker.

Schemes the engine has no analytic model for (exact classes only;
subclasses and e.g. :class:`~repro.core.banked.BankedLookup` included)
fall back to a generic per-access ``lookup()`` over one
:class:`~repro.core.probes.SetView` snapshot, so the engine accepts
any scheme the observer path does.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.mru import MRULookup
from repro.core.naive import NaiveLookup
from repro.core.partial import PartialCompareLookup
from repro.core.probes import ProbeAccumulator, SetView
from repro.core.schemes import LookupScheme
from repro.core.traditional import TraditionalLookup
from repro.errors import ConfigurationError

#: Channel kinds (how finalize derives the accumulator).
_TRADITIONAL = 0
_NAIVE = 1
_MRU = 2
_PARTIAL = 3
_GENERIC = 4

#: Indices into the engine's shared counter list.
_READIN_HITS = 0
_READIN_MISSES = 1
_WB_HITS = 2
_WB_MISSES = 3
_UPDATES = 4


class EngineChannel:
    """One accounted scheme: a label, a scheme, and its accumulator.

    ``accumulator`` triggers a (cheap, idempotent) engine
    :meth:`~FusedProbeEngine.finalize` so reads are always current.
    """

    __slots__ = (
        "label", "scheme", "writeback_optimization", "kind",
        "list_length", "consult", "tail_hit_probes", "tail_wb_probes",
        "group", "_engine", "_accumulator",
    )

    def __init__(
        self,
        engine: "FusedProbeEngine",
        label: str,
        scheme: LookupScheme,
        writeback_optimization: bool,
        kind: int,
    ) -> None:
        self.label = label
        self.scheme = scheme
        self.writeback_optimization = writeback_optimization
        self.kind = kind
        self.list_length = 0
        self.consult = 0
        # Probes spent on hits past a reduced MRU list (accumulated per
        # access: they depend on which frames the listed head names).
        self.tail_hit_probes = 0
        self.tail_wb_probes = 0
        self.group: Optional["_PartialGroup"] = None
        # Weak, so the engine and its cache state are freed as soon as
        # the caller drops the engine, not at the next cyclic collection.
        self._engine = weakref.ref(engine)
        self._accumulator = ProbeAccumulator()

    @property
    def accumulator(self) -> ProbeAccumulator:
        """Up-to-date probe totals (finalizes the engine on read)."""
        engine = self._engine()
        if engine is not None:
            engine.finalize()
        return self._accumulator

    def __repr__(self) -> str:
        return f"EngineChannel(label={self.label!r}, scheme={self.scheme!r})"


class MruDistanceStats:
    """Engine-side MRU hit-distance histogram (Figure 5, right).

    Field-compatible with
    :class:`~repro.cache.observers.MruDistanceObserver`: ``counts``,
    ``hits``, ``accesses``, ``updates``, :meth:`distribution` and
    :attr:`update_fraction` carry the same meanings, so result assembly
    code can consume either.
    """

    def __init__(self, associativity: int) -> None:
        self.associativity = associativity
        self.counts: Dict[int, int] = {}
        self.hits = 0
        self.accesses = 0
        self.updates = 0
        self.label = "mru-distance"

    @property
    def update_fraction(self) -> float:
        """``u``: fraction of accesses that rewrite the MRU list."""
        if self.accesses == 0:
            return 0.0
        return self.updates / self.accesses

    def distribution(self) -> List[float]:
        """``f_i`` for ``i = 1..a``: P(hit at MRU distance i | hit)."""
        if self.hits == 0:
            return [0.0] * self.associativity
        return [
            self.counts.get(i, 0) / self.hits
            for i in range(1, self.associativity + 1)
        ]


class _PartialGroup:
    """All channels sharing one partial-compare configuration.

    Aliased labels (the runner adds the same
    :class:`~repro.core.partial.PartialCompareLookup` instance under
    both ``partial`` and ``partial/<transform>/t<width>``) share one
    probe computation per access.

    A lookup that reaches frame ``f`` spends ``f // subset_size + 1``
    step-one probes (folded out of the frame histograms at finalize)
    plus, below full width, one step-two probe per partial match in
    frames ``0..f``. Only those match counts are accumulated per
    access (``hit_matches``, ``miss_matches``, ``wb_matches``).
    Full-width groups need no scan at all: a partial match there is a
    full match of the stored bits, and step two never runs.
    """

    __slots__ = (
        "scheme", "channels", "subsets", "subset_size", "full_width",
        "needs_wb_lookup", "index", "spread", "hit_matches",
        "miss_matches", "wb_matches",
    )

    def __init__(self, scheme: PartialCompareLookup) -> None:
        self.scheme = scheme
        self.channels: List[EngineChannel] = []
        self.subsets = scheme.subsets
        self.subset_size = scheme.subset_size
        self.full_width = scheme._full_width
        self.needs_wb_lookup = False
        #: Position among the scanned groups (``None`` at full width).
        self.index: Optional[int] = None
        #: Multiplier copying one subset's packed fields into every
        #: subset's slots (set by the engine's field layout).
        self.spread = 0
        self.hit_matches = 0
        self.miss_matches = 0
        self.wb_matches = 0

    def fields(self, tag: int) -> List[int]:
        """The field each comparator position of a subset reads for ``tag``.

        Raises:
            ConfigurationError: When a transform's ``compare_slice``
                returns more than the scheme's ``partial_bits`` bits.
        """
        scheme = self.scheme
        masked = tag & scheme._tag_mask
        bits = scheme.partial_bits
        if scheme._default_slicing:
            stored = scheme.transform.apply(masked)
            field_mask = scheme._field_mask
            return [
                (stored >> (position * bits)) & field_mask
                for position in range(self.subset_size)
            ]
        values = [
            scheme.transform.compare_slice(masked, position)
            for position in range(self.subset_size)
        ]
        if max(values) >> bits or min(values) < 0:
            raise ConfigurationError(
                f"{scheme.transform!r}.compare_slice returned more than "
                f"{bits} bits"
            )
        return values


class _FieldLayout:
    """Where the scanned partial-compare groups keep their fields.

    Each set holds one integer; frame ``f`` of scanned group ``g`` owns
    slot ``g * a + f`` of it: the field that frame's comparator reads,
    a valid bit above it (clear in an empty frame, so an empty frame
    never matches) and a guard bit on top. XOR-ing a set's word with
    the incoming tag's word leaves a zero slot exactly where a valid
    frame partially matches, and ``((x | guards) - lows) & guards``
    keeps the guard bit of each non-zero slot without borrowing across
    slots.
    """

    def __init__(self, groups: List[_PartialGroup], associativity: int) -> None:
        a = associativity
        self.groups = groups
        width = max(group.scheme.partial_bits for group in groups) + 2
        self.width = width
        self.valid = 1 << (width - 2)
        self.lows = sum(1 << (slot * width) for slot in range(len(groups) * a))
        self.guards = self.lows << (width - 1)
        slot_mask = (1 << width) - 1
        #: Per frame: its slot in every group (``keep``: all other slots).
        self.lanes = [0] * a
        #: Per group and frame ``f``: the guard bits of frames ``0..f``.
        self.prefixes = []
        for group in groups:
            base = group.index * a
            group.spread = sum(
                1 << ((base + subset * group.subset_size) * width)
                for subset in range(group.subsets)
            )
            below = (1 << (base * width)) - 1
            prefix = []
            for frame in range(a):
                self.lanes[frame] |= slot_mask << ((base + frame) * width)
                upto = (1 << ((base + frame + 1) * width)) - 1
                prefix.append(self.guards & upto & ~below)
            self.prefixes.append(tuple(prefix))
        everything = sum(self.lanes)
        self.keep = [everything ^ lane for lane in self.lanes]
        #: Per group: the guard bits of every frame (a miss scans all).
        self.totals = [prefix[-1] for prefix in self.prefixes]
        self.words: Dict[int, int] = {}

    def encode(self, tag: int) -> int:
        """The incoming word for ``tag`` (memoized in :attr:`words`):
        every group's fields, each with its valid bit, in the slot of
        every frame."""
        width = self.width
        valid = self.valid
        word = 0
        for group in self.groups:
            subset_word = 0
            shift = 0
            for value in group.fields(tag):
                subset_word |= (value | valid) << shift
                shift += width
            word |= subset_word * group.spread
        self.words[tag] = word
        return word


class FusedProbeEngine:
    """An L2 cache model that replays a miss stream for many schemes.

    Bound to one geometry; register the roster with :meth:`add_scheme`
    and :meth:`add_mru_distance`, then call :meth:`replay` with the
    stream's events (:func:`~repro.cache.hierarchy.replay_miss_stream`
    does). Hit, miss and eviction counters land in :attr:`stats`, like
    :class:`~repro.cache.set_associative.SetAssociativeCache`'s. Read
    probe totals through the channels' ``accumulator``
    (auto-finalizing) or call :meth:`finalize` after the replay.
    Cache state persists across :meth:`replay` calls.

    Engines hold per-roster state and are not meant to be pickled; a
    sweep worker runs its whole replay in one process and ships back
    the assembled result (plain data) instead.

    Args:
        capacity_bytes: Total data capacity.
        block_size: Block size in bytes (power of two).
        associativity: Set size ``a`` (power of two).
    """

    def __init__(
        self, capacity_bytes: int, block_size: int, associativity: int
    ) -> None:
        # Imported here: repro.cache imports repro.core while it loads.
        from repro.cache.replacement import LruReplacement
        from repro.cache.set_associative import l2_address_mapper
        from repro.cache.stats import CacheStats

        mapper = l2_address_mapper(capacity_bytes, block_size, associativity)
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.num_sets = mapper.num_sets
        self._block_bits = mapper.block_bits
        self._set_bits = mapper.set_bits
        #: The replacement policy the kernel inlines.
        self.replacement = LruReplacement()
        self.stats = CacheStats()
        #: Channels in attach order, keyed by label.
        self.channels: Dict[str, EngineChannel] = {}
        # Shared-fact counters (see the _READIN_HITS.._UPDATES indices)
        # and histograms over pre-update state: read-in hits by frame
        # index / by 0-based MRU rank, then write-back hits likewise
        # (folded out only for channels modelling un-optimized
        # write-backs).
        self._counts = [0, 0, 0, 0, 0]
        self._frame_hist = [0] * associativity
        self._dist_hist = [0] * associativity
        self._wb_frame_hist = [0] * associativity
        self._wb_dist_hist = [0] * associativity
        # Channel families.
        self._analytic: List[EngineChannel] = []
        self._mru_reduced: List[EngineChannel] = []
        self._partial: List[_PartialGroup] = []
        self._partial_by_scheme: Dict[int, _PartialGroup] = {}
        self._scanned: List[_PartialGroup] = []
        self._generic: List[EngineChannel] = []
        self._distances: List[MruDistanceStats] = []
        # Live cache state: block -> frame; per set (None until first
        # filled), resident blocks most recent first and empty frames in
        # frame order; per set, the packed partial-compare fields.
        self._where: Dict[int, int] = {}
        self._mru_of: List[Optional[List[int]]] = [None] * self.num_sets
        self._free_of: List[Optional[List[int]]] = [None] * self.num_sets
        self._packed_of: List[int] = [0] * self.num_sets
        self._dirty: set = set()
        self._rng = random.Random(self.replacement.seed)
        # Packed-field layout of the scanned groups, fixed at the first
        # replay.
        self._layout: Optional[_FieldLayout] = None
        self._replayed = False
        # Counter values already published to a metrics registry, so
        # repeated publish_metrics calls only add the delta.
        self._published_counts = [0, 0, 0, 0, 0]

    def add_scheme(
        self,
        scheme: LookupScheme,
        writeback_optimization: bool = True,
        label: Optional[str] = None,
    ) -> EngineChannel:
        """Account for ``scheme``; returns the channel with its accumulator.

        The same scheme instance may be added under several labels; its
        per-access probe computation is shared. Exact instances of the
        four paper schemes use the analytic fast path; subclasses and
        unknown schemes fall back to a generic ``lookup()`` call.
        Add every scheme before the first :meth:`replay`.
        """
        if scheme.associativity != self.associativity:
            raise ConfigurationError(
                f"scheme for associativity {scheme.associativity} attached "
                f"to an engine for associativity {self.associativity}"
            )
        if self._replayed:
            raise ConfigurationError("add every scheme before the first replay")
        if label is None:
            label = scheme.name
        if label in self.channels:
            raise ConfigurationError(f"channel label {label!r} already in use")
        kind = type(scheme)
        if kind is TraditionalLookup:
            channel = EngineChannel(
                self, label, scheme, writeback_optimization, _TRADITIONAL
            )
            self._analytic.append(channel)
        elif kind is NaiveLookup:
            channel = EngineChannel(
                self, label, scheme, writeback_optimization, _NAIVE
            )
            self._analytic.append(channel)
        elif kind is MRULookup:
            channel = EngineChannel(
                self, label, scheme, writeback_optimization, _MRU
            )
            channel.list_length = scheme.list_length
            channel.consult = scheme.LIST_LOOKUP_PROBES
            self._analytic.append(channel)
            if scheme.list_length < self.associativity:
                self._mru_reduced.append(channel)
        elif kind is PartialCompareLookup:
            channel = EngineChannel(
                self, label, scheme, writeback_optimization, _PARTIAL
            )
            group = self._partial_by_scheme.get(id(scheme))
            if group is None:
                group = _PartialGroup(scheme)
                self._partial.append(group)
                self._partial_by_scheme[id(scheme)] = group
                if not group.full_width:
                    group.index = len(self._scanned)
                    self._scanned.append(group)
            group.channels.append(channel)
            channel.group = group
            if not writeback_optimization:
                group.needs_wb_lookup = True
        else:
            channel = EngineChannel(
                self, label, scheme, writeback_optimization, _GENERIC
            )
            self._generic.append(channel)
        self.channels[label] = channel
        return channel

    def add_mru_distance(self) -> MruDistanceStats:
        """Track the MRU hit-distance histogram; returns the stats object."""
        stats = MruDistanceStats(self.associativity)
        self._distances.append(stats)
        return stats

    def accumulator(self, label: str) -> ProbeAccumulator:
        """The accumulator of the channel registered under ``label``."""
        return self.channels[label].accumulator

    def replay(self, events: Iterable[Tuple[int, int]]) -> None:
        """Replay ``(kind_code, address)`` events: the whole-stream kernel.

        Code 0 is a read-in, 1 a write-back, and a negative code a
        flush marker (a cold start: every set empties, without
        write-backs, and the fill generator is reseeded). A read-in miss
        installs the block clean, a write-back miss dirty; a write-back
        hit dirties the block. Each access is accounted against the
        set's state *before* it is updated.
        """
        a = self.associativity
        block_bits = self._block_bits
        set_bits = self._set_bits
        num_sets = self.num_sets
        set_mask = num_sets - 1
        frames = list(range(a))
        where = self._where
        where_get = where.get
        where_pop = where.pop
        mru_of = self._mru_of
        free_of = self._free_of
        packed_of = self._packed_of
        dirty = self._dirty
        dirty_add = dirty.add
        rng = self._rng
        randrange = rng.randrange
        seed = self.replacement.seed
        frame_hist = self._frame_hist
        dist_hist = self._dist_hist
        wb_frame_hist = self._wb_frame_hist
        wb_dist_hist = self._wb_dist_hist
        # Hits and MRU updates are folded out of the histograms below.
        readin_misses = wb_misses = evictions = dirty_evictions = 0

        # Hits past a reduced MRU list depend on which frames the
        # listed head names, so they are accounted per access.
        tails = tuple(self._mru_reduced)
        tail_rank = min((c.list_length for c in tails), default=a)
        generic = tuple(self._generic)

        scanned = tuple(self._scanned)
        scan = bool(scanned)
        scan_wb = any(group.needs_wb_lookup for group in scanned)
        if scan and self._layout is None:
            self._layout = _FieldLayout(self._scanned, a)
        self._replayed = True
        if scan:
            layout = self._layout
            words_get = layout.words.get
            encode = layout.encode
            guards = layout.guards
            lows = layout.lows
            lanes = layout.lanes
            keep = layout.keep
            prefixes = layout.prefixes
            totals = layout.totals
            # One configuration (every roster but Figure 6's) tallies
            # into locals; several tally per group.
            single = len(scanned) == 1
            prefix0 = prefixes[0]
            total0 = totals[0]
            hit_scan = scanned[0].hit_matches
            miss_scan = scanned[0].miss_matches
            wb_scan = scanned[0].wb_matches
            hit_matches = [g.hit_matches for g in scanned]
            miss_matches = [g.miss_matches for g in scanned]
            wb_matches = [g.wb_matches for g in scanned]
            groups = range(len(scanned))

        for code, address in events:
            if code < 0:
                where.clear()
                mru_of = [None] * num_sets
                free_of = [None] * num_sets
                packed_of = [0] * num_sets
                dirty.clear()
                rng.seed(seed)
                continue
            block = address >> block_bits
            s = block & set_mask
            frame = where_get(block)
            if frame is not None:
                mru = mru_of[s]
                rank = mru.index(block)
                if code:
                    wb_frame_hist[frame] += 1
                    wb_dist_hist[rank] += 1
                else:
                    frame_hist[frame] += 1
                    dist_hist[rank] += 1
                if rank >= tail_rank:
                    for channel in tails:
                        m = channel.list_length
                        if rank < m or (code and channel.writeback_optimization):
                            continue
                        ahead = 0
                        for listed in mru[:m]:
                            if where[listed] < frame:
                                ahead += 1
                        probes = channel.consult + m + (frame - ahead) + 1
                        if code:
                            channel.tail_wb_probes += probes
                        else:
                            channel.tail_hit_probes += probes
                if scan and (not code or scan_wb):
                    word = words_get(block >> set_bits)
                    if word is None:
                        word = encode(block >> set_bits)
                    x = packed_of[s] ^ word
                    matches = (((x | guards) - lows) & guards) ^ guards
                    if single:
                        if code:
                            wb_scan += (matches & prefix0[frame]).bit_count()
                        else:
                            hit_scan += (matches & prefix0[frame]).bit_count()
                    else:
                        tally = wb_matches if code else hit_matches
                        for g in groups:
                            tally[g] += (matches & prefixes[g][frame]).bit_count()
                if generic:
                    self._generic_lookups(generic, mru, block, code)
                if rank:
                    del mru[rank]
                    mru.insert(0, block)
                if code:
                    dirty_add(block)
                continue

            # Miss: account, then fill (an empty frame first, at random).
            mru = mru_of[s]
            if mru is None:
                mru = mru_of[s] = []
                free_of[s] = frames[:]
            if code:
                wb_misses += 1
            else:
                readin_misses += 1
            if scan:
                word = words_get(block >> set_bits)
                if word is None:
                    word = encode(block >> set_bits)
                packed = packed_of[s]
                if not code or scan_wb:
                    x = packed ^ word
                    matches = (((x | guards) - lows) & guards) ^ guards
                    if single:
                        if code:
                            wb_scan += (matches & total0).bit_count()
                        else:
                            miss_scan += (matches & total0).bit_count()
                    else:
                        tally = wb_matches if code else miss_matches
                        for g in groups:
                            tally[g] += (matches & totals[g]).bit_count()
            if generic:
                self._generic_lookups(generic, mru, block, code)
            if len(mru) < a:
                free = free_of[s]
                victim = free.pop(randrange(len(free)))
            else:
                evicted = mru.pop()
                victim = where_pop(evicted)
                evictions += 1
                if evicted in dirty:
                    dirty.remove(evicted)
                    dirty_evictions += 1
            where[block] = victim
            mru.insert(0, block)
            if code:
                dirty_add(block)
            if scan:
                packed_of[s] = (packed & keep[victim]) | (word & lanes[victim])

        self._mru_of = mru_of
        self._free_of = free_of
        self._packed_of = packed_of
        counts = self._counts
        readin_hits = sum(frame_hist) - counts[_READIN_HITS]
        wb_hits = sum(wb_frame_hist) - counts[_WB_HITS]
        counts[_READIN_HITS] += readin_hits
        counts[_READIN_MISSES] += readin_misses
        counts[_WB_HITS] += wb_hits
        counts[_WB_MISSES] += wb_misses
        # Every miss rewrites the MRU list, and so does every hit
        # below the head.
        counts[_UPDATES] = (
            counts[_READIN_MISSES] + counts[_WB_MISSES]
            + sum(dist_hist) - dist_hist[0]
            + sum(wb_dist_hist) - wb_dist_hist[0]
        )
        stats = self.stats
        stats.readin_hits += readin_hits
        stats.readin_misses += readin_misses
        stats.writeback_hits += wb_hits
        stats.writeback_misses += wb_misses
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions
        if scan and single:
            hit_matches, miss_matches = [hit_scan], [miss_scan]
            wb_matches = [wb_scan]
        for g, group in enumerate(scanned):
            group.hit_matches = hit_matches[g]
            group.miss_matches = miss_matches[g]
            group.wb_matches = wb_matches[g]

    def _generic_lookups(self, generic, mru, block, code) -> None:
        """Run the fallback channels' ``lookup()`` on one pre-update snapshot."""
        where = self._where
        set_bits = self._set_bits
        tags: List[Optional[int]] = [None] * self.associativity
        for resident in mru:
            tags[where[resident]] = resident >> set_bits
        view = SetView(
            tags=tuple(tags), mru_order=tuple([where[b] for b in mru])
        )
        tag = block >> set_bits
        for channel in generic:
            acc = channel._accumulator
            if code and channel.writeback_optimization:
                acc.record_writeback(0)
                continue
            outcome = channel.scheme.lookup(view, tag)
            if code:
                acc.record_writeback(outcome.probes)
            elif outcome.hit:
                acc.record_hit(outcome.probes)
            else:
                acc.record_miss(outcome.probes)

    def finalize(self) -> None:
        """Fold the shared-fact histograms into every accumulator.

        Idempotent and cheap (``O(channels × a)``); safe to call
        between replays — generic-fallback channels account per access
        and are left untouched.
        """
        a = self.associativity
        counts = self._counts
        readin_hits = counts[_READIN_HITS]
        readin_misses = counts[_READIN_MISSES]
        wb_hits = counts[_WB_HITS]
        wb_misses = counts[_WB_MISSES]
        writebacks = wb_hits + wb_misses
        frame_hist = self._frame_hist
        dist_hist = self._dist_hist
        wb_frame_hist = self._wb_frame_hist

        for channel in self._analytic:
            acc = channel._accumulator
            acc.hit_accesses = readin_hits
            acc.miss_accesses = readin_misses
            acc.writeback_accesses = writebacks
            kind = channel.kind
            if kind == _TRADITIONAL:
                acc.hit_probes = readin_hits
                acc.miss_probes = readin_misses
                wb_probes = writebacks
            elif kind == _NAIVE:
                acc.hit_probes = sum(
                    (f + 1) * n for f, n in enumerate(frame_hist) if n
                )
                acc.miss_probes = a * readin_misses
                wb_probes = (
                    sum((f + 1) * n for f, n in enumerate(wb_frame_hist) if n)
                    + a * wb_misses
                )
            else:  # _MRU
                consult = channel.consult
                m = channel.list_length
                acc.hit_probes = (
                    sum(
                        (consult + d) * dist_hist[d - 1]
                        for d in range(1, m + 1)
                        if dist_hist[d - 1]
                    )
                    + channel.tail_hit_probes
                )
                acc.miss_probes = (consult + a) * readin_misses
                wb_probes = (
                    sum(
                        (consult + d) * self._wb_dist_hist[d - 1]
                        for d in range(1, m + 1)
                        if self._wb_dist_hist[d - 1]
                    )
                    + channel.tail_wb_probes
                    + (consult + a) * wb_misses
                )
            acc.writeback_probes = (
                0 if channel.writeback_optimization else wb_probes
            )

        for group in self._partial:
            k = group.subset_size
            subsets = group.subsets
            hit_probes = group.hit_matches + sum(
                (f // k + 1) * n for f, n in enumerate(frame_hist) if n
            )
            miss_probes = group.miss_matches + subsets * readin_misses
            wb_probes = (
                group.wb_matches
                + sum((f // k + 1) * n for f, n in enumerate(wb_frame_hist) if n)
                + subsets * wb_misses
            )
            for channel in group.channels:
                acc = channel._accumulator
                acc.hit_accesses = readin_hits
                acc.hit_probes = hit_probes
                acc.miss_accesses = readin_misses
                acc.miss_probes = miss_probes
                acc.writeback_accesses = writebacks
                acc.writeback_probes = (
                    0 if channel.writeback_optimization else wb_probes
                )

        accesses = readin_hits + readin_misses + writebacks
        for stats in self._distances:
            stats.accesses = accesses
            stats.updates = counts[_UPDATES]
            stats.hits = readin_hits
            stats.counts = {
                d: dist_hist[d - 1]
                for d in range(1, a + 1)
                if dist_hist[d - 1]
            }

    def publish_metrics(self, registry=None) -> None:
        """Publish accounting totals as ``engine.*`` metrics, by delta.

        Called once per replay, after :meth:`finalize` — never from the
        per-access path. Publishes the shared-fact counters
        (``engine.accesses``, ``engine.readin_hits``,
        ``engine.readin_misses``, ``engine.writeback_hits``,
        ``engine.writeback_misses``, ``engine.mru_updates``) plus an
        ``engine.channels`` gauge. Only the *delta* since the previous
        publish is added, so calling again mid-session never
        double-counts; the counters are deterministic functions of the
        replayed stream, so snapshots merged across workers are
        bit-identical to a serial run's.

        Args:
            registry: Target :class:`~repro.obs.metrics.MetricsRegistry`;
                defaults to the process-global registry.
        """
        from repro.obs.metrics import get_metrics

        if registry is None:
            registry = get_metrics()
        counts = self._counts
        published = self._published_counts
        deltas = [now - before for now, before in zip(counts, published)]
        names = (
            "engine.readin_hits",
            "engine.readin_misses",
            "engine.writeback_hits",
            "engine.writeback_misses",
            "engine.mru_updates",
        )
        for name, delta in zip(names, deltas):
            if delta:
                registry.counter(name).inc(delta)
        access_delta = sum(deltas[:_UPDATES])
        if access_delta:
            registry.counter("engine.accesses").inc(access_delta)
        registry.gauge("engine.channels").set(len(self.channels))
        self._published_counts = list(counts)

    def __repr__(self) -> str:
        return (
            f"FusedProbeEngine(capacity_bytes={self.capacity_bytes}, "
            f"block_size={self.block_size}, "
            f"associativity={self.associativity}, "
            f"channels={list(self.channels)!r})"
        )
