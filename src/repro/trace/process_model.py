"""Per-process reference model for the synthetic ATUM-like workload.

Each process owns a private virtual address space (its process id in
the high address bits, like distinct VAX process spaces) with a code
region and a data region, and produces a mix of:

- *instruction fetches*: a program counter that advances sequentially,
  takes short backward branches (loops), and occasionally calls into
  another routine — giving both strong spatial locality and a code
  working set;
- *loads/stores*: data blocks re-referenced by Zipf-distributed LRU
  stack distance, with new blocks allocated sequentially within the
  data region — giving tunable temporal locality plus the spatial
  locality that makes larger cache blocks pay off.

The parameters are calibrated (see
``tests/integration/test_calibration.py`` and EXPERIMENTS.md) so the
paper's three L1 configurations land near the published miss ratios.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.errors import ConfigurationError
from repro.trace.reference import KINDS, AccessKind

#: Bits reserved for the per-process offset; the process id occupies
#: the bits above, so distinct processes never share cache blocks — and
#: the high-order tag bits are highly non-uniform (a handful of pids
#: and regions), exactly the hazard the paper's tag transformations
#: address. 26 offset bits keep a multiprogramming mix of 8 processes
#: inside a 32-bit virtual space, so a 16-bit tag is *exact* for the
#: paper's level-two geometries (as on the VAX) rather than lossy.
PROCESS_SPACE_BITS = 26

_CODE_BASE = 0x0000_0000
_DATA_BASE = 0x0100_0000
_CHASE_BASE = 0x0200_0000

#: The pid-0 slice is reserved as the globally shared segment
#: (multiprocessor studies): every process/node that references shared
#: data references the *same* blocks here. User pids start at 1.
SHARED_BASE = 0x0000_0000
SHARED_SPAN = 1 << PROCESS_SPACE_BITS


def shared_block_set(count: int, granule: int = 16, seed: int = 0xC0FFEE):
    """The canonical shared-data granule set (same for every process).

    Scattered through the pid-0 slice at 64-byte spacing, seeded
    independently of any process so all nodes agree on the layout.
    """
    import random as _random

    if count <= 0:
        raise ConfigurationError("shared set must be non-empty")
    rng = _random.Random(seed ^ count)
    slots = SHARED_SPAN // granule // 4
    positions = set()
    while len(positions) < count:
        positions.add(rng.randrange(slots) * 4)
    base = SHARED_BASE // granule
    return tuple(base + p for p in sorted(positions))


@dataclass(frozen=True)
class ProcessParameters:
    """Tunable knobs of the per-process model."""

    #: Fraction of references that are instruction fetches.
    instruction_fraction: float = 0.50
    #: Fraction of *data* references that are stores.
    store_fraction: float = 0.15
    #: Probability an instruction fetch branches instead of advancing.
    branch_probability: float = 0.16
    #: Given a branch: probability it is a short backward loop branch.
    loop_branch_fraction: float = 0.92
    #: Maximum backward distance (bytes) of a loop branch.
    loop_span: int = 96
    #: Number of distinct routines in the code region.
    routines: int = 16
    #: Size of each routine in bytes.
    routine_size: int = 512
    #: Zipf exponent for call-target selection: most calls go to a few
    #: hot routines, with a long tail of cold ones (realistic call
    #: profiles; a uniform choice would inflate the code working set).
    routine_theta: float = 1.8
    #: Zipf exponent for data-block stack distances.
    data_theta: float = 1.75
    #: Maximum data stack distance tracked.
    data_stack: int = 6144
    #: Probability a data reference touches a brand-new block.
    new_block_probability: float = 0.0008
    #: Data granule size in bytes (unit of the stack model).
    data_block: int = 16
    #: Probability a data reference continues a sequential run.
    sequential_run_probability: float = 0.03
    #: New data blocks are allocated ``1..allocation_skip_max`` granules
    #: past the previous allocation (1 = strictly sequential). Values
    #: above 1 dilute spatial locality, controlling how much larger
    #: cache blocks help.
    allocation_skip_max: int = 8
    #: Fraction of data references that chase pointers through a fixed
    #: set of widely scattered granules (linked lists, hash buckets,
    #: page tables). These references have *no* spatial locality, so
    #: they are insensitive to cache block size while remaining very
    #: sensitive to cache size — the knob that sets how much larger
    #: blocks pay off overall.
    chase_fraction: float = 0.062
    #: Number of granules in the pointer-chase set.
    chase_blocks: int = 220
    #: Spacing between chase granules, in granules (>= 4 keeps them in
    #: distinct 64-byte regions).
    chase_spacing: int = 4
    #: Zipf exponent over the chase set (small = near uniform).
    chase_theta: float = 0.6
    #: Heap allocations are grouped into arenas of this many granules;
    #: each arena sits at a random 64 KB-aligned spot in the 16 MB data
    #: region (mmap-like placement). Spreading arenas through the
    #: region gives stored tags realistic entropy — with a packed heap
    #: every block of a process would share one 16-bit tag value and
    #: the partial-compare scheme would see pathological false-match
    #: rates no transform could fix.
    arena_granules: int = 1024
    #: Fraction of data references that touch the globally *shared*
    #: segment (multiprocessor studies; 0 keeps the uniprocessor
    #: calibration untouched). All processes and nodes reference the
    #: same shared granules.
    shared_fraction: float = 0.0
    #: Number of granules in the shared segment.
    shared_blocks: int = 256
    #: Zipf exponent over the shared set.
    shared_theta: float = 0.6
    #: Fraction of shared references that are stores (coherency
    #: invalidation generators).
    shared_store_fraction: float = 0.12
    #: Skew of region placement: arena and chase positions are drawn as
    #: ``region * u**placement_skew`` with ``u`` uniform, concentrating
    #: allocations near the region base (real heaps grow upward from a
    #: fixed origin). Skewed placement makes the *high-order* tag bits
    #: non-uniform while the low-order bits stay rich — precisely the
    #: situation Section 2.2's tag transformations are designed for,
    #: and what separates the None/XOR/Improved lines of Figure 6.
    placement_skew: float = 4.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on out-of-range knobs."""
        fractions = (
            self.instruction_fraction,
            self.store_fraction,
            self.branch_probability,
            self.loop_branch_fraction,
            self.new_block_probability,
            self.sequential_run_probability,
        )
        for value in fractions:
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"fraction {value} outside [0, 1]")
        if self.routines <= 0 or self.routine_size <= 0:
            raise ConfigurationError("code region must be non-empty")
        if self.data_stack <= 0:
            raise ConfigurationError("data_stack must be positive")
        if self.data_block <= 0 or self.data_block % 4:
            raise ConfigurationError("data_block must be a positive multiple of 4")
        if self.routine_theta <= 0 or self.data_theta <= 0:
            raise ConfigurationError("Zipf exponents must be positive")
        if self.allocation_skip_max < 1:
            raise ConfigurationError("allocation_skip_max must be at least 1")
        if not 0.0 <= self.chase_fraction <= 1.0:
            raise ConfigurationError("chase_fraction outside [0, 1]")
        if self.chase_blocks <= 0 or self.chase_spacing <= 0:
            raise ConfigurationError("chase set must be non-empty")
        if self.chase_theta <= 0:
            raise ConfigurationError("chase_theta must be positive")
        if self.arena_granules <= 0:
            raise ConfigurationError("arena_granules must be positive")
        if self.placement_skew < 1.0:
            raise ConfigurationError("placement_skew must be >= 1 (1 = uniform)")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ConfigurationError("shared_fraction outside [0, 1]")
        if not 0.0 <= self.shared_store_fraction <= 1.0:
            raise ConfigurationError("shared_store_fraction outside [0, 1]")
        if self.shared_blocks <= 0:
            raise ConfigurationError("shared_blocks must be positive")
        if self.shared_theta <= 0:
            raise ConfigurationError("shared_theta must be positive")


class _ZipfCdf:
    """Shared inverse-CDF table for Zipf stack-distance sampling."""

    _cache = {}

    def __new__(cls, max_distance: int, theta: float):
        key = (max_distance, theta)
        table = cls._cache.get(key)
        if table is None:
            cumulative: List[float] = []
            total = 0.0
            for d in range(1, max_distance + 1):
                total += 1.0 / d**theta
                cumulative.append(total)
            table = [c / total for c in cumulative]
            cls._cache[key] = table
        return table


class ProcessModel:
    """Reference generator for one process (or the OS kernel).

    ``emit(count)`` returns the next ``count`` references as
    ``(code, address)`` pairs. It is one closure, compiled when the
    model is built, that keeps every parameter, table and piece of
    state in locals and inlines ``randrange`` as CPython's
    ``_randbelow_with_getrandbits`` loop on a bound ``getrandbits`` —
    so it makes exactly the draws, in exactly the order, that one
    method call per reference did (``tests/trace/oracle.py`` keeps that
    implementation as the reference it is differential-tested against).
    """

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
        self.emit = _compile(
            pid, random.Random((seed << 20) ^ (pid * 0x9E3779B1)), params
        )

    def next_reference(self) -> Tuple[AccessKind, int]:
        """Produce one ``(kind, address)`` pair."""
        ((code, address),) = self.emit(1)
        return KINDS[code], address


def _skewed_slot(rng: random.Random, slots: int, skew: float) -> int:
    """A slot index in ``[0, slots)`` skewed toward 0 by ``skew``."""
    return min(int(rng.random() ** skew * slots), slots - 1)


def _compile(
    pid: int, rng: random.Random, params: ProcessParameters
) -> Callable[[int], List[Tuple[int, int]]]:
    """Lay out one process's address space and compile its generator.

    The layout (code placement, routine order, first heap arena,
    pointer-chase set) is drawn from ``rng`` first. Returns
    ``emit(count)``, which produces the model's next ``count``
    references from the same ``rng`` as a list of ``(code, address)``
    pairs (codes as in :data:`repro.trace.reference.KINDS`). The mix,
    in draw order:

    - *instruction fetch* (``instruction_fraction``): the program
      counter advances, or branches (``branch_probability``) either
      back within the routine (``loop_branch_fraction``, up to
      ``loop_span`` bytes) or to the start of a Zipf-chosen routine;
    - *shared data* (``shared_fraction``, only when positive): a
      Zipf-chosen granule of the global shared segment;
    - *pointer chase* (``chase_fraction``): a Zipf-chosen granule of
      the scattered chase set;
    - otherwise a *heap* granule: the next of a sequential run, or one
      re-referenced by Zipf LRU-stack distance, or a newly allocated
      one (``new_block_probability``, or a distance past the stack);
      a new run starts with ``sequential_run_probability``.

    Every data reference then picks a word offset in its granule and
    is a store with ``store_fraction`` (``shared_store_fraction`` for
    shared data).
    """
    base = pid << PROCESS_SPACE_BITS
    region = 1 << (PROCESS_SPACE_BITS - 2)  # 16 MB per region
    # The code segment lands at a random 32 KB-aligned spot in the
    # code region, like a randomly relocated executable.
    code_span = params.routines * params.routine_size
    code_slots = max(1, (region - code_span) // 0x8000)
    code_base = base + _CODE_BASE + rng.randrange(code_slots) * 0x8000
    # Each process gets its own hot-routine ordering, so different
    # processes do not share a layout (they cannot share blocks
    # anyway — distinct address spaces).
    routine_order = list(range(params.routines))
    rng.shuffle(routine_order)
    # Heap arenas sit at 64 KB-aligned spots of the data region;
    # the first is placed now, later ones when it fills.
    region_granules = region // params.data_block
    arena_span = 0x10000 // params.data_block
    arenas = max(1, region_granules // arena_span)
    arena_base = (base + _DATA_BASE) // params.data_block
    first_arena = arena_base + (
        _skewed_slot(rng, arenas, params.placement_skew) * arena_span
    )
    # The chase set is scattered through its own 16 MB region
    # (linked structures live wherever the allocator put them), at
    # chase_spacing-granule alignment so distinct entries never
    # share a cache block.
    chase_base = (base + _CHASE_BASE) // params.data_block
    step = params.chase_spacing
    slots = region_granules // step
    positions = set()
    while len(positions) < params.chase_blocks:
        positions.add(_skewed_slot(rng, slots, params.placement_skew) * step)
    chase_set = [chase_base + p for p in sorted(positions)]
    rng.shuffle(chase_set)

    random_ = rng.random
    getrandbits = rng.getrandbits
    bisect_left = bisect.bisect_left
    granule = params.data_block
    words = granule // 4
    words_bits = words.bit_length()
    skip_max = params.allocation_skip_max
    skip_bits = skip_max.bit_length()
    instruction_fraction = params.instruction_fraction
    store_fraction = params.store_fraction
    branch_probability = params.branch_probability
    loop_branch_fraction = params.loop_branch_fraction
    loop_span = params.loop_span
    routine_size = params.routine_size
    code_end = code_base + params.routines * routine_size
    routine_cdf = _ZipfCdf(params.routines, params.routine_theta)
    stack_cdf = _ZipfCdf(params.data_stack, params.data_theta)
    stack_limit = params.data_stack
    new_block_probability = params.new_block_probability
    run_probability = params.sequential_run_probability
    arena_granules = params.arena_granules
    skew = params.placement_skew
    chase_fraction = params.chase_fraction
    chase_cdf = _ZipfCdf(params.chase_blocks, params.chase_theta)
    shared_fraction = params.shared_fraction
    shared_store_fraction = params.shared_store_fraction
    if shared_fraction > 0.0:
        shared_set = shared_block_set(params.shared_blocks, granule=granule)
        shared_cdf = _ZipfCdf(params.shared_blocks, params.shared_theta)
    else:
        shared_set = shared_cdf = None
    # Mutable state: the program counter, the data LRU stack (most
    # recent first), the open heap arena and the sequential run.
    stack: List[int] = []
    pc = code_base
    next_new_block = first_arena
    arena_remaining = arena_granules
    run_block = None
    run_remaining = 0

    def emit(count: int) -> List[Tuple[int, int]]:
        nonlocal pc, next_new_block, arena_remaining, run_block, run_remaining
        out: List[Tuple[int, int]] = []
        append = out.append
        insert = stack.insert
        for _ in range(count):
            if random_() < instruction_fraction:
                address = pc
                if random_() < branch_probability:
                    if random_() < loop_branch_fraction:
                        # Short backward branch: loop within the routine.
                        span = address - code_base
                        if span > loop_span:
                            span = loop_span
                        if span >= 4:
                            n = span // 4
                            k = n.bit_length()
                            r = getrandbits(k)
                            while r >= n:
                                r = getrandbits(k)
                            pc = address - (r + 1) * 4
                        else:
                            pc = address + 4
                    else:
                        # Call into a Zipf-chosen (mostly hot) routine.
                        rank = bisect_left(routine_cdf, random_())
                        pc = code_base + routine_order[rank] * routine_size
                else:
                    pc = address + 4
                    if pc >= code_end:
                        pc = code_base
                append((0, address))
                continue
            if shared_cdf is not None and random_() < shared_fraction:
                block = shared_set[bisect_left(shared_cdf, random_())]
                r = getrandbits(words_bits)
                while r >= words:
                    r = getrandbits(words_bits)
                address = block * granule + r * 4
                append((2 if random_() < shared_store_fraction else 1, address))
                continue
            if chase_fraction and random_() < chase_fraction:
                block = chase_set[bisect_left(chase_cdf, random_())]
            elif run_remaining > 0 and run_block is not None:
                # Continue a sequential run into the adjacent granule.
                run_remaining -= 1
                run_block += 1
                block = run_block
                try:
                    stack.remove(block)
                except ValueError:
                    pass
                insert(0, block)
                if len(stack) > stack_limit:
                    stack.pop()
            else:
                fresh = not stack or random_() < new_block_probability
                if not fresh:
                    distance = bisect_left(stack_cdf, random_()) + 1
                    if distance > len(stack):
                        fresh = True
                if fresh:
                    if arena_remaining <= 0:
                        next_new_block = arena_base + (
                            _skewed_slot(rng, arenas, skew) * arena_span
                        )
                        arena_remaining = arena_granules
                    skip = skip_max
                    if skip > 1:
                        r = getrandbits(skip_bits)
                        while r >= skip:
                            r = getrandbits(skip_bits)
                        skip = r + 1
                    block = next_new_block + skip - 1
                    next_new_block = block + 1
                    arena_remaining -= skip
                else:
                    block = stack.pop(distance - 1)
                insert(0, block)
                if len(stack) > stack_limit:
                    stack.pop()
                if random_() < run_probability:
                    run_block = block
                    # randrange(1, 5): 1 + a draw below 4 (3 bits).
                    r = getrandbits(3)
                    while r >= 4:
                        r = getrandbits(3)
                    run_remaining = r + 1
                else:
                    run_remaining = 0
            r = getrandbits(words_bits)
            while r >= words:
                r = getrandbits(words_bits)
            address = block * granule + r * 4
            append((2 if random_() < store_fraction else 1, address))
        return out

    return emit
