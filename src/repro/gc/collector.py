"""Conservative mark-sweep collector over the simulated memory.

Semantics follow the paper's "Compiler Safety Problem Statement":

* GC-roots are the machine stack, registers, and statically allocated
  memory; the collector preserves every object reachable from a GC-root,
  possibly through heap-resident pointers.
* Any address corresponding to some place *inside* a heap object is
  recognized as a valid pointer (interior pointers), the default
  configuration of [Boehm95].
* The "Extensions" section's alternative mode — interior pointers valid
  only when they originate from the stack or registers — is available
  via ``interior_from_roots_only``.

Under adversarial schedules (a collection at every instruction
boundary) almost every collection finds the heap unchanged, so a
collection first replays the previous one's *witnesses*, the place
whose word marked each object, and scans the roots only when one of
them no longer holds (``_replay``, ``_full_mark``).
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from .heap import Heap, HeapExhausted
from .memory import HEAP_BASE, Memory, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from ..cfront.ctypes import WORD_SIZE
from ..obs import clock as obs_clock
from ..obs import runtime as obs_runtime
from ..obs.metrics import SIZE_BUCKETS

# The clock of an unobserved collection: ``int()`` is 0, so phase times
# cost no host-clock read and come out as 0.
_NULL_CLOCK = int

# A witness is the place whose word marked an object, as the tuple
# ``(kind, place, pos, desc, idx, base)``: ``(_REG, provider index,
# position in its sequence)``, ``(_ROOT, word address in a root range,
# 0)`` or ``(_HEAP, word address inside a parent object, 0)``, then the
# object's page descriptor, slot index and base address.
_REG, _ROOT, _HEAP = 0, 1, 2

_unpack_word = struct.Struct("<I").unpack_from


class _AllMarked(Exception):
    """Every object in use is marked: the full mark can stop."""


class GCCheckError(Exception):
    """A pointer-arithmetic check (GC_same_obj family) failed."""


@dataclass
class GCStats:
    """The collector's simulated counts: pure functions of the program,
    its inputs and the collection schedule, never of the host.  Wall-
    clock pause times live in the ``gc.collect`` span and the metrics
    registry's ``gc.*_ns`` histograms instead."""

    collections: int = 0
    bytes_allocated: int = 0
    objects_allocated: int = 0
    objects_reclaimed: int = 0
    bytes_reclaimed: int = 0
    marked_last_gc: int = 0
    checks_performed: int = 0
    # Live-set snapshot, refreshed after every sweep.
    live_bytes: int = 0
    live_objects: int = 0
    # Per-kind check counters (checks_performed is the sum).
    same_obj_checks: int = 0
    incr_checks: int = 0
    base_checks: int = 0

    def reset(self) -> None:
        """Zero every counter (fresh measurement window)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    # ``reset()`` and the per-kind check counters are process-local —
    # a sharded campaign runs its collectors in worker processes, so
    # aggregate accounting needs an explicit, serializable merge.

    def to_dict(self) -> dict:
        """JSON/pickle-safe snapshot of every counter."""
        return asdict(self)

    def merge(self, other: "GCStats | dict") -> "GCStats":
        """Fold another window's counters into this one (in place), a
        field-wise sum.  The live-set snapshot fields sum too: merging
        windows from distinct collectors yields the total final live set
        across them, and check-count aggregates — the quantity sharded-
        vs-serial equivalence is pinned on — stay exact."""
        d = other.to_dict() if isinstance(other, GCStats) else other
        for name, value in d.items():
            setattr(self, name, getattr(self, name) + value)
        return self


@dataclass
class RootRange:
    """A half-open address range scanned conservatively word by word."""

    start: int
    end: int
    name: str = ""


class Collector:
    """The public collector facade: GC_malloc / GC_collect / GC_base /
    GC_same_obj, root registration, and the allocation-driven trigger."""

    def __init__(self, memory: Memory | None = None,
                 heap_base: int = HEAP_BASE,
                 heap_limit: int = 64 * 1024 * 1024,
                 initial_threshold: int = 64 * 1024,
                 interior_from_roots_only: bool = False,
                 tracer=None):
        self.memory = memory if memory is not None else Memory()
        self.heap = Heap(self.memory, heap_base, heap_limit)
        self.static_roots: list[RootRange] = []
        self.dynamic_root_providers: list[Callable[[], Iterable[int]]] = []
        self.range_providers: list[Callable[[], Iterable[RootRange]]] = []
        self.stats = GCStats()
        self.interior_from_roots_only = interior_from_roots_only
        self._threshold = initial_threshold
        self._allocated_since_gc = 0
        # One witness per object marked by the last collection, in
        # marking order: what the next collection replays (``_replay``).
        self._witnesses: list[tuple] = []
        self.collections_enabled = True
        # Telemetry: defaults to the process-wide tracer at construction
        # time; see ``collect`` for what tracing adds.
        self.tracer = tracer if tracer is not None else obs_runtime.get_tracer()

    # -- roots ----------------------------------------------------------------

    def add_static_root(self, start: int, size: int, name: str = "") -> None:
        self.static_roots.append(RootRange(start, start + size, name))

    def add_root_provider(self, provider: Callable[[], Iterable[int]]) -> None:
        """Register a callback yielding candidate root *values* (e.g. the
        VM's current register contents)."""
        self.dynamic_root_providers.append(provider)

    def add_range_provider(self, provider: Callable[[], Iterable[RootRange]]) -> None:
        """Register a callback yielding address ranges to scan (e.g. the
        live portion of the VM stack)."""
        self.range_providers.append(provider)

    # -- allocation -------------------------------------------------------------

    def malloc(self, size: int) -> int:
        """GC_malloc: allocate zeroed memory, collecting first when the
        allocation budget since the last collection is exhausted.  A
        request the heap cannot hold returns 0 (NULL), as the Boehm
        collector's default out-of-memory handler does."""
        return self._allocate(size, atomic=False)

    def malloc_atomic(self, size: int) -> int:
        """GC_malloc_atomic: allocate pointer-free memory.  The mark
        phase never scans it, so bit patterns inside (string bytes,
        bignum digits) cannot cause false retention."""
        return self._allocate(size, atomic=True)

    def _allocate(self, size: int, atomic: bool) -> int:
        if self.collections_enabled and self._allocated_since_gc >= self._threshold:
            self.collect()
        try:
            addr = self.heap.allocate(size, atomic=atomic)
        except HeapExhausted:
            return 0
        self.stats.bytes_allocated += size
        self.stats.objects_allocated += 1
        self._allocated_since_gc += size
        metrics = obs_runtime.get_metrics()
        if metrics is not None:
            # Request sizes are simulated values: a deterministic series.
            metrics.histogram("gc.alloc_bytes", bounds=SIZE_BUCKETS,
                              det=True).observe(size)
        return addr

    def realloc(self, addr: int, new_size: int) -> int:
        """GC_realloc: grow/shrink by copy; old object is simply dropped
        (the collector reclaims it).  When the new object cannot be
        allocated, returns 0 and copies nothing."""
        if addr == 0:
            return self.malloc(new_size)
        old_base = self.heap.base_of(addr)
        if old_base is None:
            raise GCCheckError(f"realloc of non-heap address 0x{addr:08x}")
        old_size = self.heap.size_of(old_base) or 0
        new_addr = self.malloc(new_size)
        if not new_addr:
            return 0
        data = self.memory.read_bytes(old_base, min(old_size, new_size))
        self.memory.write_bytes(new_addr, data)
        return new_addr

    # -- collection ----------------------------------------------------------------

    def collect(self) -> int:
        """Run a mark-sweep collection; return objects reclaimed.

        The mark replays the last collection's witnesses and runs the
        full mark only when they do not mark every object in use; either
        way the marked set is the full mark's.  The simulated counts
        land in :attr:`stats`.  Wall-clock phase times go to the
        ``gc.collect`` span (with the heap-occupancy counters that draw
        the timeline) and to the metrics registry's ``gc.*_ns``
        histograms; with neither on, the phases are timed by a null
        clock and the host clock is never read.
        """
        stats, heap, tracer = self.stats, self.heap, self.tracer
        metrics = obs_runtime.get_metrics()
        clock = (obs_clock.get_clock()
                 if tracer.enabled or metrics is not None else _NULL_CLOCK)
        alloc_since = self._allocated_since_gc
        stats.collections += 1
        with tracer.span("gc.collect", number=stats.collections) as span:
            # Phases: root-scan is the witness replay, mark the full
            # mark that runs when the replay fails.
            t0 = clock()
            replayed = self._replay()
            t1 = clock()
            if not replayed:
                self._witnesses = self._full_mark()
            stats.marked_last_gc = len(self._witnesses)
            t2 = clock()
            reclaimed = self._sweep()
            t3 = clock()
            live = stats.live_bytes = heap.bytes_in_use
            stats.live_objects = heap.objects_in_use
            self._allocated_since_gc = 0
            self._threshold = max(self._threshold, 2 * live)
            root_scan_ns, mark_ns, sweep_ns = t1 - t0, t2 - t1, t3 - t2
            pause_ns = t3 - t0
            if tracer.enabled:
                page_bytes = sum(d.n_pages for d in heap.all_pages) * PAGE_SIZE
                fragmentation = (round(1.0 - live / page_bytes, 4)
                                 if page_bytes else 0.0)
                span.set(pause_ns=pause_ns, root_scan_ns=root_scan_ns,
                         mark_ns=mark_ns, sweep_ns=sweep_ns,
                         marked=stats.marked_last_gc,
                         reclaimed_objects=reclaimed,
                         alloc_since_gc=alloc_since, live_bytes=live,
                         live_objects=stats.live_objects,
                         page_bytes=page_bytes, fragmentation=fragmentation,
                         threshold=self._threshold)
                tracer.counter("gc.live_bytes", live)
                tracer.counter("gc.live_objects", stats.live_objects)
                tracer.counter("gc.page_bytes", page_bytes)
                tracer.counter("gc.fragmentation", fragmentation)
                tracer.counter("gc.pause_ns", pause_ns)
        if metrics is not None:
            # Deterministic counters (simulated quantities) ...
            metrics.counter("gc.collections").inc()
            metrics.counter("gc.objects_reclaimed").inc(reclaimed)
            # ... and wall-clock phase histograms (det=False).
            metrics.histogram("gc.pause_ns").observe(pause_ns)
            metrics.histogram("gc.root_scan_ns").observe(root_scan_ns)
            metrics.histogram("gc.mark_ns").observe(mark_ns)
            metrics.histogram("gc.sweep_ns").observe(sweep_ns)
            metrics.gauge("gc.live_bytes").set(live)
            metrics.gauge("gc.live_objects").set(stats.live_objects)
        return reclaimed

    def _replay(self) -> bool:
        """Re-mark every object in use from the place that marked it in
        the previous collection, in that collection's marking order.

        Each place must still be a word the full mark reads now: a
        position still present in its provider's sequence, a word inside
        a current root range (a stack slot at or above ``sp``) on a
        mapped page, or a word inside a parent re-marked earlier in the
        replay (the order guarantees it: the replay stops at the first
        place that fails).  Its value must point into the same object,
        and under ``interior_from_roots_only`` a heap word must equal
        that object's base.  So the replay marks only objects the full
        mark marks too.  It succeeds when it has marked ``objects_in_use``
        objects, the whole heap; otherwise its marks are undone (they
        would stop the full mark from tracing those objects) and it
        returns False.
        """
        witnesses = self._witnesses
        if len(witnesses) != self.heap.objects_in_use:
            return False  # an allocation since the last collection
        providers = self.dynamic_root_providers
        mem_pages = self.memory._pages
        roots_only = self.interior_from_roots_only
        sequences: dict[int, list[int]] = {}
        ranges = None
        done = 0
        for kind, place, pos, desc, idx, base in witnesses:
            if kind == _REG:
                seq = sequences.get(place)
                if seq is None:
                    if place >= len(providers):
                        break  # its provider was removed (VM.release())
                    seq = providers[place]()
                    if type(seq) is not list:
                        seq = list(seq)
                    sequences[place] = seq
                if pos >= len(seq):
                    break
                value = seq[pos]
            else:
                if kind == _ROOT:
                    if ranges is None:
                        ranges = [(r.start & ~(WORD_SIZE - 1), r.end)
                                  for r in self._all_root_ranges()]
                    for start, end in ranges:
                        if start <= place and place + WORD_SIZE <= end:
                            break
                    else:
                        break  # in no current root range: fail
                page = mem_pages.get(place >> PAGE_SHIFT)
                if page is None:
                    break
                value = _unpack_word(page, place & PAGE_MASK)[0]
                if roots_only and kind == _HEAP and value != base:
                    break
            # A word inside the object's own bytes resolves to it, as the
            # full mark's page-table lookup would.  It is still allocated:
            # it survived the last sweep, and only a sweep frees objects.
            if not base <= value < base + desc.obj_size:
                break
            desc.mark[idx] = True
            done += 1
        else:
            return True
        for _kind, _place, _pos, desc, idx, _base in witnesses[:done]:
            desc.mark[idx] = False
        return False

    def _full_mark(self) -> list[tuple]:
        """Mark everything reachable from the roots and return the new
        witnesses, one per marked object in marking order.

        Registers are scanned first, then the root ranges, and a newly
        marked object's interior is traced at once, so the marking stops
        as soon as every object in use is marked: no further word can
        change the marked set.
        """
        # The mark phase is the collector's hot loop: every word of every
        # root range and every reachable object flows through here.  The
        # two-level page-table lookup is inlined (one bounds-free double
        # indexation per candidate) and ranges are read as bulk
        # little-endian word vectors straight off the page buffers
        # instead of one load_word call per word.  Like the Boehm
        # collector's plausible-heap-bounds test, one range compare
        # drops every word outside the heap's allocated span before the
        # lookup: no page outside it is in the table, so the marked set
        # is unchanged, and most candidate words are not heap addresses.
        witnesses: list[tuple] = []
        record = witnesses.append
        goal = self.heap.objects_in_use
        worklist: list[tuple[int, int]] = []  # (object base, object size)
        lo, hi = self.heap.base, self.heap._cursor
        top = self.heap.table._top
        mem_pages = self.memory._pages
        roots_only = self.interior_from_roots_only

        def consider(value: int, kind: int, place: int, pos: int) -> None:
            bottom = top[value >> 22]
            if bottom is None:
                return
            desc = bottom[(value >> 12) & 1023]
            if desc is None:
                return
            # Resolve the containing object: base address + slot index.
            if desc.large:
                if not desc.alloc[0] or value >= desc.start + desc.obj_size:
                    return
                idx, base = 0, desc.start
            else:
                offset = value - desc.start
                if offset < 0:
                    return
                idx = offset // desc.obj_size
                if idx >= desc.n_objects or not desc.alloc[idx]:
                    return
                base = desc.start + idx * desc.obj_size
            if roots_only and kind == _HEAP and value != base:
                # Extensions mode: heap-resident pointers must point at
                # the base of an object to be recognized.
                return
            if not desc.mark[idx]:
                desc.mark[idx] = True
                record((kind, place, pos, desc, idx, base))
                if len(witnesses) == goal:
                    raise _AllMarked
                if not desc.atomic:  # pointer-free: nothing inside to trace
                    worklist.append((base, desc.obj_size))

        def scan_words(start: int, end: int, kind: int) -> None:
            """Conservatively consider every aligned word in [start, end),
            page by page; unmapped pages are skipped wholesale.  A word
            of a root range that marks an object has it traced at once."""
            addr = start & ~(WORD_SIZE - 1)
            while addr + WORD_SIZE <= end:
                page = mem_pages.get(addr >> PAGE_SHIFT)
                page_end = (addr & ~PAGE_MASK) + PAGE_SIZE
                chunk_end = min(end, page_end)
                if page is None:
                    addr = page_end
                    continue
                count = (chunk_end - addr) // WORD_SIZE
                if count:
                    off = addr & PAGE_MASK
                    words = struct.unpack_from(f"<{count}I", page, off)
                    i = 0
                    for value in words:
                        if lo <= value < hi:
                            # Few words are candidates: find this one's
                            # position (for its witness) only now.  No
                            # earlier candidate lies between i and it.
                            i = words.index(value, i)
                            consider(value, kind, addr + i * WORD_SIZE, 0)
                            i += 1
                            if worklist and kind == _ROOT:
                                trace()
                addr += count * WORD_SIZE
                if addr + WORD_SIZE > chunk_end:
                    addr = page_end

        def trace() -> None:
            while worklist:
                base, size = worklist.pop()
                scan_words(base, base + size, _HEAP)

        try:
            for i, provider in enumerate(self.dynamic_root_providers):
                for pos, value in enumerate(provider()):
                    if lo <= value < hi:
                        consider(value, _REG, i, pos)
                        if worklist:
                            trace()
            for root in self._all_root_ranges():
                scan_words(root.start, root.end, _ROOT)
        except _AllMarked:
            pass
        return witnesses

    def _all_root_ranges(self) -> Iterable[RootRange]:
        yield from self.static_roots
        for provider in self.range_providers:
            yield from provider()

    def _sweep(self) -> int:
        if self.stats.marked_last_gc == self.heap.objects_in_use:
            # Every live object is marked: nothing to reclaim, so only
            # the marks need clearing, and each mark has a witness.
            for _kind, _place, _pos, desc, idx, _base in self._witnesses:
                desc.mark[idx] = False
            return 0
        reclaimed = 0
        free_object = self.heap.free_object
        for desc in self.heap.all_pages:
            alloc, mark = desc.alloc, desc.mark
            for idx in range(desc.n_objects):
                if alloc[idx] and not mark[idx]:
                    self.stats.bytes_reclaimed += desc.obj_size
                    free_object(desc, idx)
                    reclaimed += 1
                mark[idx] = False
        self.stats.objects_reclaimed += reclaimed
        return reclaimed

    # -- the checking primitives (paper, "Debugging Applications") --------------

    def base(self, addr: int) -> int | None:
        """GC_base: start of the live heap object containing ``addr``."""
        return self.heap.base_of(addr)

    def same_obj(self, p: int, q: int) -> int:
        """GC_same_obj(p, q): check that ``p`` points to the same heap
        object as ``q``; return ``p``.

        Like the paper we do not check references to statically
        allocated or stack memory: when ``q`` is not a heap pointer,
        ``p`` passes unchecked.  One-past-the-end pointers pass because
        every object carries an extra byte (see ``round_size``).
        """
        stats = self.stats
        stats.checks_performed += 1
        stats.same_obj_checks += 1
        base_of = self.heap.base_of
        q_base = base_of(q)
        if q_base is not None and base_of(p) != q_base:
            raise self._escape(p, q, q_base)
        return p

    def _escape(self, p: int, q: int, q_base: int) -> GCCheckError:
        """The error of a failed same-object check: ``p``, derived from
        ``q`` in the object at ``q_base``, is not in that object."""
        p_base = self.heap.base_of(p)
        if p_base is None:
            return GCCheckError(
                f"pointer arithmetic moved 0x{q:08x} outside its object "
                f"(result 0x{p:08x} is not inside any live heap object)")
        return GCCheckError(
            f"pointer arithmetic crossed objects: 0x{p:08x} is in the "
            f"object at 0x{p_base:08x}, but its base 0x{q:08x} is in "
            f"the object at 0x{q_base:08x}")

    def check_base(self, p: int) -> int:
        """GC_check_base(p): verify that a pointer about to be stored in
        the heap or in a static variable points to the *base* of its
        object — the dynamic check of the paper's Extensions section
        ("It would again be possible to insert dynamic checks to verify
        this").  Null and non-heap pointers pass."""
        self.stats.checks_performed += 1
        self.stats.base_checks += 1
        if p == 0:
            return p
        base = self.heap.base_of(p)
        if base is not None and base != p:
            raise GCCheckError(
                f"interior pointer 0x{p:08x} (object base 0x{base:08x}) "
                f"stored where only base pointers are allowed")
        return p

    def pre_incr(self, p_slot: int, delta: int) -> int:
        """GC_pre_incr(&p, n): p += n with a same-object check; returns
        the new value of p."""
        return self._incr(p_slot, delta)[1]

    def post_incr(self, p_slot: int, delta: int) -> int:
        """GC_post_incr(&p, n): p += n with a check; returns the old p."""
        return self._incr(p_slot, delta)[0]

    def _incr(self, p_slot: int, delta: int) -> tuple[int, int]:
        """p += n for the pointer p at ``p_slot``, checked as
        ``same_obj(new, old)`` but counted as an incr check; returns
        (old, new)."""
        stats = self.stats
        stats.checks_performed += 1
        stats.incr_checks += 1
        old = self.memory.load_word(p_slot)
        new = (old + delta) & 0xFFFFFFFF
        base_of = self.heap.base_of
        old_base = base_of(old)
        if old_base is not None and base_of(new) != old_base:
            raise self._escape(new, old, old_base)
        self.memory.store_word(p_slot, new)
        return old, new
