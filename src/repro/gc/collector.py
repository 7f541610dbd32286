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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .heap import Heap, PageDescriptor
from .memory import HEAP_BASE, Memory, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from ..cfront.ctypes import WORD_SIZE
from ..obs import clock as obs_clock
from ..obs import runtime as obs_runtime


class GCCheckError(Exception):
    """A pointer-arithmetic check (GC_same_obj family) failed."""


@dataclass
class GCStats:
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
    # Wall-clock pause accounting (observational — never feeds back
    # into simulated cycles).  Every collection fills ``gc_pause_ns``
    # and ``max_pause_ns``; the phase split (``root_scan_ns``,
    # ``mark_ns``, ``sweep_ns``) needs the phase clock and is filled
    # only on the instrumented path (tracing or a metrics registry).
    gc_pause_ns: int = 0
    root_scan_ns: int = 0
    mark_ns: int = 0
    sweep_ns: int = 0
    max_pause_ns: int = 0
    # Allocation-size histogram, bucketed by ``size.bit_length()``
    # (bucket b holds requests of 2**(b-1) .. 2**b - 1 bytes); populated
    # only while tracing is enabled.
    alloc_histogram: dict[int, int] = field(default_factory=dict)
    # Pause-duration histograms, bucketed by ``pause_ns.bit_length()``
    # (same power-of-two scheme).  ``pause_histogram`` is maintained on
    # both collect paths — it is pure integer bookkeeping, one
    # bit_length per collection; ``sweep_histogram`` needs the phase
    # clock and is populated only on the instrumented path.
    pause_histogram: dict[int, int] = field(default_factory=dict)
    sweep_histogram: dict[int, int] = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter (fresh measurement window)."""
        fresh = GCStats()
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(fresh, name))

    # ``reset()`` and the per-kind check counters are process-local —
    # a sharded campaign runs its collectors in worker processes, so
    # aggregate accounting needs an explicit, serializable merge.

    # Dict-valued fields that merge keywise instead of additively.
    _HISTOGRAM_FIELDS = ("alloc_histogram", "pause_histogram",
                         "sweep_histogram")

    def to_dict(self) -> dict:
        """JSON/pickle-safe snapshot of every counter.  Empty histograms
        are elided so an untouched window serializes identically whether
        or not its fields were ever registered."""
        d = {name: getattr(self, name)
             for name in self.__dataclass_fields__
             if name not in self._HISTOGRAM_FIELDS}
        for name in self._HISTOGRAM_FIELDS:
            hist = getattr(self, name)
            if hist:
                d[name] = dict(hist)
        return d

    @staticmethod
    def from_dict(d: dict) -> "GCStats":
        stats = GCStats()
        stats.merge(d)
        return stats

    def merge(self, other: "GCStats | dict") -> "GCStats":
        """Fold another window's counters into this one (in place).

        Every counter is additive except ``max_pause_ns`` (maximum).
        The live-set snapshot fields sum too: merging windows from
        distinct collectors yields the total final live set across
        them, and check-count aggregates — the quantity sharded-vs-
        serial equivalence is pinned on — stay exact.
        """
        d = other.to_dict() if isinstance(other, GCStats) else other
        for name, value in d.items():
            if name in self._HISTOGRAM_FIELDS:
                hist = getattr(self, name)
                for bucket, count in value.items():
                    bucket = int(bucket)
                    hist[bucket] = hist.get(bucket, 0) + count
            elif name == "max_pause_ns":
                self.max_pause_ns = max(self.max_pause_ns, value)
            else:
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
        self.collections_enabled = True
        # Telemetry: defaults to the process-wide tracer at construction
        # time.  All emission sites guard on ``tracer.enabled`` so the
        # untraced paths stay byte-for-byte the original ones.
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
        allocation budget since the last collection is exhausted."""
        if self.collections_enabled and self._allocated_since_gc >= self._threshold:
            self.collect()
        addr = self.heap.allocate(size)
        self.stats.bytes_allocated += size
        self.stats.objects_allocated += 1
        self._allocated_since_gc += size
        if self.tracer.enabled:
            bucket = max(size, 1).bit_length()
            hist = self.stats.alloc_histogram
            hist[bucket] = hist.get(bucket, 0) + 1
        return addr

    def malloc_atomic(self, size: int) -> int:
        """GC_malloc_atomic: allocate pointer-free memory.  The mark
        phase never scans it, so bit patterns inside (string bytes,
        bignum digits) cannot cause false retention."""
        if self.collections_enabled and self._allocated_since_gc >= self._threshold:
            self.collect()
        addr = self.heap.allocate(size, atomic=True)
        self.stats.bytes_allocated += size
        self.stats.objects_allocated += 1
        self._allocated_since_gc += size
        if self.tracer.enabled:
            bucket = max(size, 1).bit_length()
            hist = self.stats.alloc_histogram
            hist[bucket] = hist.get(bucket, 0) + 1
        return addr

    def realloc(self, addr: int, new_size: int) -> int:
        """GC_realloc: grow/shrink by copy; old object is simply dropped
        (the collector reclaims it)."""
        if addr == 0:
            return self.malloc(new_size)
        old_base = self.heap.base_of(addr)
        if old_base is None:
            raise GCCheckError(f"realloc of non-heap address 0x{addr:08x}")
        old_size = self.heap.size_of(old_base) or 0
        new_addr = self.malloc(new_size)
        data = self.memory.read_bytes(old_base, min(old_size, new_size))
        self.memory.write_bytes(new_addr, data)
        return new_addr

    # -- collection ----------------------------------------------------------------

    def collect(self) -> int:
        """Run a full mark-sweep collection; return objects reclaimed."""
        stats = self.stats
        metrics = obs_runtime.get_metrics()
        if not self.tracer.enabled and metrics is None:
            stats.collections += 1
            clock = obs_clock.get_clock()
            t0 = clock()
            self._mark()
            reclaimed = self._sweep()
            pause_ns = clock() - t0
            stats.gc_pause_ns += pause_ns
            stats.max_pause_ns = max(stats.max_pause_ns, pause_ns)
            bucket = max(pause_ns, 1).bit_length()
            hist = stats.pause_histogram
            hist[bucket] = hist.get(bucket, 0) + 1
            stats.live_bytes = self.heap.bytes_in_use
            stats.live_objects = self.heap.objects_in_use
            self._allocated_since_gc = 0
            self._threshold = max(self._threshold, 2 * self.heap.bytes_in_use)
            return reclaimed
        # Metrics-only runs route through the instrumented path too: a
        # disabled tracer's spans are NULL_SPAN no-ops, so only the
        # phase-clock reads and metric observations are added.
        return self._collect_traced(metrics)

    def _collect_traced(self, metrics=None) -> int:
        """Traced variant of :meth:`collect`: identical collection
        semantics, plus a ``gc.collect`` span with the pause broken down
        into root-scan / mark / sweep, heap-timeline counters, and —
        when a metrics registry is active — pause/phase histograms."""
        stats = self.stats
        tracer = self.tracer
        alloc_since = self._allocated_since_gc
        stats.collections += 1
        with tracer.span("gc.collect", number=stats.collections) as sp:
            clock = obs_clock.get_clock()
            phases: dict[str, int] = {}
            t0 = clock()
            self._mark(phases)
            t1 = clock()
            reclaimed = self._sweep()
            t2 = clock()
            stats.live_bytes = self.heap.bytes_in_use
            stats.live_objects = self.heap.objects_in_use
            self._allocated_since_gc = 0
            self._threshold = max(self._threshold, 2 * self.heap.bytes_in_use)

            pause_ns = t2 - t0
            sweep_ns = t2 - t1
            root_scan_ns = phases.get("root_scan_ns", 0)
            mark_ns = (t1 - t0) - root_scan_ns
            stats.gc_pause_ns += pause_ns
            stats.root_scan_ns += root_scan_ns
            stats.mark_ns += mark_ns
            stats.sweep_ns += sweep_ns
            stats.max_pause_ns = max(stats.max_pause_ns, pause_ns)
            for hist, value in ((stats.pause_histogram, pause_ns),
                                (stats.sweep_histogram, sweep_ns)):
                bucket = max(value, 1).bit_length()
                hist[bucket] = hist.get(bucket, 0) + 1

            page_bytes = sum(d.n_pages for d in self.heap.all_pages) * PAGE_SIZE
            live = self.heap.bytes_in_use
            fragmentation = 1.0 - live / page_bytes if page_bytes else 0.0
            sp.set(pause_ns=pause_ns, root_scan_ns=root_scan_ns,
                   mark_ns=mark_ns, sweep_ns=sweep_ns,
                   marked=stats.marked_last_gc, reclaimed_objects=reclaimed,
                   alloc_since_gc=alloc_since, live_bytes=live,
                   live_objects=self.heap.objects_in_use,
                   page_bytes=page_bytes,
                   fragmentation=round(fragmentation, 4),
                   threshold=self._threshold)
        tracer.counter("gc.live_bytes", live)
        tracer.counter("gc.live_objects", self.heap.objects_in_use)
        tracer.counter("gc.page_bytes", page_bytes)
        tracer.counter("gc.fragmentation", round(fragmentation, 4))
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
            metrics.gauge("gc.live_objects").set(self.heap.objects_in_use)
        return reclaimed

    def _mark(self, phases: dict[str, int] | None = None) -> None:
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
        worklist: list[tuple[int, int]] = []  # (object base, object size)
        marked = 0
        lo, hi = self.heap.base, self.heap._cursor
        top = self.heap.table._top
        mem_pages = self.memory._pages
        roots_only = self.interior_from_roots_only

        def consider(value: int, from_roots: bool) -> None:
            nonlocal marked
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
            if roots_only and not from_roots and value != base:
                # Extensions mode: heap-resident pointers must point at
                # the base of an object to be recognized.
                return
            if not desc.mark[idx]:
                desc.mark[idx] = True
                marked += 1
                if not desc.atomic:  # pointer-free: nothing inside to trace
                    worklist.append((base, desc.obj_size))

        def scan_words(start: int, end: int, from_roots: bool) -> None:
            """Conservatively consider every aligned word in [start, end),
            page by page; unmapped pages are skipped wholesale."""
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
                    for value in struct.unpack_from(f"<{count}I", page, off):
                        if lo <= value < hi:
                            consider(value, from_roots)
                addr += count * WORD_SIZE
                if addr + WORD_SIZE > chunk_end:
                    addr = page_end

        clock = obs_clock.get_clock() if phases is not None else None
        t0 = clock() if clock is not None else 0
        for root in self._all_root_ranges():
            scan_words(root.start, root.end, True)
        for provider in self.dynamic_root_providers:
            for value in provider():
                if lo <= value < hi:
                    consider(value, True)
        if clock is not None:
            phases["root_scan_ns"] = clock() - t0

        while worklist:
            base, size = worklist.pop()
            scan_words(base, base + size, False)
        self.stats.marked_last_gc = marked

    def _all_root_ranges(self) -> Iterable[RootRange]:
        yield from self.static_roots
        for provider in self.range_providers:
            yield from provider()

    def _sweep(self) -> int:
        if self.stats.marked_last_gc == self.heap.objects_in_use:
            # Every live object is marked: nothing to reclaim, so only
            # the marks need clearing, not a walk over every slot.
            for desc in self.heap.all_pages:
                desc.mark = [False] * desc.n_objects
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

    def is_heap_pointer(self, addr: int) -> bool:
        return self.heap.base_of(addr) is not None

    def same_obj(self, p: int, q: int) -> int:
        """GC_same_obj(p, q): check that ``p`` points to the same heap
        object as ``q``; return ``p``.

        Like the paper we do not check references to statically
        allocated or stack memory: when ``q`` is not a heap pointer,
        ``p`` passes unchecked.  One-past-the-end pointers pass because
        every object carries an extra byte (see ``round_size``).
        """
        self.stats.checks_performed += 1
        self.stats.same_obj_checks += 1
        return self._same_obj(p, q)

    def _same_obj(self, p: int, q: int) -> int:
        """The check itself, with no stats accounting (``pre_incr`` /
        ``post_incr`` delegate here and attribute to ``incr_checks``)."""
        q_base = self.heap.base_of(q)
        if q_base is None:
            return p
        p_base = self.heap.base_of(p)
        if p_base is None:
            raise GCCheckError(
                f"pointer arithmetic moved 0x{q:08x} outside its object "
                f"(result 0x{p:08x} is not inside any live heap object)")
        if p_base != q_base:
            raise GCCheckError(
                f"pointer arithmetic crossed objects: 0x{p:08x} is in the "
                f"object at 0x{p_base:08x}, but its base 0x{q:08x} is in "
                f"the object at 0x{q_base:08x}")
        return p

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
        self.stats.checks_performed += 1
        self.stats.incr_checks += 1
        old = self.memory.load_word(p_slot)
        new = (old + delta) % (1 << 32)
        self._same_obj(new, old)
        self.memory.store_word(p_slot, new)
        return new

    def post_incr(self, p_slot: int, delta: int) -> int:
        """GC_post_incr(&p, n): p += n with a check; returns the old p."""
        self.stats.checks_performed += 1
        self.stats.incr_checks += 1
        old = self.memory.load_word(p_slot)
        new = (old + delta) % (1 << 32)
        self._same_obj(new, old)
        self.memory.store_word(p_slot, new)
        return old
