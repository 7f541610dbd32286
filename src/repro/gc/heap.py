"""Page-based heap allocator in the style of the Boehm collector.

Pages hold uniformly sized objects (one size class per page); large
objects get their own run of pages.  Every allocation request is padded
by one byte before rounding — the paper: "Either may also point one past
the end of the object, which we handle by allocating all heap objects
with at least one extra byte at the end."  Because sizes round up to a
granule, the checker "is not completely accurate ... at most unused
memory can be accidentally referenced", faithfully reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .memory import HEAP_BASE, Memory, PAGE_SIZE
from .pagetable import PageTable

GRANULE = 8
MAX_SMALL = PAGE_SIZE // 8  # objects above this get dedicated pages


class HeapExhausted(MemoryError):
    """The simulated heap cannot hold the request."""


@dataclass
class PageDescriptor:
    """Descriptor for one heap page (or the head of a large-object run)."""

    start: int
    obj_size: int  # rounded size in bytes
    n_objects: int
    large: bool = False
    n_pages: int = 1
    atomic: bool = False  # pointer-free objects: the mark phase skips them
    alloc: list[bool] = field(default_factory=list)
    mark: list[bool] = field(default_factory=list)
    free_slots: list[int] = field(default_factory=list)
    in_partial: bool = False  # tracked on the allocator's partial-page list

    def __post_init__(self):
        if not self.alloc:
            self.alloc = [False] * self.n_objects
            self.mark = [False] * self.n_objects
            self.free_slots = list(range(self.n_objects - 1, -1, -1))

    def object_index(self, addr: int) -> int | None:
        """Index of the object containing ``addr``, or None."""
        offset = addr - self.start
        if offset < 0:
            return None
        idx = offset // self.obj_size
        if idx >= self.n_objects:
            return None
        return idx

    def object_base(self, idx: int) -> int:
        return self.start + idx * self.obj_size


def round_size(request: int) -> int:
    """Request -> stored size: +1 byte (one-past-the-end rule), rounded
    up to the granule."""
    padded = max(request, 1) + 1
    return (padded + GRANULE - 1) // GRANULE * GRANULE


class Heap:
    """Size-class allocator over simulated memory."""

    def __init__(self, memory: Memory, base: int = HEAP_BASE,
                 limit_bytes: int = 64 * 1024 * 1024):
        self.memory = memory
        self.base = base
        self.limit = base + limit_bytes
        self._cursor = base
        self.table = PageTable()
        # (size class, atomic?) -> pages with free slots
        self._partial: dict[tuple[int, bool], list[PageDescriptor]] = {}
        # page count -> reclaimed large objects' page runs, reused before
        # the heap grows
        self._free_large: dict[int, list[PageDescriptor]] = {}
        self.all_pages: list[PageDescriptor] = []
        self.bytes_in_use = 0
        self.objects_in_use = 0
        # When set, reclaimed objects are overwritten with this byte so
        # that use-after-collection reads become observable (the
        # GC-safety failure demos depend on it).
        self.poison_byte: int | None = None

    # -- page management -----------------------------------------------------

    def _new_page_run(self, n_pages: int) -> int:
        addr = self._cursor
        if addr + n_pages * PAGE_SIZE > self.limit:
            raise HeapExhausted("simulated heap exhausted")
        self._cursor += n_pages * PAGE_SIZE
        self.memory.map_range(addr, n_pages * PAGE_SIZE)
        return addr

    def _make_small_page(self, obj_size: int, atomic: bool) -> PageDescriptor:
        start = self._new_page_run(1)
        desc = PageDescriptor(start=start, obj_size=obj_size,
                              n_objects=PAGE_SIZE // obj_size, atomic=atomic)
        self.table.register(start, desc)
        self.all_pages.append(desc)
        self._partial.setdefault((obj_size, atomic), []).append(desc)
        desc.in_partial = True
        return desc

    def _make_large_object(self, size: int, atomic: bool) -> PageDescriptor:
        n_pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        free = self._free_large.get(n_pages)
        if free:  # an exact fit: its pages stay mapped and registered
            desc = free.pop()
            desc.atomic = atomic
            return desc
        start = self._new_page_run(n_pages)
        desc = PageDescriptor(start=start, obj_size=n_pages * PAGE_SIZE,
                              n_objects=1, large=True, n_pages=n_pages,
                              atomic=atomic)
        for i in range(n_pages):
            self.table.register(start + i * PAGE_SIZE, desc)
        self.all_pages.append(desc)
        return desc

    # -- allocation -------------------------------------------------------------

    def allocate(self, request: int, zero: bool = True,
                 atomic: bool = False) -> int:
        """Allocate ``request`` usable bytes; return the object address.
        ``atomic`` objects are guaranteed pointer-free (GC_malloc_atomic):
        the collector never scans their contents."""
        size = round_size(request)
        if size > MAX_SMALL:
            desc = self._make_large_object(size, atomic)
            desc.alloc[0] = True
            desc.free_slots.clear()
            addr = desc.start
        else:
            pages = self._partial.setdefault((size, atomic), [])
            while pages and not pages[-1].free_slots:
                pages.pop().in_partial = False
            desc = pages[-1] if pages else self._make_small_page(size, atomic)
            idx = desc.free_slots.pop()
            desc.alloc[idx] = True
            addr = desc.object_base(idx)
        if zero:
            self.memory.fill(addr, desc.obj_size if desc.large else size)
        self.bytes_in_use += desc.obj_size
        self.objects_in_use += 1
        return addr

    def free_object(self, desc: PageDescriptor, idx: int) -> None:
        """Return one object to its page's free list (sweep helper)."""
        assert desc.alloc[idx]
        desc.alloc[idx] = False
        desc.mark[idx] = False
        desc.free_slots.append(idx)
        if self.poison_byte is not None:
            self.memory.fill(desc.object_base(idx), desc.obj_size, self.poison_byte)
        self.bytes_in_use -= desc.obj_size
        self.objects_in_use -= 1
        if desc.large:
            self._free_large.setdefault(desc.n_pages, []).append(desc)
        elif not desc.in_partial:
            # O(1) membership flag (a `desc in list` scan here is
            # quadratic across a sweep that frees many objects).
            self._partial.setdefault((desc.obj_size, desc.atomic), []).append(desc)
            desc.in_partial = True

    # -- queries ------------------------------------------------------------------

    def descriptor_for(self, addr: int) -> PageDescriptor | None:
        desc = self.table.lookup(addr)
        return desc  # type: ignore[return-value]

    def base_of(self, addr: int) -> int | None:
        """GC_base: map any interior address to the start of its live
        object, or None when ``addr`` is not inside a live heap object.

        Every pointer check resolves its operands here, so the two-level
        page-table lookup and the slot arithmetic are inlined, as in the
        collector's mark phase.  A page maps only to the descriptor of
        its own run, so ``addr`` is never below ``desc.start``."""
        if addr < 0 or addr > 0xFFFFFFFF:
            return None
        bottom = self.table._top[addr >> 22]
        if bottom is None:
            return None
        desc = bottom[(addr >> 12) & 1023]
        if desc is None:
            return None
        start = desc.start
        if desc.large:
            return (start if desc.alloc[0] and addr < start + desc.obj_size
                    else None)
        idx = (addr - start) // desc.obj_size
        if idx >= desc.n_objects or not desc.alloc[idx]:
            return None
        return start + idx * desc.obj_size

    def size_of(self, base_addr: int) -> int | None:
        """Rounded size of the live object starting at ``base_addr``."""
        desc = self.descriptor_for(base_addr)
        if desc is None:
            return None
        idx = desc.object_index(base_addr)
        if idx is None or desc.object_base(idx) != base_addr or not desc.alloc[idx]:
            return None
        return desc.obj_size

    def live_objects(self):
        """Yield (descriptor, index, base address) for every live object."""
        for desc in self.all_pages:
            for idx in range(desc.n_objects):
                if desc.alloc[idx]:
                    yield desc, idx, desc.object_base(idx)
