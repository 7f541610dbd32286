"""Flat byte-addressed simulated memory.

Addresses are plain Python ints in a 32-bit space, matching the paper's
ILP32 machines.  Storage is sparse (per-page bytearrays) so the address
layout can mirror a real process: statics low, heap in the middle, the
stack growing down from high addresses.

Both the VM (registers, stack, globals) and the collector (heap pages,
conservative scanning) operate on one :class:`Memory` instance — this is
what makes "any bit pattern that might represent the address of a heap
object" scannable, the defining property of a conservative collector.

All bulk helpers (``write_bytes``/``read_bytes``/``fill``/
``read_cstring``) work a page slice at a time rather than a byte at a
time: allocation zeroing, string builtins, and conservative root scans
all sit on these paths.
"""

from __future__ import annotations

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KiB, as in the Boehm collector
PAGE_MASK = PAGE_SIZE - 1

ADDRESS_BITS = 32
ADDRESS_LIMIT = 1 << ADDRESS_BITS

# Default process layout.
STATIC_BASE = 0x0001_0000
HEAP_BASE = 0x0010_0000
STACK_TOP = 0x0800_0000


class MemoryFault(Exception):
    """Access to an unmapped address or out-of-range width."""

    def __init__(self, addr: int, why: str = "unmapped address"):
        self.addr = addr
        super().__init__(f"{why}: 0x{addr:08x}")


class Memory:
    """Sparse paged memory with little-endian typed accessors."""

    def __init__(self):
        self._pages: dict[int, bytearray] = {}
        # Reserved page-index spans [lo, hi): see reserve().
        self._reserved: list[tuple[int, int]] = []

    # -- mapping ----------------------------------------------------------

    def map_range(self, start: int, size: int) -> None:
        for idx in range(start >> PAGE_SHIFT, (start + size - 1 >> PAGE_SHIFT) + 1):
            if idx not in self._pages:
                self._pages[idx] = bytearray(PAGE_SIZE)

    def reserve(self, start: int, size: int) -> None:
        """Make [start, start + size) accessible without mapping it: a
        page is created, zeroed, on its first load or store.  Pages not
        yet touched stay unmapped, and conservative scans skip them,
        which is sound because they hold only zeros."""
        self._reserved.append((start >> PAGE_SHIFT,
                               (start + size - 1 >> PAGE_SHIFT) + 1))

    def _touch(self, idx: int) -> bytearray | None:
        """The page at index ``idx``, created if it is reserved; None
        when it is neither mapped nor reserved."""
        page = self._pages.get(idx)
        if page is None:
            for lo, hi in self._reserved:
                if lo <= idx < hi:
                    page = self._pages[idx] = bytearray(PAGE_SIZE)
                    break
        return page

    def unmap_page(self, addr: int) -> None:
        self._pages.pop(addr >> PAGE_SHIFT, None)

    def is_mapped(self, addr: int) -> bool:
        return (addr >> PAGE_SHIFT) in self._pages

    @property
    def mapped_pages(self) -> int:
        return len(self._pages)

    # -- typed access -----------------------------------------------------

    def load(self, addr: int, width: int = 4, signed: bool = False) -> int:
        """Load ``width`` bytes little-endian.  Crossing a page boundary
        is supported (needed for conservative scans of unaligned data)."""
        off = addr & PAGE_MASK
        if off + width <= PAGE_SIZE:
            if addr < 0 or addr + width > ADDRESS_LIMIT:
                raise MemoryFault(addr, "address out of range")
            page = self._touch(addr >> PAGE_SHIFT)
            if page is None:
                raise MemoryFault(addr)
            raw = page[off : off + width]
        else:
            raw = bytes(self.load(addr + i, 1) for i in range(width))
        return int.from_bytes(raw, "little", signed=signed)

    def store(self, addr: int, value: int, width: int = 4) -> None:
        off = addr & PAGE_MASK
        if off + width > PAGE_SIZE:
            data = (value % (1 << (8 * width))).to_bytes(width, "little")
            for i, b in enumerate(data):
                self.store(addr + i, b, 1)
            return
        if addr < 0 or addr + width > ADDRESS_LIMIT:
            raise MemoryFault(addr, "address out of range")
        page = self._touch(addr >> PAGE_SHIFT)
        if page is None:
            raise MemoryFault(addr)
        page[off : off + width] = (value % (1 << (8 * width))).to_bytes(width, "little")

    def load_word(self, addr: int) -> int:
        return self.load(addr, 4)

    def store_word(self, addr: int, value: int) -> None:
        self.store(addr, value, 4)

    # -- bulk helpers -------------------------------------------------------

    def _page_at(self, addr: int) -> bytearray:
        if addr < 0 or addr >= ADDRESS_LIMIT:
            raise MemoryFault(addr, "address out of range")
        page = self._touch(addr >> PAGE_SHIFT)
        if page is None:
            raise MemoryFault(addr)
        return page

    def write_bytes(self, addr: int, data: bytes) -> None:
        n = len(data)
        i = 0
        while i < n:
            a = addr + i
            page = self._page_at(a)
            off = a & PAGE_MASK
            take = min(PAGE_SIZE - off, n - i)
            page[off : off + take] = data[i : i + take]
            i += take

    def read_bytes(self, addr: int, size: int) -> bytes:
        chunks: list[bytes] = []
        i = 0
        while i < size:
            a = addr + i
            page = self._page_at(a)
            off = a & PAGE_MASK
            take = min(PAGE_SIZE - off, size - i)
            chunks.append(bytes(page[off : off + take]))
            i += take
        return b"".join(chunks)

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        chunks: list[bytearray] = []
        a = addr
        remaining = limit
        while remaining > 0:
            page = self._page_at(a)
            off = a & PAGE_MASK
            take = min(PAGE_SIZE - off, remaining)
            # Scan the page in place and copy only the string.
            z = page.find(0, off, off + take)
            if z >= 0:
                chunks.append(page[off:z])
                break
            chunks.append(page[off : off + take])
            a += take
            remaining -= take
        return b"".join(chunks).decode("latin-1")

    def fill(self, addr: int, size: int, byte: int = 0) -> None:
        i = 0
        while i < size:
            a = addr + i
            page = self._page_at(a)
            off = a & PAGE_MASK
            take = min(PAGE_SIZE - off, size - i)
            page[off : off + take] = bytes([byte]) * take
            i += take
