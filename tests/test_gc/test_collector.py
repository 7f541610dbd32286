"""Conservative collector tests: reachability, sweeping, checking
primitives, and the Extensions-mode variant."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfront.ctypes import WORD_SIZE
from repro.gc import Collector, GCCheckError, PAGE_SIZE, round_size


def collector_with_roots():
    gc = Collector()
    roots: list[int] = []
    gc.add_root_provider(lambda: roots)
    return gc, roots


def make_chain(gc, length, link_offset=4):
    head = gc.malloc(8)
    node = head
    for _ in range(length - 1):
        nxt = gc.malloc(8)
        gc.memory.store_word(node + link_offset, nxt)
        node = nxt
    return head


class TestReachability:
    def test_rooted_chain_survives(self):
        gc, roots = collector_with_roots()
        roots.append(make_chain(gc, 20))
        gc.collect()
        assert gc.heap.objects_in_use == 20

    def test_unrooted_chain_collected(self):
        gc, roots = collector_with_roots()
        make_chain(gc, 20)
        assert gc.collect() == 20
        assert gc.heap.objects_in_use == 0

    def test_partial_chain_survives_from_middle(self):
        gc, roots = collector_with_roots()
        head = make_chain(gc, 10)
        # Walk to the 5th node and root it; the first 4 must die.
        node = head
        for _ in range(4):
            node = gc.memory.load_word(node + 4)
        roots.append(node)
        reclaimed = gc.collect()
        assert reclaimed == 4
        assert gc.heap.objects_in_use == 6

    def test_cycle_is_collected_when_unrooted(self):
        gc, roots = collector_with_roots()
        a = gc.malloc(8)
        b = gc.malloc(8)
        gc.memory.store_word(a + 4, b)
        gc.memory.store_word(b + 4, a)
        roots.append(a)
        gc.collect()
        assert gc.heap.objects_in_use == 2
        roots.clear()
        assert gc.collect() == 2

    def test_interior_pointer_roots_object(self):
        gc, roots = collector_with_roots()
        obj = gc.malloc(200)
        roots.append(obj + 117)
        gc.collect()
        assert gc.heap.objects_in_use == 1

    def test_heap_resident_interior_pointer_traced(self):
        gc, roots = collector_with_roots()
        box = gc.malloc(8)
        target = gc.malloc(64)
        gc.memory.store_word(box, target + 32)  # interior, via the heap
        roots.append(box)
        gc.collect()
        assert gc.heap.objects_in_use == 2

    def test_static_range_roots(self):
        gc = Collector()
        obj = gc.malloc(16)
        static_addr = 0x2_0000
        gc.memory.map_range(static_addr, 64)
        gc.memory.store_word(static_addr + 8, obj)
        gc.add_static_root(static_addr, 64, "globals")
        gc.collect()
        assert gc.heap.objects_in_use == 1

    def test_integer_that_looks_like_pointer_retains(self):
        # Conservatism: any bit pattern that might be an address pins
        # the object ("this may result in some extra memory retention").
        gc, roots = collector_with_roots()
        obj = gc.malloc(16)
        roots.append(obj)  # an int equal to the address
        gc.collect()
        assert gc.heap.objects_in_use == 1

    def test_misaligned_stack_scan_finds_aligned_words_only(self):
        gc = Collector()
        obj = gc.malloc(16)
        base = 0x3_0000
        gc.memory.map_range(base, 64)
        gc.memory.store_word(base + 12, obj)
        gc.add_static_root(base + 1, 63, "odd")  # unaligned range start
        gc.collect()
        assert gc.heap.objects_in_use == 1


class TestAllocationTrigger:
    def test_collection_triggered_by_allocation_pressure(self):
        gc, roots = collector_with_roots()
        for _ in range(5000):
            gc.malloc(64)  # all garbage
        assert gc.stats.collections >= 1
        assert gc.heap.objects_in_use < 5000

    def test_disabled_collections_never_fire(self):
        gc, _ = collector_with_roots()
        gc.collections_enabled = False
        for _ in range(3000):
            gc.malloc(64)
        assert gc.stats.collections == 0

    def test_reclaimed_large_objects_pages_are_reused(self):
        # One 8000-byte object is dropped per iteration: its two pages
        # come back after a collection, so the loop never runs out of
        # heap and the heap stays a few dozen pages.
        gc, _ = collector_with_roots()
        for i in range(10_000):
            assert gc.malloc(8000) != 0, f"NULL at iteration {i}"
        assert gc.stats.collections >= 1000
        assert gc.heap._cursor - gc.heap.base <= 64 * PAGE_SIZE


class TestRealloc:
    def test_grow_preserves_contents(self):
        gc, roots = collector_with_roots()
        a = gc.malloc(16)
        gc.memory.write_bytes(a, b"0123456789abcdef")
        b = gc.realloc(a, 64)
        assert gc.memory.read_bytes(b, 16) == b"0123456789abcdef"

    def test_shrink_truncates(self):
        gc, _ = collector_with_roots()
        a = gc.malloc(64)
        gc.memory.write_bytes(a, b"x" * 32)
        b = gc.realloc(a, 8)
        assert gc.memory.read_bytes(b, 8) == b"x" * 8

    def test_realloc_null_allocates(self):
        gc, _ = collector_with_roots()
        assert gc.base(gc.realloc(0, 24)) is not None

    def test_realloc_non_heap_raises(self):
        gc, _ = collector_with_roots()
        with pytest.raises(GCCheckError):
            gc.realloc(0x99, 8)


class TestCheckingPrimitives:
    def test_same_obj_within(self):
        gc, _ = collector_with_roots()
        p = gc.malloc(32)
        assert gc.same_obj(p + 16, p) == p + 16

    def test_same_obj_one_past_end(self):
        gc, _ = collector_with_roots()
        p = gc.malloc(32)
        assert gc.same_obj(p + 32, p) == p + 32

    def test_same_obj_before_beginning_raises(self):
        gc, _ = collector_with_roots()
        gc.malloc(32)  # neighbor occupying the previous slot
        p = gc.malloc(32)
        with pytest.raises(GCCheckError):
            gc.same_obj(p - 1, p)

    def test_same_obj_across_objects_raises(self):
        gc, _ = collector_with_roots()
        p = gc.malloc(32)
        q = gc.malloc(32)
        with pytest.raises(GCCheckError):
            gc.same_obj(q, p)

    def test_same_obj_skips_non_heap_base(self):
        # "we do not check references to statically allocated and stack
        # memory"
        gc, _ = collector_with_roots()
        assert gc.same_obj(0x123, 0x77) == 0x123

    def test_pre_incr_moves_and_checks(self):
        gc, _ = collector_with_roots()
        slot = 0x2_0000
        gc.memory.map_range(slot, 8)
        p = gc.malloc(32)
        gc.memory.store_word(slot, p)
        assert gc.pre_incr(slot, 4) == p + 4
        assert gc.memory.load_word(slot) == p + 4

    def test_post_incr_returns_old(self):
        gc, _ = collector_with_roots()
        slot = 0x2_0000
        gc.memory.map_range(slot, 8)
        p = gc.malloc(32)
        gc.memory.store_word(slot, p)
        assert gc.post_incr(slot, 8) == p
        assert gc.memory.load_word(slot) == p + 8

    def test_incr_out_of_object_raises(self):
        gc, _ = collector_with_roots()
        slot = 0x2_0000
        gc.memory.map_range(slot, 8)
        p = gc.malloc(16)
        gc.memory.store_word(slot, p)
        with pytest.raises(GCCheckError):
            gc.pre_incr(slot, 4096)

    def test_checks_counted(self):
        gc, _ = collector_with_roots()
        p = gc.malloc(16)
        gc.same_obj(p + 1, p)
        gc.same_obj(p + 2, p)
        assert gc.stats.checks_performed == 2


class TestExtensionsMode:
    """Paper's Extensions section: interior pointers valid only when
    they originate from the stack or registers."""

    def test_heap_resident_interior_pointer_ignored(self):
        gc = Collector(interior_from_roots_only=True)
        roots: list[int] = []
        gc.add_root_provider(lambda: roots)
        box = gc.malloc(8)
        target = gc.malloc(64)
        gc.memory.store_word(box, target + 32)  # interior AND heap-resident
        roots.append(box)
        gc.collect()
        assert gc.base(target) is None  # target was collected

    def test_heap_resident_base_pointer_still_traced(self):
        gc = Collector(interior_from_roots_only=True)
        roots: list[int] = []
        gc.add_root_provider(lambda: roots)
        box = gc.malloc(8)
        target = gc.malloc(64)
        gc.memory.store_word(box, target)  # base pointer in the heap
        roots.append(box)
        gc.collect()
        assert gc.base(target) == target

    def test_root_interior_pointer_still_honored(self):
        gc = Collector(interior_from_roots_only=True)
        roots: list[int] = []
        gc.add_root_provider(lambda: roots)
        target = gc.malloc(64)
        roots.append(target + 48)
        gc.collect()
        assert gc.base(target) == target


class TestGCProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 200), st.booleans()),
                    min_size=1, max_size=40))
    def test_rooted_never_collected_unrooted_always(self, plan):
        """For any interleaving of allocations (rooted or not),
        collection reclaims exactly the unrooted ones."""
        gc, roots = collector_with_roots()
        gc.collections_enabled = False
        rooted = []
        for size, keep in plan:
            addr = gc.malloc(size)
            if keep:
                roots.append(addr)
                rooted.append(addr)
        gc.collect()
        for addr in rooted:
            assert gc.base(addr) == addr
        assert gc.heap.objects_in_use == len(rooted)
