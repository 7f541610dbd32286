"""Witness replay: a collection first re-marks every object from the
place that marked it in the previous collection, and falls back to the
full mark when any place no longer holds.  One case per way a witness
goes stale, then a seeded differential test against a reachability
computation written here, collection by collection."""

import bisect
import random
import struct

import pytest

from repro.gc import Collector, RootRange
from repro.machine.driver import CompileConfig, compile_source
from repro.machine.models import SPARC_10
from repro.machine.vm import VM

STACK_LO, STACK_HI = 0x0700_0000, 0x0700_1000
STATIC, STATIC_SIZE = 0x0002_0000, 64


class World:
    """A collector with one register provider, a stack range that ends
    at a movable ``sp``, and a static range."""

    def __init__(self, roots_only=False):
        self.gc = Collector(interior_from_roots_only=roots_only)
        self.gc.heap.poison_byte = 0xDD
        self.regs = [0] * 6
        self.sp = STACK_HI - 256
        self.gc.add_root_provider(lambda: self.regs)
        self.gc.memory.map_range(STACK_LO, STACK_HI - STACK_LO)
        self.gc.add_range_provider(
            lambda: [RootRange(self.sp, STACK_HI, "stack")])
        self.gc.memory.map_range(STATIC, STATIC_SIZE)
        self.gc.add_static_root(STATIC, STATIC_SIZE, "static")

    def store(self, addr, value):
        self.gc.memory.store_word(addr, value)

    def live(self, addr):
        return self.gc.heap.base_of(addr) == addr


@pytest.fixture
def full_marks(monkeypatch):
    """How many collections ran the full mark (the replay failed)."""
    count = [0]
    original = Collector._full_mark

    def counting(self):
        count[0] += 1
        return original(self)

    monkeypatch.setattr(Collector, "_full_mark", counting)
    return count


class TestReplay:
    def test_unchanged_roots_replay(self, full_marks):
        w = World()
        a, b = w.gc.malloc(16), w.gc.malloc(16)
        w.regs[0] = a
        w.store(STACK_HI - 8, b)
        w.gc.collect()
        assert full_marks[0] == 1
        for _ in range(3):
            assert w.gc.collect() == 0
        assert full_marks[0] == 1
        assert w.gc.stats.marked_last_gc == 2

    def test_register_now_points_at_another_object(self, full_marks):
        w = World()
        a, b = w.gc.malloc(16), w.gc.malloc(16)
        w.regs[0], w.regs[1] = a, b
        w.gc.collect()
        w.regs[0] = b
        assert w.gc.collect() == 1
        assert not w.live(a) and w.live(b)
        assert full_marks[0] == 2

    def test_register_now_holds_a_non_heap_value(self, full_marks):
        w = World()
        a = w.gc.malloc(16)
        w.regs[3] = a
        w.gc.collect()
        w.regs[3] = 12345
        assert w.gc.collect() == 1
        assert w.gc.stats.marked_last_gc == 0
        assert full_marks[0] == 2

    def test_register_moved_inside_its_object_still_replays(self, full_marks):
        w = World()
        a = w.gc.malloc(64)
        w.regs[0] = a
        w.gc.collect()
        w.regs[0] = a + 40  # an interior root still marks it
        assert w.gc.collect() == 0
        assert full_marks[0] == 1

    def test_position_past_the_end_of_the_sequence(self, full_marks):
        w = World()
        a = w.gc.malloc(16)
        w.regs[5] = a
        w.gc.collect()
        del w.regs[5]
        assert w.gc.collect() == 1
        assert full_marks[0] == 2

    def test_stack_witness_below_a_new_sp(self, full_marks):
        w = World()
        a = w.gc.malloc(16)
        w.sp = STACK_HI - 64
        w.store(STACK_HI - 64, a)
        w.gc.collect()
        w.sp += 4  # the word is still in memory, but popped
        assert w.gc.collect() == 1
        assert full_marks[0] == 2

    def test_static_witness(self, full_marks):
        w = World()
        a = w.gc.malloc(16)
        w.store(STATIC + 8, a)
        w.gc.collect()
        assert w.gc.collect() == 0
        w.store(STATIC + 8, 0)
        assert w.gc.collect() == 1
        assert full_marks[0] == 2

    def test_root_word_on_an_unmapped_page(self, full_marks):
        w = World()
        a = w.gc.malloc(16)
        w.store(STATIC + 8, a)
        w.gc.collect()
        w.gc.memory.unmap_page(STATIC)  # the full mark skips it
        assert w.gc.collect() == 1
        assert full_marks[0] == 2

    def test_parent_word_overwritten(self, full_marks):
        w = World()
        parent, child = w.gc.malloc(16), w.gc.malloc(16)
        w.regs[0] = parent
        w.store(parent + 4, child)
        w.gc.collect()
        assert w.gc.collect() == 0
        w.store(parent + 4, 0)
        assert w.gc.collect() == 1
        assert not w.live(child) and w.live(parent)
        assert full_marks[0] == 2

    def test_witness_in_a_reclaimed_parent(self, full_marks):
        w = World()
        parent, child = w.gc.malloc(16), w.gc.malloc(16)
        w.regs[0] = parent
        w.store(parent + 4, child)
        w.gc.collect()
        w.regs[0] = 0  # parent and child both die
        assert w.gc.collect() == 2
        assert w.gc.heap.objects_in_use == 0

    @pytest.mark.parametrize("roots_only", [False, True])
    def test_interior_heap_word(self, roots_only, full_marks):
        w = World(roots_only)
        parent, child = w.gc.malloc(16), w.gc.malloc(32)
        w.regs[0] = parent
        w.store(parent + 8, child)
        w.gc.collect()
        w.store(parent + 8, child + 16)
        # Extensions mode: a heap-resident interior pointer does not
        # retain its object, so the replay must not accept it either.
        assert w.gc.collect() == int(roots_only)
        assert w.live(child) is not roots_only
        assert full_marks[0] == 1 + roots_only

    def test_interior_root_word_in_roots_only_mode(self, full_marks):
        w = World(roots_only=True)
        a = w.gc.malloc(32)
        w.store(STACK_HI - 4, a + 12)
        w.gc.collect()
        assert w.gc.collect() == 0
        assert full_marks[0] == 1

    def test_allocation_since_the_last_collection(self, full_marks):
        w = World()
        a = w.gc.malloc(16)
        w.regs[0] = a
        w.gc.collect()
        w.gc.malloc(16)  # garbage: the replay would miss it
        assert w.gc.collect() == 1
        b = w.gc.malloc(16)
        w.regs[1] = b
        assert w.gc.collect() == 0
        assert w.live(a) and w.live(b)
        assert full_marks[0] == 3

    def test_replay_right_after_a_reclaiming_collection(self, full_marks):
        w = World()
        keep = w.gc.malloc(16)
        w.regs[0] = keep
        for _ in range(5):
            w.gc.malloc(24)
        assert w.gc.collect() == 5
        assert w.gc.collect() == 0
        assert w.gc.stats.marked_last_gc == 1
        assert full_marks[0] == 1
        assert w.gc.stats.objects_reclaimed == 5

    def test_failed_replay_is_undone(self, full_marks):
        w = World()
        parent = w.gc.malloc(16)
        left, right = w.gc.malloc(16), w.gc.malloc(16)
        w.regs[0] = parent
        w.store(parent + 4, left)
        w.store(parent + 8, right)
        w.gc.collect()
        # Swapped children: the replay marks the parent, then fails.
        # Its mark must not stop the full mark from tracing the parent.
        w.store(parent + 4, right)
        w.store(parent + 8, left)
        assert w.gc.collect() == 0
        assert w.gc.stats.marked_last_gc == 3
        assert full_marks[0] == 2
        assert not any(any(d.mark) for d in w.gc.heap.all_pages)

    def test_empty_heap(self, full_marks):
        w = World()
        assert w.gc.collect() == 0
        assert w.gc.collect() == 0
        assert full_marks[0] == 0


def test_collection_after_vm_release(full_marks):
    source = """
    char *g;
    int main(void) {
        char *p = GC_malloc(16);
        g = GC_malloc(8);
        return (int) p;
    }
    """
    compiled = compile_source(source, CompileConfig.named("O0", SPARC_10))
    gc = Collector()
    vm = VM(compiled.asm, SPARC_10, collector=gc)
    p = vm.run().exit_code
    assert gc.collect() == 0  # p in the return register, g in a static
    assert gc.collect() == 0
    assert gc.base(p) == p and full_marks[0] == 1
    vm.release()  # its register, stack and static roots are gone
    assert gc.collect() == 2
    assert full_marks[0] == 2


# -- seeded differential test ------------------------------------------------

SIZES = (4, 8, 12, 24, 40, 100, 600, 5000)


def owner(bases, sizes, value):
    """The live object (in the test's own table) ``value`` points into."""
    i = bisect.bisect_right(bases, value) - 1
    if i >= 0 and value < bases[i] + sizes[bases[i]]:
        return bases[i]
    return None


def reference_reachable(w, sizes, atomic):
    """The bases a full conservative mark must retain, computed from
    the test's own object table."""
    bases = sorted(sizes)

    def read_words(start, end):
        data = w.gc.memory.read_bytes(start, end - start)
        return struct.unpack(f"<{len(data) // 4}I", data)

    words = [v for p in w.gc.dynamic_root_providers for v in p()]
    words += read_words(w.sp, STACK_HI) + read_words(STATIC,
                                                     STATIC + STATIC_SIZE)
    found = {owner(bases, sizes, v) for v in words} - {None}
    todo = list(found)
    while todo:
        base = todo.pop()
        if atomic[base]:
            continue
        for value in read_words(base, base + sizes[base]):
            target = owner(bases, sizes, value)
            if target is None or target in found:
                continue
            if w.gc.interior_from_roots_only and value != target:
                continue
            found.add(target)
            todo.append(target)
    return found


@pytest.mark.parametrize("roots_only", [False, True],
                         ids=["interior-anywhere", "interior-from-roots"])
@pytest.mark.parametrize("seed", range(16))
def test_replay_matches_reference_reachability(seed, roots_only, full_marks):
    rng = random.Random(seed)
    w = World(roots_only)
    extra: list[int] = []
    sizes: dict[int, int] = {}  # live base -> extent the mark scans
    atomic: dict[int, bool] = {}

    def pointer():
        pick = rng.random()
        if not sizes or pick < 0.15:
            return rng.choice((0, 7, STACK_HI - 4, rng.getrandbits(32)))
        base = rng.choice(sorted(sizes))
        if pick < 0.7:
            return base
        if pick < 0.9:
            return base + rng.randrange(sizes[base])
        return base + sizes[base]  # one past: the next slot, if any

    def slot():
        pick = rng.random()
        if pick < 0.35 and sizes:
            base = rng.choice(sorted(sizes))
            return base + 4 * rng.randrange(sizes[base] // 4)
        if pick < 0.65:
            return rng.randrange(STACK_LO, STACK_HI, 4)
        if pick < 0.75:
            return rng.randrange(STATIC, STATIC + STATIC_SIZE, 4)
        return None  # a register

    def write(value, addr=None):
        if addr is None:
            regs = extra if extra and rng.random() < 0.3 else w.regs
            regs[rng.randrange(len(regs))] = value
        else:
            w.store(addr, value)

    def nudge():
        """Move a pointer to another place inside the same object."""
        addr = slot()
        if addr is None:
            i = rng.randrange(len(w.regs))
            value = w.regs[i]
        else:
            value = w.gc.memory.load_word(addr)
        base = owner(sorted(sizes), sizes, value)
        if base is not None:
            moved = base + rng.randrange(sizes[base])
            if addr is None:
                w.regs[i] = moved
            else:
                w.store(addr, moved)

    collections = 0
    for _step in range(300):
        op = rng.random()
        if op < 0.12:
            size = rng.choice(SIZES)
            is_atomic = rng.random() < 0.2
            alloc = w.gc.malloc_atomic if is_atomic else w.gc.malloc
            base = alloc(size)
            sizes[base] = w.gc.heap.size_of(base)
            atomic[base] = is_atomic
            if rng.random() < 0.8:
                write(base, slot())
        elif op < 0.55:
            write(pointer(), slot())
        elif op < 0.63:
            w.sp = rng.randrange(STACK_LO, STACK_HI + 1, 4)
        elif op < 0.68:
            if len(w.regs) > 2 and rng.random() < 0.5:
                w.regs.pop()
            else:
                w.regs.append(pointer())
        elif op < 0.72:
            # A second provider comes and goes, like a released VM's.
            if len(w.gc.dynamic_root_providers) == 2:
                w.gc.dynamic_root_providers.pop()
            else:
                extra[:] = [pointer() for _ in range(3)]
                w.gc.add_root_provider(lambda: extra)
        elif op < 0.8:
            nudge()
        else:
            expected = reference_reachable(w, sizes, atomic)
            before = set(sizes)
            reclaimed = w.gc.collect()
            collections += 1
            gone = {b for b in before if w.gc.heap.base_of(b) != b}
            assert w.gc.stats.marked_last_gc == len(expected)
            assert gone == before - expected
            assert reclaimed == len(gone)
            assert w.gc.heap.objects_in_use == len(expected)
            for base in gone:
                del sizes[base], atomic[base]
    # The replay, not only the full mark, was exercised.
    assert collections - full_marks[0] >= collections // 4
