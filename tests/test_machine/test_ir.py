"""IR data structure tests."""

import pytest

from repro.machine.cfg import basic_blocks
from repro.machine.ir import FrameSlot, GlobalVar, Inst, IRFunc, IRProgram, Vreg


class TestIRFunc:
    def test_vregs_are_unique(self):
        fn = IRFunc("f")
        regs = [fn.new_vreg() for _ in range(100)]
        assert len({r.id for r in regs}) == 100

    def test_labels_are_unique_and_namespaced(self):
        fn = IRFunc("myfunc")
        labels = [fn.new_label() for _ in range(10)]
        assert len(set(labels)) == 10
        assert all("myfunc" in l for l in labels)

    def test_frame_layout_no_overlap(self):
        fn = IRFunc("f")
        fn.add_slot("a", 4)
        fn.add_slot("b", 10, align=1)
        fn.add_slot("c", 4)
        size = fn.layout_frame()
        slots = sorted(fn.slots.values(), key=lambda s: s.offset)
        for lo, hi in zip(slots, slots[1:]):
            assert lo.offset + lo.size <= hi.offset
        assert size % 8 == 0
        assert size >= 18

    def test_frame_respects_alignment(self):
        fn = IRFunc("f")
        fn.add_slot("c", 1, align=1)
        fn.add_slot("w", 4, align=4)
        fn.layout_frame()
        assert fn.slots["w"].offset % 4 == 0


class TestInst:
    def test_uses_and_replace(self):
        a, b, c = Vreg(0), Vreg(1), Vreg(2)
        inst = Inst("bin", dst=c, subop="add", args=(a, b))
        assert inst.uses() == (a, b)
        inst.replace_args({a: c})
        assert inst.args == (c, b)

    def test_repr_is_readable(self):
        inst = Inst("bin", dst=Vreg(3), subop="add", args=(Vreg(1), Vreg(2)))
        text = repr(inst)
        assert "add" in text and "%3" in text


class TestBasicBlocks:
    def _fn(self, ops):
        fn = IRFunc("f")
        for op, sym in ops:
            v = fn.new_vreg() if op == "const" else None
            fn.emit(Inst(op, dst=v, imm=0 if op == "const" else None,
                         symbol=sym, args=(Vreg(99),) if op in ("bz", "bnz") else ()))
        return fn

    def test_straight_line(self):
        fn = self._fn([("const", ""), ("const", ""), ("ret", "")])
        assert len(basic_blocks(fn.insts)) == 1

    def test_branch_creates_blocks(self):
        fn = self._fn([
            ("const", ""),
            ("bz", "L"),
            ("const", ""),
            ("label", "L"),
            ("ret", ""),
        ])
        blocks = basic_blocks(fn.insts)
        assert [b[0] for b in blocks] == [0, 2, 3]

    def test_back_edge(self):
        fn = self._fn([
            ("label", "top"),
            ("const", ""),
            ("bnz", "top"),
            ("ret", ""),
        ])
        blocks = basic_blocks(fn.insts)
        assert len(blocks) == 2

    def test_every_instruction_in_exactly_one_block(self):
        fn = self._fn([
            ("const", ""), ("bz", "A"), ("const", ""), ("jmp", "B"),
            ("label", "A"), ("const", ""), ("label", "B"), ("ret", ""),
        ])
        blocks = basic_blocks(fn.insts)
        flat = [i for b in blocks for i in b]
        assert sorted(flat) == list(range(len(fn.insts)))
        assert len(set(flat)) == len(flat)


class TestIRProgram:
    def test_string_interning_deduplicates(self):
        prog = IRProgram()
        s1 = prog.intern_string("hello")
        s2 = prog.intern_string("hello")
        s3 = prog.intern_string("world")
        assert s1 == s2 != s3
        assert prog.globals[s1].init_bytes == b"hello\0"

    def test_interned_strings_nul_terminated(self):
        prog = IRProgram()
        sym = prog.intern_string("")
        assert prog.globals[sym].init_bytes == b"\0"
