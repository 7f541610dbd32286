"""Machine-level liveness analysis tests."""

import pytest

from repro.machine.asm import MFunc, MInst
from repro.machine.cfg import basic_blocks
from repro.postproc.liveness import Liveness


def mk(insts):
    return MFunc("t", list(insts))


class TestBasicBlocks:
    def test_straight_line_is_one_block(self):
        fn = mk([MInst("li", rd="t0", imm=1), MInst("mov", rd="t1", rs1="t0"),
                 MInst("ret")])
        assert len(basic_blocks(fn.insts)) == 1

    def test_branch_splits(self):
        fn = mk([
            MInst("bz", rs1="t0", symbol="L"),
            MInst("li", rd="t1", imm=1),
            MInst("label", symbol="L"),
            MInst("ret"),
        ])
        assert len(basic_blocks(fn.insts)) == 3


class TestLiveness:
    def test_dead_after_last_use(self):
        fn = mk([
            MInst("li", rd="t0", imm=1),          # 0
            MInst("add", rd="t1", rs1="t0", rs2="t0"),  # 1: last use of t0
            MInst("mov", rd="rv", rs1="t1"),      # 2
            MInst("ret"),                          # 3
        ])
        live = Liveness(fn)
        assert live.dead_after(1, "t0")
        assert not live.dead_after(0, "t0")
        assert not live.dead_after(1, "t1")
        assert live.dead_after(2, "t1")

    def test_liveness_across_branch(self):
        fn = mk([
            MInst("li", rd="t0", imm=1),           # 0
            MInst("bz", rs1="t1", symbol="L"),     # 1
            MInst("mov", rd="rv", rs1="t0"),       # 2: uses t0
            MInst("label", symbol="L"),            # 3
            MInst("mov", rd="rv", rs1="t0"),       # 4: uses t0 too
            MInst("ret"),                          # 5
        ])
        live = Liveness(fn)
        assert not live.dead_after(1, "t0")  # live into both successors
        assert live.dead_after(4, "t0")

    def test_loop_keeps_value_live(self):
        fn = mk([
            MInst("li", rd="t0", imm=10),          # 0
            MInst("label", symbol="top"),          # 1
            MInst("sub", rd="t0", rs1="t0", imm=1),  # 2
            MInst("bnz", rs1="t0", symbol="top"),  # 3
            MInst("ret"),                          # 4
        ])
        live = Liveness(fn)
        assert not live.dead_after(2, "t0")  # read by bnz and next iteration

    def test_call_clobbers_caller_saved(self):
        fn = mk([
            MInst("li", rd="t0", imm=1),          # 0
            MInst("call", symbol="g", nargs=0),    # 1: t0 clobbered
            MInst("mov", rd="rv", rs1="s0"),       # 2
            MInst("ret"),                          # 3
        ])
        live = Liveness(fn)
        assert live.dead_after(0, "t0")  # dead: the call kills it

    def test_call_arguments_are_read(self):
        fn = mk([
            MInst("mov", rd="a0", rs1="s0"),       # 0
            MInst("call", symbol="g", nargs=1),    # 1 reads a0
            MInst("ret"),
        ])
        live = Liveness(fn)
        assert not live.dead_after(0, "a0")

    def test_store_reads_value_register(self):
        fn = mk([
            MInst("li", rd="t0", imm=7),           # 0
            MInst("st", rd="t0", rs1="fp", imm=-4),  # 1: reads t0
            MInst("ret"),
        ])
        live = Liveness(fn)
        assert not live.dead_after(0, "t0")
        assert live.dead_after(1, "t0")

    def test_keepsafe_reads_both_operands(self):
        fn = mk([
            MInst("li", rd="t0", imm=1),
            MInst("li", rd="t1", imm=2),
            MInst("keepsafe", rs1="t0", rs2="t1"),
            MInst("ret"),
        ])
        live = Liveness(fn)
        assert not live.dead_after(1, "t0")
        assert not live.dead_after(1, "t1")
