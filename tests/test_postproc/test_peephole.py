"""Peephole postprocessor tests: the three paper patterns and their
safety constraints."""

import pytest

from repro.machine import CompileConfig, VM, compile_source
from repro.machine.driver import CONFIGS
from repro.machine.asm import MFunc, MInst
from repro.postproc import PeepholeStats, postprocess, postprocess_function


def mk(insts):
    return MFunc("t", list(insts))


def ops(fn):
    return [i.op for i in fn.insts]


class TestPattern1FoldLoad:
    def test_add_load_fuses(self):
        fn = mk([
            MInst("add", rd="t2", rs1="t0", rs2="t1"),
            MInst("ld", rd="rv", rs1="t2", imm=0),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.loads_folded == 1
        load = next(i for i in fn.insts if i.op == "ld")
        assert load.rs1 == "t0" and load.rs2 == "t1"
        assert "add" not in ops(fn)

    def test_li_add_load_fuses_to_immediate(self):
        fn = mk([
            MInst("add", rd="t2", rs1="t0", imm=8),
            MInst("ld", rd="rv", rs1="t2", imm=0),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.loads_folded == 1
        load = next(i for i in fn.insts if i.op == "ld")
        assert load.rs1 == "t0" and load.imm == 8

    def test_store_fuses_too(self):
        fn = mk([
            MInst("add", rd="t2", rs1="t0", rs2="t1"),
            MInst("st", rd="t3", rs1="t2", imm=0),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.loads_folded == 1

    def test_rejected_when_z_still_live(self):
        fn = mk([
            MInst("add", rd="t2", rs1="t0", rs2="t1"),
            MInst("ld", rd="t3", rs1="t2", imm=0),
            MInst("mov", rd="rv", rs1="t2"),  # t2 used again
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.loads_folded == 0

    def test_rejected_when_input_redefined_between(self):
        fn = mk([
            MInst("add", rd="t2", rs1="t0", rs2="t1"),
            MInst("li", rd="t0", imm=0),       # clobbers x
            MInst("ld", rd="rv", rs1="t2", imm=0),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.loads_folded == 0

    def test_rejected_when_z_is_keep_live_base(self):
        # "The transformation could not apply if z were originally
        # mentioned as the second argument of a KEEP_LIVE."
        fn = mk([
            MInst("add", rd="t2", rs1="t0", rs2="t1"),
            MInst("keepsafe", rs1="t3", rs2="t2"),
            MInst("ld", rd="rv", rs1="t2", imm=0),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.loads_folded == 0

    def test_store_of_the_address_itself_is_kept(self):
        # Folding would store the old z, not the sum, and delete the add.
        fn = mk([
            MInst("add", rd="t0", rs1="a0", rs2="a1"),
            MInst("st", rd="t0", rs1="t0", imm=0),
            MInst("ret"),
        ])
        before = [i.render() for i in fn.insts]
        stats = postprocess_function(fn)
        assert stats.loads_folded == 0
        assert [i.render() for i in fn.insts] == before

    def test_fold_through_keepsafe_marker(self):
        # z is a KEEP_LIVE *result* (rs1): folding is allowed.
        fn = mk([
            MInst("add", rd="t2", rs1="t0", rs2="t1"),
            MInst("keepsafe", rs1="t2", rs2="t0"),
            MInst("ld", rd="rv", rs1="t2", imm=0),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.loads_folded == 1


class TestPattern2MoveElimination:
    def test_simple_copy_eliminated(self):
        fn = mk([
            MInst("li", rd="t0", imm=5),
            MInst("mov", rd="t1", rs1="t0"),
            MInst("add", rd="rv", rs1="t1", rs2="t1"),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.moves_eliminated == 1
        add = next(i for i in fn.insts if i.op == "add")
        assert add.rs1 == add.rs2 == "t0"

    def test_rejected_when_source_redefined_while_copy_live(self):
        fn = mk([
            MInst("li", rd="t0", imm=5),
            MInst("mov", rd="t1", rs1="t0"),
            MInst("li", rd="t0", imm=9),      # x changes
            MInst("add", rd="rv", rs1="t1", rs2="t1"),  # t1 still needed
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.moves_eliminated == 0

    def test_self_move_dropped(self):
        fn = mk([
            MInst("mov", rd="t0", rs1="t0"),
            MInst("ret"),
        ])
        postprocess_function(fn)
        assert "mov" not in ops(fn)

    def test_copy_into_special_register_kept(self):
        fn = mk([
            MInst("li", rd="t0", imm=1),
            MInst("mov", rd="a0", rs1="t0"),
            MInst("call", symbol="g", nargs=1),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.moves_eliminated == 0

    def test_keep_live_base_copy_kept(self):
        fn = mk([
            MInst("li", rd="t0", imm=1),
            MInst("mov", rd="t1", rs1="t0"),
            MInst("keepsafe", rs1="t2", rs2="t1"),
            MInst("ld", rd="rv", rs1="t1", imm=0),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.moves_eliminated == 0


class TestPattern3RetargetAdd:
    def test_add_then_move_combines(self):
        fn = mk([
            MInst("add", rd="t2", rs1="t0", rs2="t1"),
            MInst("mov", rd="s0", rs1="t2"),
            MInst("st", rd="s0", rs1="fp", imm=-8),
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.adds_retargeted + stats.moves_eliminated >= 1
        assert sum(1 for i in fn.insts if i.op == "mov") == 0

    def test_rejected_when_w_used_in_between(self):
        fn = mk([
            MInst("add", rd="t2", rs1="t0", rs2="t1"),
            MInst("st", rd="s0", rs1="fp", imm=-4),  # reads w
            MInst("mov", rd="s0", rs1="t2"),
            MInst("st", rd="s0", rs1="fp", imm=-8),
            MInst("st", rd="t2", rs1="fp", imm=-12),  # t2 live after mov
            MInst("ret"),
        ])
        stats = postprocess_function(fn)
        assert stats.adds_retargeted == 0


class TestEndToEnd:
    WORKLOAD = """
    int sum(int *a, int n) {
        int i, t = 0;
        for (i = 0; i < n; i++) t += a[i];
        return t;
    }
    int main(void) {
        int a[32]; int i;
        for (i = 0; i < 32; i++) a[i] = i;
        return sum(a, 32) & 0xFF;
    }
    """

    @pytest.mark.parametrize("config_name", ("O", "O_safe", "g", "g_checked"))
    def test_postprocessing_preserves_semantics(self, config_name):
        config = CompileConfig.named(config_name)
        baseline = compile_source(self.WORKLOAD, config)
        expected = VM(baseline.asm, config.model).run().exit_code

        processed = compile_source(self.WORKLOAD, config)
        postprocess(processed.asm)
        assert VM(processed.asm, config.model).run().exit_code == expected

    def test_recovers_safe_mode_overhead(self):
        config_o = CompileConfig.named("O")
        config_s = CompileConfig.named("O_safe")
        base = compile_source(self.WORKLOAD, config_o)
        safe = compile_source(self.WORKLOAD, config_s)
        safe_pp = compile_source(self.WORKLOAD, config_s)
        stats = postprocess(safe_pp.asm)
        r_base = VM(base.asm).run()
        r_safe = VM(safe.asm).run()
        r_pp = VM(safe_pp.asm).run()
        assert r_base.exit_code == r_safe.exit_code == r_pp.exit_code
        assert stats.total > 0
        assert r_pp.cycles <= r_safe.cycles

    def test_never_slows_down_optimized_code(self):
        config = CompileConfig.named("O")
        plain = compile_source(self.WORKLOAD, config)
        processed = compile_source(self.WORKLOAD, config)
        postprocess(processed.asm)
        r_plain = VM(plain.asm).run()
        r_proc = VM(processed.asm).run()
        assert r_proc.cycles <= r_plain.cycles
        assert processed.asm.code_size() <= plain.asm.code_size()

    # A pointer stored into its own slot: ``*q = q`` after ``q = a + i``.
    SELF_STORE = """
    int main(void) {
        char **a = (char **)GC_malloc(64);
        int i = 3;
        char **q = a + i;
        *q = (char *)q;
        return (int)(a[3] - (char *)a);
    }
    """

    @pytest.mark.parametrize("config_name", CONFIGS)
    def test_store_of_its_own_address_matches_g(self, config_name):
        config = CompileConfig.named(config_name)
        config.peephole = True
        processed = compile_source(self.SELF_STORE, config)
        reference = compile_source(self.SELF_STORE, CompileConfig.named("g"))
        assert VM(processed.asm).run().exit_code == \
            VM(reference.asm).run().exit_code == 12

    def test_idempotent(self):
        config = CompileConfig.named("O_safe")
        compiled = compile_source(self.WORKLOAD, config)
        postprocess(compiled.asm)
        snapshot = compiled.asm.render()
        again = postprocess(compiled.asm)
        assert again.total == 0
        assert compiled.asm.render() == snapshot
