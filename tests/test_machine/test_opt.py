"""Optimizer pass tests on the IR."""

import pytest

from repro.cfront import parse, typecheck
from repro.machine.ir import Inst, IRFunc, Vreg
from repro.machine.lower import lower_unit
from repro.machine.opt import addrfold, deadcode, licm, local, optimize, strength
from repro.machine.opt.local import eval_bin, eval_un


def lower(source, fn_name):
    tu = parse(source)
    syms = typecheck(tu)
    return lower_unit(tu, syms).functions[fn_name]


def ops_of(fn):
    return [i.op for i in fn.insts]


def bin_subops(fn):
    return [i.subop for i in fn.insts if i.op == "bin"]


class TestEvalHelpers:
    @pytest.mark.parametrize("subop,a,b,expected", [
        ("add", 7, 3, 10),
        ("sub", 3, 7, 0xFFFFFFFC),
        ("mul", 0xFFFF, 0xFFFF, (0xFFFF * 0xFFFF) & 0xFFFFFFFF),
        ("div", 0xFFFFFFFB, 2, 0xFFFFFFFE),       # -5 / 2 == -2
        ("mod", 0xFFFFFFF9, 3, 0xFFFFFFFF),       # -7 % 3 == -1
        ("shl", 1, 33, 2),                        # shift amount masked to 5 bits
        ("shr", 0x80000000, 1, 0xC0000000),       # arithmetic shift
        ("lt", 0xFFFFFFFF, 0, 1),                 # signed compare: -1 < 0
        ("ult", 0xFFFFFFFF, 0, 0),                # unsigned compare
        ("eq", 5, 5, 1),
    ])
    def test_eval_bin(self, subop, a, b, expected):
        assert eval_bin(subop, a, b) == expected

    def test_division_by_zero_unfoldable(self):
        assert eval_bin("div", 1, 0) is None
        assert eval_bin("mod", 1, 0) is None

    @pytest.mark.parametrize("subop,a,expected", [
        ("neg", 5, 0xFFFFFFFB),
        ("bnot", 0, 0xFFFFFFFF),
        ("not", 0, 1),
        ("sext8", 0xFF, 0xFFFFFFFF),
        ("zext8", 0xFF, 0xFF),
        ("sext16", 0x8000, 0xFFFF8000),
    ])
    def test_eval_un(self, subop, a, expected):
        assert eval_un(subop, a) == expected


class TestLocalPass:
    def test_constant_folding(self):
        fn = lower("int f(void) { return 3 + 4 * 5; }", "f")
        local.run(fn)
        deadcode.run(fn)
        consts = [i.imm for i in fn.insts if i.op == "const"]
        assert 23 in consts
        assert "bin" not in ops_of(fn)

    def test_copy_propagation(self):
        fn = lower("int f(int a) { int b = a; int c = b; return c + c; }", "f")
        local.run(fn)
        deadcode.run(fn)
        # The adds should operate directly on the parameter.
        add = next(i for i in fn.insts if i.op == "bin" and i.subop == "add")
        assert add.args[0] == add.args[1] == fn.params[0]

    def test_cse_of_repeated_expression(self):
        fn = lower("int f(int a, int b) { return (a * b) + (a * b); }", "f")
        local.run(fn)
        deadcode.run(fn)
        assert bin_subops(fn).count("mul") == 1

    def test_cse_respects_redefinition(self):
        fn = lower("int f(int a, int b) { int x = a * b; a = a + 1; "
                   "return x + a * b; }", "f")
        optimize(fn)
        assert bin_subops(fn).count("mul") == 2

    def test_algebraic_add_zero(self):
        fn = lower("int f(int a) { return a + 0; }", "f")
        local.run(fn)
        deadcode.run(fn)
        assert "bin" not in ops_of(fn)

    def test_algebraic_mul_one(self):
        fn = lower("int f(int a) { return a * 1; }", "f")
        local.run(fn)
        deadcode.run(fn)
        assert "mul" not in bin_subops(fn)

    def test_keep_is_opaque_to_cse(self):
        # Two KEEP_LIVEs of the same expression must not be merged.
        from repro.core.annotate import Annotator, AnnotateOptions
        from repro.cfront.typecheck import typecheck as tc
        tu = parse("char *f(char *p) { char *a; char *b; "
                   "a = p + 2; b = p + 2; return a; }")
        tc(tu)
        Annotator(tu, AnnotateOptions()).run()
        syms = tc(tu)
        fn = lower_unit(tu, syms).functions["f"]
        optimize(fn)
        assert sum(1 for i in fn.insts if i.op == "keep") == 2


class TestStrengthReduction:
    def test_mul_by_power_of_two_becomes_shift(self):
        fn = lower("int f(int *a, int i) { return a[i]; }", "f")
        local.run(fn)
        strength.run(fn)
        assert "shl" in bin_subops(fn)
        assert "mul" not in bin_subops(fn)

    def test_mul_by_non_power_kept(self):
        fn = lower("int f(int a) { return a * 12; }", "f")
        strength.run(fn)
        assert "mul" in bin_subops(fn)

    def test_signed_div_not_reduced(self):
        fn = lower("int f(int a) { return a / 4; }", "f")
        strength.run(fn)
        assert "div" in bin_subops(fn)


class TestLICM:
    def test_constant_hoisted_out_of_loop(self):
        fn = lower("int f(int n) { int i, s = 0; "
                   "for (i = 0; i < n; i++) s += 12345; return s; }", "f")
        licm.run(fn)
        label_idx = next(i for i, inst in enumerate(fn.insts)
                         if inst.op == "label")
        big_const_idx = next(i for i, inst in enumerate(fn.insts)
                             if inst.op == "const" and inst.imm == 12345)
        assert big_const_idx < label_idx

    def test_hoisting_preserves_results(self):
        from repro.machine import CompileConfig, VM, compile_source
        src = ("int main(void) { int i, s = 0; "
               "for (i = 0; i < 50; i++) s += i * 3 + 7; return s & 0xFF; }")
        with_licm = compile_source(src, CompileConfig(passes=("local", "licm",
                                                              "strength",
                                                              "deadcode")))
        without = compile_source(src, CompileConfig(passes=("local", "deadcode")))
        r1 = VM(with_licm.asm).run()
        r2 = VM(without.asm).run()
        assert r1.exit_code == r2.exit_code
        assert r1.instructions < r2.instructions  # hoisting paid off


class TestDeadCode:
    def test_unused_computation_removed(self):
        fn = lower("int f(int a) { int unused = a * 99; return a; }", "f")
        deadcode.run(fn)
        assert "mul" not in bin_subops(fn)

    def test_chain_of_dead_code_removed(self):
        fn = lower("int f(int a) { int x = a + 1; int y = x * 2; "
                   "int z = y - 3; return a; }", "f")
        deadcode.run(fn)
        assert "bin" not in ops_of(fn)

    def test_calls_never_removed(self):
        fn = lower("int g(void);\nint f(void) { int unused = g(); return 0; }", "f")
        deadcode.run(fn)
        assert "call" in ops_of(fn)

    def test_keep_never_removed(self):
        fn = IRFunc("t")
        v = fn.new_vreg()
        b = fn.new_vreg()
        k = fn.new_vreg()
        fn.emit(Inst("const", dst=v, imm=1))
        fn.emit(Inst("const", dst=b, imm=2))
        fn.emit(Inst("keep", dst=k, args=(v, b)))
        fn.emit(Inst("ret"))
        deadcode.run(fn)
        assert "keep" in ops_of(fn)


class TestAddrFold:
    SRC = ("int helper(int x) { return x; }\n"
           "char f(char *p, int i) { helper(1); return p[i - 1000]; }")

    def test_reassociation_happens(self):
        fn = lower(self.SRC, "f")
        optimize(fn)
        # Find sub feeding from the pointer parameter.
        subs = [i for i in fn.insts if i.op == "bin" and i.subop == "sub"]
        assert any(fn.params[0] in s.args for s in subs), fn

    def test_dead_pointer_overwritten_in_place(self):
        fn = lower(self.SRC, "f")
        optimize(fn)
        p = fn.params[0]
        # The paper's literal p = p - 1000: p is both dst and source.
        assert any(i.op == "bin" and i.dst == p and p in i.args
                   for i in fn.insts)

    def test_small_constants_left_for_addressing_mode(self):
        fn = lower("int helper(int x) { return x; }\n"
                   "char f(char *p, int i) { helper(1); return p[i + 4]; }", "f")
        optimize(fn)
        # i + 4 must NOT be reassociated: +4 folds into the load.
        p = fn.params[0]
        assert not any(i.op == "bin" and i.dst == p and p in i.args
                       for i in fn.insts)

    def test_semantics_preserved(self):
        from repro.machine import CompileConfig, VM, compile_source
        src = ("char f(char *p, int i) { return p[i - 3]; }\n"
               "int main(void) { char a[10]; int k; "
               "for (k = 0; k < 10; k++) a[k] = 50 + k; return f(a, 8); }")
        for passes in [("local", "deadcode"),
                       ("local", "licm", "strength", "addrfold", "deadcode")]:
            compiled = compile_source(src, CompileConfig(passes=passes))
            assert VM(compiled.asm).run().exit_code == 55


class TestAddrFoldAliasRegression:
    """Pins PR 1's in-place aliasing fix: ``x + (x - c)``, where the
    index operand of the reassociated add *is* the base, must not be
    rewritten in place (``x = x - c; x + x``) — that clobbers the value
    the final add still reads.  Previously covered only indirectly by
    benchmark parity."""

    ALIAS = "int f(int *a) { int x = a[0]; return x + (x - 1000); }"

    def test_base_register_not_clobbered(self):
        fn = lower(self.ALIAS, "f")
        optimize(fn)
        x = next(i.dst for i in fn.insts if i.op == "load")
        # The loaded value must stay single-assignment: the buggy
        # in-place variant redefined it (x = sub(x, c)).
        assert not any(i.dst == x for i in fn.insts
                       if i.op != "load"), fn.insts

    def test_no_self_add_from_reassociation(self):
        fn = lower(self.ALIAS, "f")
        optimize(fn)
        # The miscompile's signature: the rewritten add reads the same
        # (adjusted) register twice, computing 2*(x-c) instead of 2x-c.
        assert not any(i.op == "bin" and i.subop == "add"
                       and len(i.args) == 2 and i.args[0] == i.args[1]
                       for i in fn.insts if i.text == "reassoc"), fn.insts

    def test_alias_semantics_across_pipelines(self):
        from repro.machine import CompileConfig, VM, compile_source
        src = ("int main(void) { int *a = (int *)GC_malloc(4 * sizeof(int)); "
               "int x, y; a[0] = 4242; x = a[0]; y = x + (x - 1000); "
               "return y & 0xFF; }")
        expected = (4242 + 4242 - 1000) & 0xFF
        for passes in [("local", "deadcode"),
                       ("local", "licm", "strength", "addrfold", "deadcode")]:
            compiled = compile_source(src, CompileConfig(passes=passes))
            assert VM(compiled.asm).run().exit_code == expected

    def test_intervening_read_blocks_in_place_rewrite(self):
        # The second half of the fix: even with distinct index and base,
        # a read of the base between the adjustment point and the add
        # makes the in-place overwrite unsound.
        from repro.machine import CompileConfig, VM, compile_source
        full = ("int f(int *p, int i) { int t = p[0]; return p[i - 8] + t; }\n"
                "int main(void) { int a[12]; int k; "
                "for (k = 0; k < 12; k++) a[k] = k + 30; "
                "return f(a, 11) & 0xFF; }")
        for passes in [("local", "deadcode"),
                       ("local", "licm", "strength", "addrfold", "deadcode")]:
            compiled = compile_source(full, CompileConfig(passes=passes))
            assert VM(compiled.asm).run().exit_code == (33 + 30) & 0xFF


class TestPipeline:
    def test_optimize_reaches_fixpoint(self):
        fn = lower("int f(int a) { int b = a + 0; int c = b * 1; "
                   "return c + 2 * 3; }", "f")
        optimize(fn)
        snapshot = [repr(i) for i in fn.insts]
        optimize(fn)
        assert snapshot == [repr(i) for i in fn.insts]

    def test_optimized_code_is_smaller(self):
        fn = lower("int f(int a) { int t1 = a * 2; int t2 = a * 2; "
                   "int dead = t1 + 99; return t1 + t2; }", "f")
        before = len(fn.insts)
        optimize(fn)
        assert len(fn.insts) < before
