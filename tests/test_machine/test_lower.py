"""Lowering tests: IR structure and storage decisions."""

import pytest

from repro.cfront import parse, typecheck
from repro.machine.cfg import basic_blocks
from repro.machine.ir import IRFunc
from repro.cfront.errors import CFrontError
from repro.machine.lower import LowerError, Lowerer, lower_unit


def lower(source, debug=False):
    tu = parse(source)
    syms = typecheck(tu)
    return lower_unit(tu, syms, debug=debug)


def fn_of(source, name, debug=False):
    return lower(source, debug).functions[name]


class TestStorageDecisions:
    def test_scalar_local_in_register(self):
        fn = fn_of("int f(void) { int x = 1; return x; }", "f")
        assert not fn.slots  # no frame traffic

    def test_address_taken_local_in_memory(self):
        fn = fn_of("int f(void) { int x = 1; int *p = &x; return *p; }", "f")
        assert any("x" in name for name in fn.slots)

    def test_array_local_in_memory(self):
        fn = fn_of("int f(void) { int a[4]; a[0] = 1; return a[0]; }", "f")
        assert fn.slots

    def test_struct_local_in_memory(self):
        fn = fn_of("struct s { int v; };\n"
                   "int f(void) { struct s x; x.v = 2; return x.v; }", "f")
        assert fn.slots

    def test_indexing_pointer_param_does_not_force_memory(self):
        # &p[i] reads p's value; p itself stays in a register.
        fn = fn_of("int f(int *p, int i) { return p[i]; }", "f")
        assert not any("p" in name for name in fn.slots)

    def test_debug_mode_forces_all_to_memory(self):
        fn = fn_of("int f(int a) { int x = a; return x; }", "f", debug=True)
        names = list(fn.slots)
        assert any("a" in n for n in names)
        assert any("x" in n for n in names)


class TestFrameLayout:
    def test_slots_have_distinct_offsets(self):
        fn = fn_of("int f(void) { int a[4]; char b[10]; int *p = &a[0]; "
                   "return b[0] + *p; }", "f")
        fn.layout_frame()
        offsets = [s.offset for s in fn.slots.values()]
        assert len(set(offsets)) == len(offsets)

    def test_slots_are_aligned(self):
        fn = fn_of("int f(void) { char c; int x; int *p = &x; char *q = &c; "
                   "return *p + *q; }", "f", debug=True)
        fn.layout_frame()
        for slot in fn.slots.values():
            assert slot.offset % slot.align == 0

    def test_frame_size_rounded(self):
        fn = fn_of("int f(void) { int a[3]; a[0] = 1; return a[0]; }", "f")
        assert fn.layout_frame() % 8 == 0


class TestControlFlowShape:
    def test_while_has_loop_structure(self):
        fn = fn_of("int f(int n) { while (n) n--; return n; }", "f")
        blocks = basic_blocks(fn.insts)
        assert len(blocks) >= 3
        labels = [i.symbol for i in fn.insts if i.op == "label"]
        targets = [i.symbol for i in fn.insts if i.op in ("jmp", "bz", "bnz")]
        assert set(targets) <= set(labels)

    def test_logical_and_short_circuits(self):
        src = ("int hit = 0;\nint bump(void) { hit = 1; return 1; }\n"
               "int main(void) { int r = 0 && bump(); return hit * 10 + r; }")
        from repro.machine import CompileConfig, VM, compile_source
        compiled = compile_source(src, CompileConfig())
        assert VM(compiled.asm).run().exit_code == 0  # bump never ran

    def test_logical_or_short_circuits(self):
        src = ("int hit = 0;\nint bump(void) { hit = 1; return 1; }\n"
               "int main(void) { int r = 1 || bump(); return hit * 10 + r; }")
        from repro.machine import CompileConfig, VM, compile_source
        compiled = compile_source(src, CompileConfig())
        assert VM(compiled.asm).run().exit_code == 1

    def test_conditional_evaluates_one_arm(self):
        src = ("int hit = 0;\nint bump(void) { hit++; return 5; }\n"
               "int main(void) { int r = 1 ? 3 : bump(); return hit * 10 + r; }")
        from repro.machine import CompileConfig, VM, compile_source
        compiled = compile_source(src, CompileConfig())
        assert VM(compiled.asm).run().exit_code == 3


class TestStringsAndGlobals:
    def test_string_literals_interned(self):
        ir = lower('char *a = "same"; char *b = "same"; char *c = "diff";')
        strings = [g for g in ir.globals.values() if g.name.startswith("__str")]
        assert len(strings) == 2

    def test_global_scalar_init_encoding(self):
        ir = lower("int x = 0x11223344;")
        assert ir.globals["x"].init_bytes == bytes([0x44, 0x33, 0x22, 0x11])

    def test_global_array_init_encoding(self):
        ir = lower("short a[3] = {1, 2, 3};")
        assert ir.globals["a"].init_bytes == bytes([1, 0, 2, 0, 3, 0])

    def test_global_char_array_string_init(self):
        ir = lower('char s[8] = "hi";')
        assert ir.globals["s"].init_bytes.startswith(b"hi\0")

    def test_global_struct_init(self):
        ir = lower("struct p { char t; int v; };\nstruct p g = {7, 300};")
        raw = ir.globals["g"].init_bytes
        assert raw[0] == 7 and int.from_bytes(raw[4:8], "little") == 300


class TestErrors:
    def test_float_unsupported(self):
        with pytest.raises(LowerError):
            lower("int f(void) { return 1.5 > 1.0; }")

    def test_too_many_params(self):
        params = ", ".join(f"int a{i}" for i in range(8))
        with pytest.raises(LowerError):
            lower(f"int f({params}) {{ return 0; }}")

    def test_break_outside_loop(self):
        with pytest.raises(LowerError):
            lower("int f(void) { break; return 0; }")

    def test_goto_to_undefined_label(self):
        with pytest.raises(LowerError, match="undefined label 'nowhere'"):
            lower("int main(void) { goto nowhere; return 0; }")

    def test_label_defined_twice(self):
        with pytest.raises(LowerError, match="label 'a' defined twice"):
            lower("int main(void) { int x = 0; a: x++; "
                  "if (x < 3) goto a; a: return x; }")

    def test_forward_and_backward_gotos_lower(self):
        ir = lower("int main(void) { int x = 0; goto b; "
                   "a: x++; b: if (x < 3) goto a; return x; }")
        assert "main" in ir.functions

    def test_lower_error_is_a_frontend_diagnostic(self):
        assert issubclass(LowerError, CFrontError)

    def test_address_of_register_impossible(self):
        # The address-taken prepass promotes to memory, so this should
        # actually lower fine — regression guard.
        fn = fn_of("int f(void) { int x; int *p = &x; *p = 3; return x; }", "f")
        assert fn.slots


class TestStaticLocals:
    def _run(self, src, config="O"):
        from repro.machine import CompileConfig, VM, compile_source
        compiled = compile_source(src, CompileConfig.named(config))
        return VM(compiled.asm).run().exit_code

    def test_static_persists_across_calls(self):
        src = ("int counter(void) { static int n = 0; n++; return n; }\n"
               "int main(void) { counter(); counter(); return counter(); }")
        assert self._run(src) == 3
        assert self._run(src, "g") == 3

    def test_static_initializer(self):
        src = ("int get(void) { static int v = 77; return v; }\n"
               "int main(void) { return get(); }")
        assert self._run(src) == 77

    def test_static_array(self):
        src = ("int nth(int i) { static int t[4] = {10, 20, 30, 40}; "
               "return t[i]; }\n"
               "int main(void) { return nth(2); }")
        assert self._run(src) == 30

    def test_statics_in_different_functions_are_distinct(self):
        src = ("int a(void) { static int n = 0; n += 1; return n; }\n"
               "int b(void) { static int n = 0; n += 10; return n; }\n"
               "int main(void) { a(); a(); b(); return a() + b(); }")
        assert self._run(src) == 3 + 20

    def test_static_is_a_gc_root(self):
        from repro.gc import Collector
        from repro.machine import CompileConfig, VM, compile_source
        src = ("char *stash(char *p) { static char *kept; "
               "if (p) kept = p; return kept; }\n"
               "int main(void) { int i; char *s = (char *)GC_malloc(8); "
               "s[0] = 55; stash(s); s = 0; "
               "for (i = 0; i < 3000; i++) GC_malloc(64); "
               "return stash(0)[0]; }")
        compiled = compile_source(src, CompileConfig.named("g"))
        gc = Collector()
        gc.heap.poison_byte = 0xDD
        result = VM(compiled.asm, collector=gc).run()
        assert result.exit_code == 55
        assert result.collections >= 1


def run_output(src, config):
    from repro.machine import CompileConfig, VM, compile_source
    compiled = compile_source(src, CompileConfig.named(config))
    return VM(compiled.asm).run().output


class TestConstantFolding:
    """A global initializer and a ``case`` label fold to the value the
    same expression computes in a function body (run by the VM at O0,
    folded by the optimizer at O)."""

    @pytest.mark.parametrize("expr, value", [
        ("-7 / 2", 0xFFFFFFFD),
        ("-7 % 2", 0xFFFFFFFF),
        ("0x80000000 >> 4", 0x08000000),      # too big for int: unsigned
        ("4294967295u >> 4", 0x0FFFFFFF),
        ("0x7FFFFFFF >> 4", 0x07FFFFFF),
        ("-1 < 5u", 0),
        ("(unsigned)0xFFFFFFF0 >> 4", 0x0FFFFFFF),
        ("1 << 32", 1),                       # shift count masked to 5 bits
        ("7 - -3", 10),
        ("1 - -2", 3),
        ("(unsigned)-1 < 1", 0),
        ("-1 < 1", 1),
        ("(char)200", 0xFFFFFFC8),
        ("(unsigned short)-1", 0xFFFF),
    ])
    @pytest.mark.parametrize("config", ["O0", "O"])
    def test_global_case_and_body_agree(self, expr, value, config):
        src = (f"int g = {expr};\n"
               f"int pick(int v) {{ switch (v) {{ case {expr}: return 1; }} "
               f"return 0; }}\n"
               f"int main(void) {{ int v = {expr}; "
               f'printf("%x %x %d\\n", g, v, pick(v)); return 0; }}')
        assert run_output(src, config) == f"{value:x} {value:x} 1\n"

    @pytest.mark.parametrize("config", ["O0", "O"])
    def test_compound_shift_of_unsigned_is_logical(self, config):
        src = ("int main(void) { unsigned u = 0x80000000; "
               "int s = 0x80000000; u >>= 4; s >>= 4; "
               'printf("%x %x %x\\n", u, s, (unsigned)0x80000000 >> 4); '
               "return 0; }")
        assert run_output(src, config) == "8000000 f8000000 8000000\n"

    @pytest.mark.parametrize("src, message", [
        ("int g = 1 / 0;", "not a supported constant"),
        ("int g = 1 % 0;", "not a supported constant"),
        ("int *p = (int *)0 + 1;", "not a supported constant"),
        ("int f(int v) { switch (v) { case 1 / 0: return 1; } return 0; }",
         "non-constant case label"),
    ])
    def test_unfoldable_constants_are_diagnostics(self, src, message):
        with pytest.raises(LowerError, match=message):
            lower(src)
