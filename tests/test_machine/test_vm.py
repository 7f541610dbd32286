"""VM tests: execution mechanics, builtins, GC integration, limits."""

import gc as pygc  # the tests below name their Collectors ``gc``
import weakref

import pytest

from repro.gc import Collector, GCCheckError
from repro.machine import CompileConfig, VM, VMError, compile_source
from repro.machine.asm import MInst
from repro.machine.models import PENTIUM_90, SPARC_10, SPARCSTATION_2


def build(source, config=None):
    config = config or CompileConfig()
    compiled = compile_source(source, config)
    return compiled


class TestExecution:
    def test_exit_code_is_signed(self):
        compiled = build("int main(void) { return -3; }")
        assert VM(compiled.asm).run().exit_code == -3

    def test_instruction_and_cycle_counting(self):
        compiled = build("int main(void) { return 1 + 2; }")
        r = VM(compiled.asm).run()
        assert r.instructions > 0
        assert r.cycles >= r.instructions  # every inst costs >= 1 (markers 0)

    def test_cost_models_differ(self):
        src = ("int main(void) { int a[64]; int i, s = 0; "
               "for (i = 0; i < 64; i++) a[i] = i; "
               "for (i = 0; i < 64; i++) s += a[i] * 3; return 0; }")
        runs = {}
        for model in (SPARCSTATION_2, SPARC_10):
            compiled = build(src, CompileConfig(model=model))
            runs[model.name] = VM(compiled.asm, model).run()
        # Same instruction stream, different cycles (loads/muls dearer on SS2).
        assert runs["SPARCstation 2"].cycles > runs["SPARCstation 10"].cycles

    def test_undefined_function_raises(self):
        compiled = build("int main(void) { nosuchthing(); return 0; }")
        with pytest.raises(VMError):
            VM(compiled.asm).run()

    def test_instruction_budget(self):
        compiled = build("int main(void) { while (1) ; return 0; }")
        vm = VM(compiled.asm, max_instructions=10_000)
        with pytest.raises(VMError):
            vm.run()

    def test_load_fault_reported(self):
        compiled = build("int main(void) { int *p = 0; return *p; }")
        with pytest.raises(VMError, match="load fault"):
            VM(compiled.asm).run()

    def test_exit_builtin_stops_immediately(self):
        compiled = build('int main(void) { exit(9); return 1; }')
        assert VM(compiled.asm).run().exit_code == 9

    def test_abort_raises(self):
        compiled = build("int main(void) { abort(); return 0; }")
        with pytest.raises(VMError, match="abort"):
            VM(compiled.asm).run()


class TestGlobals:
    def test_global_initializers_linked(self):
        src = ('int counter = 5;\nchar *greeting = "hey";\n'
               "int main(void) { return counter + greeting[0]; }")
        compiled = build(src)
        assert VM(compiled.asm).run().exit_code == 5 + ord("h")

    def test_global_array_with_relocated_strings(self):
        src = ('char *names[2] = {"ab", "cd"};\n'
               "int main(void) { return names[1][0]; }")
        compiled = build(src)
        assert VM(compiled.asm).run().exit_code == ord("c")

    def test_globals_are_gc_roots(self):
        src = """
        char *keep;
        int main(void) {
            int i;
            keep = (char *)GC_malloc(32);
            keep[0] = 77;
            for (i = 0; i < 3000; i++) GC_malloc(64);
            return keep[0];
        }
        """
        compiled = build(src)
        gc = Collector()
        gc.heap.poison_byte = 0xDD
        vm = VM(compiled.asm, collector=gc)
        r = vm.run()
        assert r.exit_code == 77
        assert r.collections >= 1


class TestGCIntegration:
    def test_stack_locals_are_roots(self):
        src = """
        int main(void) {
            char *s = (char *)GC_malloc(16);
            int i;
            s[5] = 42;
            for (i = 0; i < 3000; i++) GC_malloc(64);
            return s[5];
        }
        """
        compiled = build(src, CompileConfig.named("g"))  # s in the frame
        gc = Collector()
        gc.heap.poison_byte = 0xDD
        r = VM(compiled.asm, collector=gc).run()
        assert r.exit_code == 42

    def test_register_locals_are_roots(self):
        src = """
        int churn(void) { int i; for (i = 0; i < 2000; i++) GC_malloc(64); return 0; }
        int main(void) {
            char *s = (char *)GC_malloc(16);
            s[5] = 43;
            churn();
            return s[5];
        }
        """
        compiled = build(src, CompileConfig.named("O"))
        gc = Collector()
        gc.heap.poison_byte = 0xDD
        r = VM(compiled.asm, collector=gc).run()
        assert r.exit_code == 43

    def test_gc_interval_forces_collections(self):
        compiled = build("int main(void) { return 0; }")
        r = VM(compiled.asm, gc_interval=5).run()
        assert r.collections > 0

    def test_checked_violation_surfaces_as_gccheckerror(self):
        src = ("int main(void) { char *p = (char *)GC_malloc(8); "
               "char *q; q = p - 1; return q == 0; }")
        compiled = build(src, CompileConfig.named("g_checked"))
        with pytest.raises(GCCheckError):
            VM(compiled.asm).run()


class TestLazyStack:
    """The 1 MiB stack is reserved, not mapped: a run maps only the
    pages it touches, and nothing below the stack becomes accessible."""

    RECURSE = """
    int down(int n) { int pad[8]; pad[0] = n;
                      if (n == 0) return 0; return down(n - 1) + pad[0]; }
    int main(void) { return down(100000); }
    """

    def _stack_pages(self, vm):
        return [i for i in vm.memory._pages if i >= vm.stack_base >> 12]

    def test_untouched_stack_word_reads_zero(self):
        vm = VM(build("int main(void) { return 0; }").asm)
        assert vm.memory.load_word(vm.stack_base + 0x8000) == 0
        assert vm._load(vm.stack_base, 4, False) == 0

    @pytest.mark.parametrize("config,addr", [("g", 0x07FFBFF8),
                                             ("O", 0x07FFBFFC)])
    def test_overflow_below_stack_base_faults(self, config, addr):
        vm = VM(build(self.RECURSE, CompileConfig.named(config)).asm,
                stack_size=16 * 1024)
        with pytest.raises(VMError, match=f"^store fault at 0x{addr:08x}$"):
            vm.run()
        with pytest.raises(VMError, match="^load fault at 0x07ffbffc$"):
            vm._load(vm.stack_base - 4, 4, False)

    def test_one_frame_maps_few_stack_pages(self):
        src = ("int f(int x) { int a[4]; a[1] = x; return a[1]; } "
               "int main(void) { return f(3); }")
        vm = VM(build(src, CompileConfig.named("g")).asm)
        assert vm.run().exit_code == 3
        assert 1 <= len(self._stack_pages(vm)) <= 2


class TestUndefinedLabel:
    def test_jump_to_missing_label_raises_vmerror(self):
        # Lowering rejects such a goto; a hand-built jmp still fails as a
        # typed VM error, not a KeyError.
        compiled = build("int main(void) { return 0; }")
        compiled.asm.functions["main"].insts.insert(
            0, MInst("jmp", symbol=".main_nowhere"))
        with pytest.raises(VMError, match="undefined label '.main_nowhere'"):
            VM(compiled.asm).run()


class TestRelease:
    """A released VM is freed by reference counting, not by Python's
    cyclic collector, and keeps its results readable."""

    SRC = """
    int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
    int main(void) { int *p = (int *)GC_malloc(8); p[0] = fib(12);
                     GC_collect(); return p[0]; }
    """

    def test_released_vm_is_freed_without_the_cyclic_collector(self):
        compiled = build(self.SRC)
        collector = Collector()
        was_enabled = pygc.isenabled()
        pygc.disable()
        try:
            vm = VM(compiled.asm, collector=collector)
            result = vm.run()
            vm.release()
            ref = weakref.ref(vm)
            del vm
            assert ref() is None
        finally:
            if was_enabled:
                pygc.enable()
        assert result.exit_code == 144
        assert collector.stats.collections == result.collections >= 1
        assert collector.dynamic_root_providers == []
        assert collector.range_providers == []

    def test_vm_with_fused_runs_is_freed_without_the_cyclic_collector(self):
        # Counting leaders hold their own function's closure list, and
        # a fused closure is exec-compiled into a fresh globals dict:
        # neither may keep a released VM (or the fused code) alive.
        src = ("int main(void) { int i; int acc = 0; "
               "for (i = 0; i < 500; i++) acc = (acc + i) & 0xFFFF; "
               "return acc & 0xFF; }")
        compiled = build(src)
        was_enabled = pygc.isenabled()
        pygc.disable()
        try:
            vm = VM(compiled.asm)
            result = vm.run()
            assert vm.fused_runs == 1
            fused = [op for ops in vm._ops.values() for op in ops
                     if op.__name__ == "_super"]
            assert len(fused) == 1
            fused_ref = weakref.ref(fused.pop())
            vm.release()
            ref = weakref.ref(vm)
            del vm
            assert ref() is None
            assert fused_ref() is None
        finally:
            if was_enabled:
                pygc.enable()
        assert result.exit_code == sum(range(500)) & 0xFFFF & 0xFF

    def test_release_is_idempotent_and_keeps_state(self):
        def other():  # a root provider the VM does not own
            return ()

        collector = Collector()
        collector.add_root_provider(other)
        vm = VM(build(self.SRC).asm, collector=collector)
        result = vm.run()
        vm.release()
        vm.release()
        assert collector.dynamic_root_providers == [other]
        assert vm.instructions == result.instructions
        assert vm.memory is collector.memory


class TestBuiltinCoverage:
    def test_rand_is_deterministic(self):
        src = ("int main(void) { srand(7); return rand() == rand() ? 1 : 0; }")
        compiled = build(src)
        a = VM(compiled.asm).run().exit_code
        b = VM(compiled.asm).run().exit_code
        assert a == b == 0

    def test_abs(self):
        compiled = build("int main(void) { return abs(-7) + abs(7); }")
        assert VM(compiled.asm).run().exit_code == 14

    def test_calloc_zeroes(self):
        src = ("int main(void) { int *p = (int *)calloc(4, 4); "
               "return p[0] + p[3]; }")
        compiled = build(src)
        assert VM(compiled.asm).run().exit_code == 0

    def test_realloc_preserves(self):
        src = """
        int main(void) {
            int *p = (int *)GC_malloc(8);
            p[0] = 11; p[1] = 22;
            p = (int *)GC_realloc(p, 64);
            return p[0] + p[1];
        }
        """
        compiled = build(src)
        assert VM(compiled.asm).run().exit_code == 33

    def test_strchr(self):
        src = ('int main(void) { char *s = "hello"; char *e = strchr(s, 108); '
               "return e - s; }")
        compiled = build(src)
        assert VM(compiled.asm).run().exit_code == 2

    def test_gc_base_builtin(self):
        src = ("int main(void) { char *p = (char *)GC_malloc(32); "
               "return (char *)GC_base(p + 7) == p; }")
        compiled = build(src)
        assert VM(compiled.asm).run().exit_code == 1


class TestExtendedLibrary:
    def _run(self, src):
        compiled = build(src)
        return VM(compiled.asm).run()

    def test_sprintf(self):
        r = self._run('int main(void) { char b[32]; sprintf(b, "%d-%s", 7, "x"); '
                      'return strcmp(b, "7-x") == 0; }')
        assert r.exit_code == 1

    def test_strncpy_pads_and_limits(self):
        r = self._run('int main(void) { char b[8]; strncpy(b, "ab", 5); '
                      "return b[1] == 'b' && b[2] == 0 && b[4] == 0; }")
        assert r.exit_code == 1

    def test_strstr_found_and_missing(self):
        r = self._run('int main(void) { char *h = "needle in hay"; '
                      'return (strstr(h, "in") == h + 7) '
                      '&& (strstr(h, "zz") == 0); }')
        assert r.exit_code == 1

    def test_ctype_family(self):
        r = self._run("int main(void) { return isdigit('3') + isalpha('z') * 2 "
                      "+ isspace('\\t') * 4 + isalnum('_') * 8; }")
        assert r.exit_code == 1 + 2 + 4

    def test_case_conversion(self):
        r = self._run("int main(void) { return toupper('m') == 'M' "
                      "&& tolower('M') == 'm' && toupper('3') == '3'; }")
        assert r.exit_code == 1
