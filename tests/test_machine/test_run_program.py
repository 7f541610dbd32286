"""run_program: the one place a VM lives, and a failed run as a result."""

import ast
import gc as pygc
import pathlib
import weakref

import pytest

import repro
from repro.machine import (CompileConfig, VM, VMError, compile_source,
                           run_program, superinst)
from repro.machine import vm as vm_module

SRC = ("char *walk(char *p, int n) { while (n--) p++; return p; }\n"
       "int main(void) { char *b = (char *)GC_malloc(16); "
       "b[5] = 9; return *walk(b, 5); }")

BUILTIN_FAULTS = [
    "int main(void) { memset((char *)16, 0, 8); return 0; }",
    "int main(void) { return strlen((char *)16); }",
    'int main(void) { strcpy(0, "x"); return 0; }',
]
RECURSION = ("int f(int n) { return f(n + 1) + 1; }\n"
             "int main(void) { return f(0); }")
# An out-of-object pointer that g_checked's GC_same_obj call rejects.
CHECK_FAILURE = ("int main(void) { char *p = (char *)GC_malloc(8); "
                 "char *q; q = p - 1; return q != 0; }")
# Reads off the end of a one-page object: the fault lands inside a
# fused run once the loop has fused.
FUSED_FAULT = """\
int main(void) {
    char *p = (char *)GC_malloc(4000);
    int i, s = 0;
    printf("start\\n");
    for (i = 0; ; i++) s += p[i];
    return s;
}
"""


def compile_for(source, config="O"):
    return compile_source(source, CompileConfig.named(config))


def run(source, config="O", **settings):
    compiled = compile_for(source, config)
    return run_program(compiled.asm, compiled.config.model, **settings)


class TestSettings:
    def test_one_shot(self):
        result = run(SRC)
        assert result.status == "ok" and result.detail == ""
        assert result.exit_code == 9

    def test_stdin(self):
        result = run("int main(void) { return getchar(); }", stdin="A")
        assert result.exit_code == ord("A")

    def test_gc_interval(self):
        result = run(SRC, "O_safe", gc_interval=3)
        assert result.exit_code == 9
        assert result.collections > 0
        assert result.gc_stats.collections == result.collections

    def test_max_instructions(self):
        result = run("int main(void) { for (;;) ; }", max_instructions=5_000)
        assert result.status == "fault"
        assert "instruction budget exceeded" in result.detail

    def test_poison_fills_reclaimed_objects(self):
        # The only pointer to the object is hidden (complemented) across
        # a collection, so the object is reclaimed and the read after
        # it sees whatever the sweep left there.
        source = ("unsigned hide(void) { unsigned char *p = GC_malloc(16); "
                  "p[0] = 1; return ~(unsigned)p; }\n"
                  "int main(void) { unsigned h = hide(); unsigned char *p; "
                  "GC_collect(); p = (unsigned char *)~h; return p[0]; }")
        assert run(source, "g").exit_code == 1
        assert run(source, "g", poison=True).exit_code == vm_module.POISON_BYTE


class TestFailuresAreResults:
    @pytest.mark.parametrize("source", BUILTIN_FAULTS,
                             ids=["memset", "strlen", "strcpy"])
    def test_fault_inside_a_builtin(self, source):
        result = run(source)
        assert result.status == "fault"
        assert result.detail.startswith("unmapped address: 0x000000")
        assert result.describe() == f"fault: {result.detail}"

    def test_unbounded_recursion(self):
        result = run(RECURSION)
        assert (result.status, result.detail) == ("fault",
                                                  "call stack overflow")

    def test_failed_pointer_check(self):
        result = run(CHECK_FAILURE, "g_checked")
        assert result.status == "check"
        assert "outside its object" in result.detail
        assert result.checks == result.gc_stats.checks_performed >= 1

    def test_a_failed_run_reports_no_exit_code_and_no_counts(self):
        result = run(BUILTIN_FAULTS[0])
        assert result.exit_code is None
        assert result.instructions == result.cycles == 0

    def test_failed_result_does_not_depend_on_the_tier(self, monkeypatch):
        counted, results = set(), []
        for fuse_after in (0, 1, 64):
            monkeypatch.setattr(superinst, "FUSE_AFTER", fuse_after)
            vm = VM(compile_for(FUSED_FAULT).asm)
            with pytest.raises(VMError):
                vm.run()
            counted.add(vm.instructions)
            results.append(run(FUSED_FAULT))
        # The counters at the fault differ by tier; the result does not.
        assert len(counted) == 3
        plain = results[0]
        assert plain.status == "fault" and "load fault" in plain.detail
        assert plain.output == "start\n"
        assert plain.gc_stats.objects_allocated == 1
        assert results[1] == plain and results[2] == plain


@pytest.mark.parametrize("source, config, status", [
    (SRC, "O", "ok"),
    (BUILTIN_FAULTS[0], "O", "fault"),
    (RECURSION, "O", "fault"),
    (CHECK_FAILURE, "g_checked", "check"),
], ids=["ok", "fault", "recursion", "check"])
def test_vm_is_freed_without_the_cyclic_collector(monkeypatch, source,
                                                  config, status):
    alive = []

    class TrackedVM(VM):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(vm_module, "VM", TrackedVM)
    compiled = compile_for(source, config)
    was_enabled = pygc.isenabled()
    pygc.disable()
    try:
        result = run_program(compiled.asm, compiled.config.model)
        assert result.status == status
        assert len(alive) == 1 and alive[0]() is None
    finally:
        if was_enabled:
            pygc.enable()


def _modules_calling(*names):
    """The modules of src/repro that call a function by one of names."""
    root = pathlib.Path(repro.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in names:
                callers.add(path.relative_to(root).as_posix())
    return callers


def test_only_vm_py_constructs_a_vm_or_a_collector():
    # A second place that builds a VM would be a second VM life: its own
    # failure handling, poisoning and release.
    assert _modules_calling("VM", "Collector") == {"machine/vm.py"}


def test_only_the_driver_runs_the_postprocessing_stages():
    # A caller that rewrote a compiled program would bypass the compile
    # cache's key and rewrite a program another caller may hold.
    assert _modules_calling("postprocess", "sink_program") == \
        {"machine/driver.py"}
