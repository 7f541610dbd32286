"""Superinstruction tests: runs fuse themselves on their FUSE_AFTER-th
entry, and fusion upholds the bit-identity guarantees."""

import pytest

from repro.bench.harness import WORKLOADS
from repro.exec.cache import ResultCache
from repro.machine import CompileConfig, VM, compile_source, superinst
from repro.machine.models import MODELS
from repro.machine.vm import CHECK_EXPRS, VMError, run_program
from repro.obs.vmprof import CHECK_BUILTINS, VMProfile
from repro.workloads import load_workload

# Two hot loops (a leaf kernel called in a loop) — enough structure for
# real fusion: self-looping inner blocks, calls that must not fuse, and
# branches as early exits.  The kernel loads and stores every narrow
# width, signed and unsigned, inside its fused loop, and shifts what it
# loads so that a wrong extension shows in the result.
PROGRAM = """
int work(int n) {
    int i;
    int acc = 0;
    short h[8];
    char c[8];
    unsigned char u[8];
    unsigned short w[8];
    for (i = 0; i < 8; i++) { h[i] = 0; c[i] = 0; u[i] = 0; w[i] = 0; }
    for (i = 0; i < n; i++) {
        h[i & 7] = acc - 30000;
        c[i & 7] = i * 7;
        u[i & 7] = i * 5;
        w[i & 7] = acc * 3;
        acc = (acc + i * 3 + (h[(i + 3) & 7] >> 4) + (c[(i + 5) & 7] >> 2)
               + (u[(i + 1) & 7] >> 3) + (w[(i + 2) & 7] >> 5)) & 0xFFFF;
    }
    return acc;
}
int main(void) {
    int k;
    int r = 0;
    for (k = 0; k < 40; k++) r = (r + work(200) + k) & 0xFFFF;
    printf("%d\\n", r);
    return r & 0xFF;
}
"""

# One counted loop in main.  Its header run (condition test through the
# backward jump) is entered once per test of the condition: N + 1 times.
LOOP = """
int main(void) {
    int i;
    int acc = 0;
    for (i = 0; i < %d; i++) acc = (acc + i * 3) & 0xFFFF;
    return acc & 0xFF;
}
"""
# FUSE_AFTER as shipped, read before any test patches it.
FUSE_DEFAULT = superinst.FUSE_AFTER

# A checked loop: under g_checked, ``a[i & 63]`` is a GC_same_obj call
# in the body of a loop that fuses whole.
CHECKED_LOOP = """
int main(void) {
    int *a = (int *) GC_malloc(64 * sizeof(int));
    int i;
    int acc = 0;
    for (i = 0; i < 100000; i++) acc = (acc + a[i & 63] + i) & 0xFFFF;
    return acc & 0xFF;
}
"""

# Pointer walks: ``p++`` and ``--p`` are GC_post_incr and GC_pre_incr
# calls, ``p[-1]`` and ``a[i]`` GC_same_obj calls, each inside a loop
# that fuses as a self-loop.
INCR_LOOPS = """
int main(void) {
    int *a = (int *) GC_malloc(50 * sizeof(int));
    int *p;
    int i;
    int acc = 0;
    for (i = 0; i < 50; i++) a[i] = i;
    for (i = 0; i < 200; i++) {
        for (p = a; p < a + 50; p++) acc = (acc + *p) & 0xFFFF;
        for (p = a + 50; p > a; --p) acc = (acc + p[-1] * 3) & 0xFFFF;
    }
    printf("%d\\n", acc);
    return acc & 0xFF;
}
"""

# GC_base and GC_check_base, called directly (fused with the loop) and
# through a function pointer (callr runs the check's builtin entry).
BASE_LOOP = """
int main(void) {
    char *s = (char *) GC_malloc(40);
    void *(*base)(void *) = GC_base;
    int i;
    int acc = 0;
    for (i = 0; i < 200; i++) {
        acc += (char *) GC_base(s + i % 40) - s;
        acc += (char *) GC_check_base(s) == s;
        acc += (char *) base(s + i % 41) == s;
        acc += GC_base((char *) &acc) == 0;
    }
    printf("%d\\n", acc);
    return acc & 0xFF;
}
"""

# A walk off the end of its object: the GC_post_incr that leaves the
# 304-byte object fails on the loop's 304th entry, long after it fused.
ESCAPE = """
int main(void) {
    char *s = (char *) GC_malloc(300);
    char *p;
    int n = 0;
    printf("walk\\n");
    for (p = s; n < 1000; p++) { *p = 7; n++; }
    return n;
}
"""


def run_key(result):
    """Everything observable about a run."""
    return (result.exit_code, result.instructions, result.cycles,
            result.output, result.collections, result.checks)


def build(source, config_name="O", model_key="ss10"):
    model = MODELS[model_key]
    return compile_source(source, CompileConfig.named(config_name, model))


def profiled(compiled, model_key="ss10", **kwargs):
    """The reference run: a profile keeps every run unfused."""
    vm = VM(compiled.asm, MODELS[model_key], profile=VMProfile(), **kwargs)
    result = vm.run()
    assert vm.fused_runs == 0
    return result


class TestBitIdentity:
    @pytest.mark.parametrize("model_key", ("ss2", "ss10", "p90"))
    def test_fused_run_is_bit_identical(self, model_key):
        compiled = build(PROGRAM, model_key=model_key)
        vm = VM(compiled.asm, MODELS[model_key])
        fused = vm.run()
        assert vm.fused_runs > 0
        assert run_key(fused) == run_key(profiled(compiled, model_key))

    def test_loop_crossing_the_threshold_mid_run(self):
        # 500 iterations: the loop runs plain for its first 63 entries,
        # then fused for the rest, all inside one run() call.
        compiled = build(LOOP % 500)
        vm = VM(compiled.asm, MODELS["ss10"])
        result = vm.run()
        assert vm.fused_runs == 1
        assert run_key(result) == run_key(profiled(compiled))

    def test_run_entered_threshold_minus_one_times_is_not_fused(self):
        below = VM(build(LOOP % (superinst.FUSE_AFTER - 2)).asm)
        below.run()
        assert below.fused_runs == 0
        at = VM(build(LOOP % (superinst.FUSE_AFTER - 1)).asm)
        at.run()
        assert at.fused_runs == 1

    def test_gc_interval_disables_fusion(self):
        # The async-collection trigger must see every instruction
        # boundary; fusion batches counter updates, so it stays off.
        compiled = build(PROGRAM)
        vm = VM(compiled.asm, MODELS["ss10"], gc_interval=64)
        result = vm.run()
        assert vm.fused_runs == 0
        assert run_key(result) == run_key(profiled(compiled, gc_interval=64))

    def test_profile_disables_fusion(self):
        compiled = build(PROGRAM)
        profile = VMProfile()
        vm = VM(compiled.asm, MODELS["ss10"], profile=profile)
        result = vm.run()
        assert vm.fused_runs == 0
        assert profile.total_cycles == result.cycles
        assert profile.total_instructions == result.instructions

    def test_fuse_after_zero_disables_fusion(self, monkeypatch):
        monkeypatch.setattr(superinst, "FUSE_AFTER", 0)
        compiled = build(PROGRAM)
        vm = VM(compiled.asm, MODELS["ss10"])
        result = vm.run()
        assert vm.fused_runs == 0
        assert run_key(result) == run_key(profiled(compiled))

    @pytest.mark.parametrize("budget", (10, 997, 12345))
    def test_budget_raise_is_equivalent(self, budget):
        compiled = build(PROGRAM)
        model = MODELS["ss10"]

        def run_with(profile):
            vm = VM(compiled.asm, model, profile=profile,
                    max_instructions=budget)
            try:
                vm.run()
            except VMError as exc:
                return str(exc), vm.instructions
            return None, vm.instructions

        base_err, base_count = run_with(VMProfile())
        fused_err, fused_count = run_with(None)
        assert base_err is not None, "budget chosen too large for the test"
        assert fused_err == base_err
        assert fused_count == base_count == budget + 1

    @pytest.mark.parametrize("offset", range(10))
    def test_budget_raise_inside_a_fused_self_loop(self, offset):
        # The loop body is a handful of instructions, so consecutive
        # budgets land the raise on every position in it, long after
        # the loop fused itself.
        compiled = build(LOOP % 100_000)
        budget = 5000 + offset

        def run_with(profile):
            vm = VM(compiled.asm, MODELS["ss10"], profile=profile,
                    max_instructions=budget)
            with pytest.raises(VMError) as info:
                vm.run()
            return vm, str(info.value)

        base_vm, base_err = run_with(VMProfile())
        fused_vm, fused_err = run_with(None)
        assert fused_vm.fused_runs == 1
        assert fused_err == base_err
        assert fused_vm.instructions == base_vm.instructions == budget + 1


def failed_key(result):
    """Everything a failed run promises to keep exact across tiers."""
    return (result.status, result.detail, result.output,
            result.collections, result.checks, result.gc_stats.to_dict())


@pytest.fixture
def fused_runs(monkeypatch):
    """For every run compiled while the test runs, the set of functions
    it calls (the checks it fuses)."""
    calls = []
    compile_run = superinst._compile_run

    def counting_compile_run(vm, insts, start, end, labels):
        calls.append({inst.symbol for inst in insts[start:end + 1]
                      if inst.op == "call"})
        return compile_run(vm, insts, start, end, labels)

    monkeypatch.setattr(superinst, "_compile_run", counting_compile_run)
    return calls


def run_at(monkeypatch, fuse_after, compiled, **kwargs):
    monkeypatch.setattr(superinst, "FUSE_AFTER", fuse_after)
    return run_program(compiled.asm, MODELS["ss10"], **kwargs)


class TestChecksFuse:
    """The pointer checks are straight-line ops: a fused run contains
    them, and every count, fault and failure stays that of the plain
    tier."""

    def test_the_check_table_is_the_profiled_checks(self):
        assert set(CHECK_EXPRS) == CHECK_BUILTINS

    @pytest.mark.parametrize("source, counter, output, checks", [
        (INCR_LOOPS, "incr_checks", "62496\n",
         {"GC_pre_incr", "GC_post_incr", "GC_same_obj"}),
        (BASE_LOOP, "base_checks", "600\n",
         {"GC_base", "GC_check_base", "GC_same_obj"}),
    ])
    def test_checks_fuse_bit_identically(self, monkeypatch, fused_runs,
                                         source, counter, output, checks):
        compiled = build(source, "g_checked")
        plain = run_at(monkeypatch, 0, compiled)
        assert not fused_runs
        fused = run_at(monkeypatch, FUSE_DEFAULT, compiled)
        assert set().union(*fused_runs) == checks
        assert fused.status == "ok" and fused.output == output
        assert getattr(fused.gc_stats, counter) > 0
        assert run_key(fused) == run_key(plain)
        assert fused.gc_stats.to_dict() == plain.gc_stats.to_dict()

    def test_budget_sweep_past_the_fusion_point(self, monkeypatch,
                                                fused_runs):
        # The loop body is about 20 instructions with one check, so 60
        # consecutive budgets put the budget fault on every position
        # around the check, three times over.  A segment that ran past
        # a check would raise before it, one check short.
        compiled = build(CHECKED_LOOP, "g_checked")
        for budget in range(5000, 5060):
            del fused_runs[:]
            fused = run_at(monkeypatch, FUSE_DEFAULT, compiled,
                           max_instructions=budget)
            assert fused_runs, budget
            plain = run_at(monkeypatch, 0, compiled,
                           max_instructions=budget)
            assert plain.status == "fault", budget
            assert failed_key(fused) == failed_key(plain), budget

    @pytest.mark.parametrize("fuse_after", (1, FUSE_DEFAULT))
    def test_failing_check_inside_a_fused_run(self, monkeypatch, fused_runs,
                                              fuse_after):
        compiled = build(ESCAPE, "g_checked")
        plain = run_at(monkeypatch, 0, compiled)
        fused = run_at(monkeypatch, fuse_after, compiled)
        assert fused_runs
        assert plain.status == "check"
        assert "outside its object" in plain.detail
        assert plain.output == "walk\n" and plain.checks == 304
        assert failed_key(fused) == failed_key(plain)

    @pytest.mark.slow
    @pytest.mark.parametrize("program", ("cordtest", "cfrac", "miniawk",
                                         "minips"))
    def test_paper_checked_cells_in_every_tier(self, monkeypatch,
                                               fused_runs, program):
        # At FUSE_AFTER 1 every run fuses on its first entry, cold code
        # included, so every check of the program runs fused.
        compiled = compile_source(load_workload(program),
                                  CompileConfig.named("g_checked",
                                                      MODELS["ss10"]))
        stdin = WORKLOADS[program].stdin
        results = [run_at(monkeypatch, fuse_after, compiled, stdin=stdin)
                   for fuse_after in (0, 1, FUSE_DEFAULT)]
        assert fused_runs
        for result in results:
            assert result.status == "ok", result.describe()
            assert run_key(result) == run_key(results[0])
            assert result.gc_stats.to_dict() == results[0].gc_stats.to_dict()
        assert results[0].checks > 0


class TestCacheSalting:
    def test_unsunk_keys_are_pinned(self, tmp_path):
        # Fusion never enters a result key: these are the addresses of
        # the repro-exec-cache/4 key shape, and cached cells must stay
        # reachable under them whichever runs fuse.
        cache = ResultCache(str(tmp_path))
        source = "int main(void) { return 42; }\n"
        assert cache.key_for(source, CompileConfig.named("O")) == (
            "bd18d86f712f7432b2a543eebf5c4bca"
            "9ff915c5f5d4000d6ffbb4fffefed9c0")
        assert cache.key_for(source, CompileConfig.named("g_checked"),
                             stdin="x", gc_interval=7) == (
            "1e81efd5466ff2af8440644650fe7d73"
            "04fe52622542e1ac05c90326c37d1e7c")
