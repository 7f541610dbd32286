"""Superinstruction tests: runs fuse themselves on their FUSE_AFTER-th
entry, and fusion upholds the bit-identity guarantees."""

import pytest

from repro.exec.cache import ResultCache
from repro.machine import CompileConfig, VM, compile_source, superinst
from repro.machine.models import MODELS
from repro.machine.vm import VMError
from repro.obs.vmprof import VMProfile

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


class TestCacheSalting:
    def test_sink_salts_result_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = CompileConfig.named("O")
        assert (cache.key_for(PROGRAM, config)
                != cache.key_for(PROGRAM, config, sink=True))

    def test_default_knobs_leave_keys_unchanged(self, tmp_path):
        # sink=False must address the same entry as a caller that never
        # heard of the knob.
        cache = ResultCache(str(tmp_path))
        config = CompileConfig.named("O")
        assert (cache.key_for(PROGRAM, config)
                == cache.key_for(PROGRAM, config, sink=False))

    def test_unsunk_keys_are_pinned(self, tmp_path):
        # Fusion never enters a result key: these are the addresses of
        # the repro-exec-cache/3 key shape, and cached cells must stay
        # reachable under them whichever runs fuse.
        cache = ResultCache(str(tmp_path))
        source = "int main(void) { return 42; }\n"
        assert cache.key_for(source, CompileConfig.named("O")) == (
            "ce62f029ed4ec17060c6d7d53917b193"
            "b4c0ff7747143d70200121eee9ae858b")
        assert cache.key_for(source, CompileConfig.named("g_checked"),
                             stdin="x", gc_interval=7) == (
            "7290e3540ea55b4af10b899e6e974a83"
            "2905285bcbae9975c1eb6f00d94f8537")
