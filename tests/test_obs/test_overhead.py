"""The no-op fast path, guarded structurally: with telemetry disabled
the instrumented subsystems record nothing — no events, no wrapped
closures, no clock reads — so the only residual cost is one attribute
test per instrumented site.  A generous
micro-benchmark bound backs that up without being timing-flaky; the
real <2% wall-clock budget on cfrac is enforced by
``benchmarks/check_obs_overhead.py`` in CI."""

import time

from repro.gc import Collector
from repro.machine import CompileConfig, VM, compile_source
from repro.machine.models import MODELS
from repro.obs import runtime
from repro.obs.clock import clock_context
from repro.obs.tracer import NULL_SPAN, Tracer

PROGRAM = """
int main(void) {
    char *p = (char *)GC_malloc(64);
    int i;
    for (i = 0; i < 32; i++) p[i] = (char)i;
    return p[31];
}
"""


class TestStructuralNoOp:
    def test_default_runtime_is_disabled(self):
        assert runtime.tracing_enabled() is False
        assert runtime.profiling_enabled() is False
        assert runtime.session_profile() is None

    def test_vm_closures_not_wrapped_when_disabled(self):
        config = CompileConfig.named("O_safe", MODELS["ss10"])
        compiled = compile_source(PROGRAM, config)
        plain = VM(compiled.asm, config.model, collector=Collector())
        assert plain._profile is None
        profiled = VM(compiled.asm, config.model, collector=Collector(),
                      profile=runtime.enable_profiling())
        runtime.reset()
        # The profiled VM wraps every closure; the plain VM must reuse
        # the unwrapped ones (same count, different functions).
        for name in plain._ops:
            assert len(plain._ops[name]) == len(profiled._ops[name])
        wrapped = [op.__qualname__ for op in profiled._ops["main"]]
        unwrapped = [op.__qualname__ for op in plain._ops["main"]]
        assert all("_wrap_profiled" in q for q in wrapped)
        assert not any("_wrap_profiled" in q for q in unwrapped)

    def test_run_records_no_events_when_disabled(self):
        config = CompileConfig.named("g_checked", MODELS["ss10"])
        compiled = compile_source(PROGRAM, config)
        collector = Collector()
        vm = VM(compiled.asm, config.model, collector=collector,
                gc_interval=50)
        reads = []
        with clock_context(lambda: reads.append(1) or 0):
            result = vm.run()
        assert result.collections > 0
        assert runtime.get_tracer().events == []
        assert reads == []  # no phase timing, no run wall time
        # The always-on GCStats counts still fill in.
        assert collector.stats.live_bytes == collector.heap.bytes_in_use


class TestMicroOverhead:
    def test_disabled_span_is_cheap(self):
        """A disabled span() is one attribute test plus returning a
        pre-allocated singleton; bound it very generously (5us/call on
        average) so the test never flakes while still catching an
        accidentally-enabled slow path (which costs >20x more)."""
        tr = Tracer(enabled=False)
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            sp = tr.span("x", a=1)
        t1 = time.perf_counter()
        assert sp is NULL_SPAN
        assert (t1 - t0) / n < 5e-6
        assert tr.events == []

    def test_disabled_counter_and_instant_are_cheap(self):
        tr = Tracer(enabled=False)
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            tr.counter("c", 1)
            tr.instant("i")
        t1 = time.perf_counter()
        assert (t1 - t0) / n < 5e-6
        assert tr.events == []
