"""Summary aggregation (``repro-obs-summary/1``) and text rendering,
on synthetic events and on a real recorded run."""

import ast
import inspect

from repro.exec import cache as exec_cache
from repro.gc import Collector
from repro.machine import CompileConfig, VM, compile_source
from repro.machine.models import MODELS
from repro.obs import runtime
from repro.obs.metrics import COUNT_BUCKETS, SIZE_BUCKETS, MetricsRegistry
from repro.obs import report
from repro.obs.report import (SUMMARY_SCHEMA, render_compile_report,
                              render_gc_report, render_percentiles_report,
                              render_text, render_vm_report, summarize)
from repro.obs.tracer import Tracer

PROGRAM = """
int main(void) {
    char *p;
    int i, s = 0;
    for (i = 0; i < 40; i++) {
        p = (char *)GC_malloc(32);
        p[0] = (char)i;
        s += p[0];
    }
    return s & 0xFF;
}
"""


def synthetic_events():
    return [
        {"kind": "span", "name": "compile", "t0": 0, "dur": 1000},
        {"kind": "span", "name": "cfront.parse", "t0": 10, "dur": 200},
        {"kind": "span", "name": "cfront.parse", "t0": 300, "dur": 100},
        {"kind": "span", "name": "opt.local", "t0": 400, "dur": 50,
         "args": {"rewrites": 3, "insts_delta": -2, "changed": True}},
        {"kind": "span", "name": "opt.local", "t0": 500, "dur": 50,
         "args": {"rewrites": 0, "insts_delta": 0, "changed": False}},
        {"kind": "span", "name": "opt.function", "t0": 390, "dur": 200},
        {"kind": "span", "name": "gc.collect", "t0": 600, "dur": 120,
         "args": {"number": 1, "pause_ns": 120, "root_scan_ns": 20,
                  "mark_ns": 40, "sweep_ns": 60, "marked": 7,
                  "reclaimed_objects": 3, "alloc_since_gc": 512,
                  "live_bytes": 2048, "live_objects": 7,
                  "fragmentation": 0.25}},
        {"kind": "span", "name": "gc.collect", "t0": 800, "dur": 80,
         "args": {"number": 2, "pause_ns": 80, "root_scan_ns": 10,
                  "mark_ns": 30, "sweep_ns": 40, "marked": 5,
                  "reclaimed_objects": 2, "alloc_since_gc": 256,
                  "live_bytes": 1024, "live_objects": 5,
                  "fragmentation": 0.5}},
        {"kind": "span", "name": "vm.run", "t0": 550, "dur": 5000,
         "args": {"cycles": 900, "instructions": 800, "collections": 2,
                  "checks": 4}},
        {"kind": "instant", "name": "gc.stats", "t0": 900,
         "args": {"collections": 2, "objects_reclaimed": 5}},
    ]


def synthetic_metrics() -> dict:
    """The registry snapshot a recording embeds next to the spans above."""
    reg = MetricsRegistry()
    for pause, sweep in ((120, 60), (80, 40)):
        reg.histogram("gc.pause_ns").observe(pause)
        reg.histogram("gc.sweep_ns").observe(sweep)
    reg.histogram("vm.run_cycles", bounds=COUNT_BUCKETS,
                  det=True).observe(900)
    reg.histogram("vm.run_wall_ns").observe(5000)
    alloc = reg.histogram("gc.alloc_bytes", bounds=SIZE_BUCKETS, det=True)
    for size in [24] * 30 + [100] * 10:
        alloc.observe(size)
    return reg.to_dict()


def recorded_events():
    """A trace as every writer leaves it: spans plus an embedded
    ``obs.metrics`` snapshot."""
    return synthetic_events() + [
        {"kind": "instant", "name": "obs.metrics", "t0": 999,
         "args": {"metrics": synthetic_metrics()}}]


class TestSummarize:
    def test_schema_and_sections(self):
        s = summarize(synthetic_events())
        assert s["schema"] == SUMMARY_SCHEMA
        assert set(s) >= {"compile", "gc", "vm"}

    def test_compile_aggregation(self):
        s = summarize(synthetic_events())
        comp = s["compile"]
        assert comp["units"] == 1 and comp["total_ns"] == 1000
        assert comp["phases"]["cfront.parse"] == {"ns": 300, "count": 2}
        local = comp["opt_passes"]["local"]
        assert local == {"ns": 100, "runs": 2, "rewrites": 3,
                         "insts_delta": -2, "changed_runs": 1}
        # opt.function is the per-function envelope, not a pass.
        assert "function" not in comp["opt_passes"]

    def test_gc_aggregation(self):
        gc = summarize(synthetic_events())["gc"]
        assert gc["collections"] == 2
        assert gc["pause_ns_total"] == 200
        assert gc["pause_ns_max"] == 120
        assert gc["pause_ns_avg"] == 100
        assert gc["root_scan_ns"] == 30
        assert gc["mark_ns"] == 70
        assert gc["sweep_ns"] == 100
        assert gc["reclaimed_objects"] == 5
        assert gc["live_bytes_last"] == 1024
        assert len(gc["timeline"]) == 2
        assert gc["stats"] == {"collections": 2, "objects_reclaimed": 5}

    def test_vm_aggregation(self):
        vm = summarize(synthetic_events())["vm"]
        assert vm == {"runs": 1, "wall_ns": 5000, "cycles": 900,
                      "instructions": 800, "collections": 2, "checks": 4}

    def test_accepts_trace_events_and_dicts(self):
        tr = Tracer()
        with tr.span("compile"):
            pass
        assert summarize(tr.events)["compile"]["units"] == 1
        assert summarize([e.to_json() for e in tr.events]
                         )["compile"]["units"] == 1


class TestPercentiles:
    def test_embedded_metrics_drive_section(self):
        s = summarize(recorded_events())
        pct = s["percentiles"]
        assert pct["gc.pause_ns"]["count"] == 2
        assert pct["gc.pause_ns"]["max"] == 120
        assert pct["gc.sweep_ns"]["count"] == 2
        assert pct["vm.run_cycles"] == {
            "count": 1, "p50": 900, "p95": 900, "p99": 900, "max": 900}
        assert pct["vm.run_wall_ns"]["max"] == 5000
        assert s["metrics"]["gc.alloc_bytes"]["count"] == 40

    def test_spans_alone_give_no_percentiles(self):
        # Percentiles come from metric histograms only; a trace without
        # an embedded snapshot has no section rather than one rebuilt
        # from span args.
        s = summarize(synthetic_events())
        assert "percentiles" not in s
        assert "metrics" not in s

    def test_metrics_argument_wins_over_embedded(self):
        reg = MetricsRegistry()
        for v in (100, 200, 300, 400):
            reg.histogram("gc.pause_ns").observe(v)
        reg.histogram("vm.run_cycles", bounds=COUNT_BUCKETS,
                      det=True).observe(2_560_902)
        reg.counter("vm.instructions").inc(1_570_004)
        s = summarize(recorded_events(), metrics=reg)
        # The registry drives the section — 4 observations, not the 2
        # of the embedded snapshot.
        assert s["percentiles"]["gc.pause_ns"]["count"] == 4
        assert s["percentiles"]["vm.run_cycles"]["max"] == 2_560_902
        assert s["metrics"]["vm.instructions"]["value"] == 1_570_004

    def test_registry_argument_drives_section(self):
        reg = MetricsRegistry()
        reg.histogram("exec.task_wall_ns").observe(50_000_000)
        s = summarize([], metrics=reg)
        assert s["percentiles"]["exec.task_wall_ns"]["count"] == 1

    def test_render_percentiles(self):
        s = summarize(recorded_events())
        text = render_percentiles_report(s)
        assert "latency percentiles" in text
        assert "gc.pause_ns" in text
        assert "vm.run_cycles" in text
        assert "900" in text              # counts render raw
        assert render_percentiles_report({}) == \
            "percentiles: no histogram data recorded"
        # ...and the full text report includes the section.
        assert "latency percentiles" in render_text(s)


class TestRenderText:
    def test_sections_render(self):
        s = summarize(recorded_events())
        text = render_text(s)
        assert "Compile pipeline" in text
        assert "optimizer passes" in text
        assert "GC: 2 collection(s)" in text
        assert "root-scan" in text
        assert "allocation-size histogram" in text
        assert "VM: 1 run(s)" in text

    def test_alloc_histogram_rows(self):
        lines = render_gc_report(summarize(recorded_events())).splitlines()
        start = lines.index("  allocation-size histogram (bytes -> count):")
        rows = [line.split()[:2] for line in lines[start + 1:]]
        assert rows == [["17-32", "30"], ["65-128", "10"]]
        # No registry snapshot, no histogram.
        assert "allocation-size" not in render_gc_report(
            summarize(synthetic_events()))

    def test_empty_trace_renders(self):
        s = summarize([])
        assert "no collections" in render_gc_report(s)
        assert "no runs" in render_vm_report(s)
        assert "0 unit(s)" in render_compile_report(s)


class TestEndToEndSummary:
    def test_real_run_summary(self):
        tracer = runtime.enable_tracing()
        profile = runtime.enable_profiling()
        config = CompileConfig.named("g_checked", MODELS["ss10"])
        compiled = compile_source(PROGRAM, config)
        result = VM(compiled.asm, config.model, collector=Collector(),
                    gc_interval=100).run()
        runtime.reset()
        s = summarize(tracer.events, profile)
        assert s["compile"]["units"] == 1
        assert s["compile"]["phases"]["cfront.parse"]["count"] == 1
        assert s["vm"]["cycles"] == result.cycles
        assert s["gc"]["collections"] == result.collections > 0
        assert s["profile"]["total_cycles"] == result.cycles
        text = render_text(s, profile)
        assert "VM hot-spot profile" in text

    def test_postprocessing_stages_run_inside_the_compile(self):
        tracer = runtime.enable_tracing()
        config = CompileConfig.named("O_safe", MODELS["ss10"])
        config.peephole = config.sink = True
        compiled = compile_source(PROGRAM, config)
        runtime.reset()
        spans = [e for e in tracer.events if e.kind == "span"]
        names = {e.id: e.name for e in spans}
        stages = [e for e in spans if e.name.startswith("postproc.")]
        assert [(e.name, names[e.parent], e.args) for e in stages] == [
            ("postproc.peephole", "compile",
             {"rewrites": compiled.peephole_stats.total}),
            ("postproc.sink", "compile",
             {"sunk": compiled.sink_stats.sunk,
              "eliminated": compiled.sink_stats.eliminated})]
        phases = summarize(tracer.events)["compile"]["phases"]
        assert phases["postproc.peephole"]["count"] == 1
        assert phases["postproc.sink"]["count"] == 1


class TestOneBookPerCount:
    """Cache outcomes are counted only in ``CacheStats`` and recovery
    actions only in ``MergedRun``; every readout derives from them."""

    def test_cache_tiers_never_touch_the_metrics_registry(self):
        source = inspect.getsource(exec_cache)
        assert "get_metrics" not in source
        assert ".counter(" not in source

    def test_summarize_counts_no_cache_or_resil_instant(self):
        tree = ast.parse(inspect.getsource(report.summarize))
        names = {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str)
                 and node.value.startswith(("cache.", "resil."))}
        # The one cache.* name it reads is the tiers' stats snapshot.
        assert names == {"cache.stats"}

    def test_resil_section_comes_from_the_two_snapshots(self):
        reg = MetricsRegistry()
        reg.counter("exec.worker_deaths", det=False).inc(3)
        reg.counter("exec.degraded", det=False).inc()
        tiers = {"compile": exec_cache.CacheStats(breaker_trips=1).to_dict(),
                 "result": exec_cache.CacheStats(write_errors=2).to_dict()}
        events = [{"kind": "instant", "name": "obs.metrics",
                   "args": {"metrics": reg.to_dict()}},
                  {"kind": "instant", "name": "cache.stats", "args": tiers},
                  # Timeline markers only: none of these is counted.
                  {"kind": "instant", "name": "resil.worker_lost",
                   "args": {}},
                  {"kind": "instant", "name": "cache.breaker_trip",
                   "args": {"kind": "compile"}}]
        assert summarize(events)["resil"] == {
            "retries": 0, "worker_deaths": 3, "quarantined": 0,
            "dropped_messages": 0, "degraded": True, "breaker_trips": 1,
            "cache_write_errors": 2}
        assert "resil" not in summarize(events[2:])
