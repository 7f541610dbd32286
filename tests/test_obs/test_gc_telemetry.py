"""GC telemetry: pause breakdown spans, heap counters, the metrics
registry's phase and allocation-size histograms, the clock reads of an
unobserved collection, and the always-on GCStats counts (live
bytes/objects, per-kind check counts, reset)."""

import itertools

from repro.gc import Collector
from repro.gc.collector import GCStats
from repro.obs import runtime
from repro.obs.clock import clock_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def collector_with_roots(tracer=None):
    gc = Collector(tracer=tracer)
    roots: list[int] = []
    gc.add_root_provider(lambda: roots)
    return gc, roots


def make_chain(gc, length, link_offset=4):
    head = gc.malloc(8)
    node = head
    for _ in range(length - 1):
        nxt = gc.malloc(8)
        gc.memory.store_word(node + link_offset, nxt)
        node = nxt
    return head


class TestCollectSpan:
    def test_traced_collection_has_pause_breakdown(self):
        tracer = Tracer()
        gc, roots = collector_with_roots(tracer)
        roots.append(make_chain(gc, 10))
        make_chain(gc, 5)  # garbage
        gc.collect()
        spans = [e for e in tracer.events if e.name == "gc.collect"]
        assert len(spans) == 1
        args = spans[0].args
        assert args["number"] == 1
        assert args["reclaimed_objects"] == 5
        assert args["live_objects"] == 10
        assert args["live_bytes"] == gc.heap.bytes_in_use
        # The phase breakdown is populated and bounded by the pause.
        assert args["pause_ns"] > 0
        for phase in ("root_scan_ns", "mark_ns", "sweep_ns"):
            assert 0 <= args[phase] <= args["pause_ns"]
        assert args["marked"] >= 10
        assert 0.0 <= args["fragmentation"] <= 1.0

    def test_heap_counters_emitted(self):
        tracer = Tracer()
        gc, roots = collector_with_roots(tracer)
        make_chain(gc, 5)
        gc.collect()
        names = {e.name for e in tracer.events if e.kind == "counter"}
        assert {"gc.live_bytes", "gc.live_objects", "gc.fragmentation",
                "gc.pause_ns"} <= names

    def test_untraced_collection_emits_nothing(self):
        gc, roots = collector_with_roots()  # default disabled tracer
        make_chain(gc, 5)
        gc.collect()
        assert gc.tracer.enabled is False
        assert gc.tracer.events == []

    def test_unobserved_collection_reads_no_clock(self):
        gc, roots = collector_with_roots()  # no tracer, no registry
        roots.append(make_chain(gc, 10))
        make_chain(gc, 5)
        reads = []

        def counting_clock():
            reads.append(1)
            return 0

        with clock_context(counting_clock):
            assert gc.collect() == 5
            gc.collect()
        assert reads == []
        assert gc.stats.collections == 2

    def test_span_phases_equal_histogram_sums(self):
        ticks = itertools.count(0, 1000)
        with clock_context(lambda: next(ticks)):
            tracer = Tracer()
            registry = runtime.set_metrics(MetricsRegistry())
            gc, roots = collector_with_roots(tracer)
            roots.append(make_chain(gc, 10))
            make_chain(gc, 5)
            gc.collect()
        (span,) = [e for e in tracer.events if e.name == "gc.collect"]
        for phase in ("pause", "root_scan", "mark", "sweep"):
            hist = registry.get(f"gc.{phase}_ns")
            assert hist.count == 1
            assert span.args[f"{phase}_ns"] == hist.sum > 0
        assert span.args["pause_ns"] == sum(
            span.args[f"{phase}_ns"] for phase in ("root_scan", "mark",
                                                   "sweep"))

    def test_traced_and_untraced_reclaim_identically(self):
        plain, proots = collector_with_roots()
        traced, troots = collector_with_roots(Tracer())
        for gc, roots in ((plain, proots), (traced, troots)):
            roots.append(make_chain(gc, 12))
            make_chain(gc, 7)
        assert plain.collect() == traced.collect()
        assert plain.heap.objects_in_use == traced.heap.objects_in_use
        assert plain.stats.live_bytes == traced.stats.live_bytes


class TestGCStatsExtensions:
    def test_live_bytes_tracked_without_tracer(self):
        gc, roots = collector_with_roots()
        roots.append(make_chain(gc, 10))
        make_chain(gc, 5)
        gc.collect()
        assert gc.stats.live_objects == 10
        assert gc.stats.live_bytes == gc.heap.bytes_in_use

    def test_pause_breakdown_accumulates(self):
        registry = runtime.set_metrics(MetricsRegistry())
        gc, roots = collector_with_roots()
        for _ in range(3):
            make_chain(gc, 5)
            gc.collect()
        assert gc.stats.collections == 3
        pause, root_scan, mark, sweep = (
            registry.get(f"gc.{phase}_ns")
            for phase in ("pause", "root_scan", "mark", "sweep"))
        assert pause.count == root_scan.count == mark.count == sweep.count == 3
        assert root_scan.sum + mark.sum + sweep.sum == pause.sum > 0

    def test_check_kind_attribution(self):
        gc, _roots = collector_with_roots()
        p = gc.malloc(32)
        gc.same_obj(p, p + 8)
        gc.check_base(p)
        gc.pre_incr(p, 4)
        gc.post_incr(p, 4)
        s = gc.stats
        assert s.same_obj_checks == 1
        assert s.base_checks == 1
        assert s.incr_checks == 2
        assert s.checks_performed == 4

    def test_reset(self):
        gc, roots = collector_with_roots()
        make_chain(gc, 5)
        gc.collect()
        assert gc.stats.collections == 1
        gc.stats.reset()
        assert gc.stats == GCStats()

    def test_alloc_histogram_only_with_registry(self):
        gc, _ = collector_with_roots(Tracer())
        gc.malloc(24)  # no registry: tracing alone records no sizes
        registry = runtime.set_metrics(MetricsRegistry())
        gc.malloc(24)          # bucket (16, 32]
        gc.malloc(24)
        gc.malloc_atomic(100)  # bucket (64, 128]
        runtime.set_metrics(None)
        gc.malloc(24)
        hist = registry.get("gc.alloc_bytes")
        assert hist.det is True
        assert (hist.count, hist.sum) == (3, 148)
        assert hist.counts[hist.bounds.index(32)] == 2
        assert hist.counts[hist.bounds.index(128)] == 1
