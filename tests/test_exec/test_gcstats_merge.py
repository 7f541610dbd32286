"""GCStats serialization + merge (satellite): collector counters are
process-local, so sharded campaigns must fold worker snapshots into the
parent explicitly — and the fold must reproduce serial aggregates."""

import dataclasses

from repro.fuzz.campaign import run_campaign
from repro.gc.collector import GCStats
from repro.obs import runtime
from repro.obs.metrics import MetricsRegistry

from .conftest import WORKERS

# GCStats holds simulated counts only; wall-clock pause times live in
# the gc.collect span and the registry's gc.*_ns histograms.
SIMULATED_COUNTS = {
    "collections", "bytes_allocated", "objects_allocated",
    "objects_reclaimed", "bytes_reclaimed", "marked_last_gc",
    "checks_performed", "live_bytes", "live_objects",
    "same_obj_checks", "incr_checks", "base_checks",
}


class TestMergeUnit:
    def test_fields_are_the_simulated_counts(self):
        assert {f.name for f in dataclasses.fields(GCStats)} == \
            SIMULATED_COUNTS
        assert set(GCStats().to_dict()) == SIMULATED_COUNTS

    def test_merge_is_a_fieldwise_sum(self):
        a = GCStats(**{name: i for i, name in
                       enumerate(sorted(SIMULATED_COUNTS), 1)})
        b = GCStats(**{name: 100 * i for i, name in
                       enumerate(sorted(SIMULATED_COUNTS), 1)})
        assert a.merge(b) is a
        assert a.to_dict() == {name: 101 * i for i, name in
                               enumerate(sorted(SIMULATED_COUNTS), 1)}

    def test_counters_are_additive(self):
        a = GCStats(collections=2, same_obj_checks=10, incr_checks=3,
                    base_checks=1, bytes_allocated=256)
        b = GCStats(collections=1, same_obj_checks=5, incr_checks=7,
                    bytes_allocated=64)
        a.merge(b)
        assert a.collections == 3
        assert a.same_obj_checks == 15
        assert a.incr_checks == 10
        assert a.base_checks == 1
        assert a.bytes_allocated == 320

    def test_dict_roundtrip(self):
        a = GCStats(collections=4, same_obj_checks=11, live_bytes=7)
        d = a.to_dict()
        # The snapshot is picklable-simple: plain ints, exactly what
        # crosses the worker pipe.
        assert all(type(v) is int for v in d.values())
        assert GCStats().merge(d) == a

    def test_merge_accepts_raw_dict(self):
        a = GCStats()
        a.merge({"collections": 2, "same_obj_checks": 3})
        assert a.collections == 2
        assert a.same_obj_checks == 3


class TestShardedAggregates:
    def _campaign(self, workers: int):
        registry = runtime.set_metrics(MetricsRegistry())
        try:
            return run_campaign(seed=0, iters=4, models=("ss10",),
                                stop_after=None, workers=workers), registry
        finally:
            runtime.set_metrics(None)

    def test_sharded_campaign_reports_serial_gc_totals(self):
        # Regression (satellite fix): before GCStats.merge, a sharded
        # campaign silently dropped every worker's collector counters —
        # the aggregate check accounting only reflected the parent
        # process.  Now the totals must match exactly.
        serial, serial_metrics = self._campaign(1)
        sharded, sharded_metrics = self._campaign(WORKERS)
        assert serial.iterations == sharded.iterations == 4
        assert serial.cells == sharded.cells
        assert serial.gc_totals == sharded.gc_totals
        # The campaign exercised the checked config, so the counters the
        # paper cares about are non-trivially non-zero.
        totals = serial.gc_totals
        assert totals.checks_performed > 0
        assert totals.same_obj_checks > 0
        assert totals.collections > 0
        # Every collection lands one pause in the registry's histogram
        # (its bucket *distribution* is wall-dependent), serial and
        # sharded alike.
        for registry in (serial_metrics, sharded_metrics):
            assert registry.get("gc.pause_ns").count == totals.collections
