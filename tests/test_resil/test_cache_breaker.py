"""Cache circuit breaker and write tolerance — a rotten cache directory
must degrade throughput, never correctness."""

import pytest

from repro.cliutil import obs_session
from repro.exec.cache import CompileCache, cache_context
from repro.obs import runtime as obs_runtime
from repro.obs.report import summarize
from repro.obs.tracer import load_jsonl
from repro.resil import inject, parse_faults


@pytest.fixture
def cache(tmp_path):
    return CompileCache(str(tmp_path / "compile"))


def _store(cache, n):
    keys = []
    for i in range(n):
        key = "%064x" % (i + 1)
        cache.put(key, {"value": i})
        keys.append(key)
    return keys


def _rot(cache, key):
    path = cache._path(key)
    with open(path, "r+b") as fh:
        fh.seek(12)
        fh.write(b"\xff\xff\xff\xff")


class TestBreaker:
    def test_trips_after_threshold_consecutive_corrupt_reads(self, cache, capsys):
        keys = _store(cache, 4)
        for key in keys[:3]:
            _rot(cache, key)
        for key in keys[:2]:
            assert cache.get(key) is None
            assert not cache.breaker_open
        assert cache.get(keys[2]) is None  # third strike
        assert cache.breaker_open
        assert cache.stats.breaker_trips == 1
        assert "circuit breaker open" in capsys.readouterr().err

    def test_open_breaker_bypasses_the_tier(self, cache, capsys):
        keys = _store(cache, 3)
        for key in keys:
            _rot(cache, key)
            cache.get(key)
        assert cache.breaker_open
        capsys.readouterr()
        # Every lookup is now a recorded miss with no disk IO; stores
        # are skipped — and an intact entry on disk stays unread.
        good_key = "%064x" % 99
        cache.put(good_key, {"value": 99})
        assert cache.stats.stores == 3  # the put was skipped
        misses = cache.stats.misses
        assert cache.get(good_key) is None
        assert cache.stats.misses == misses + 1
        assert capsys.readouterr().err == ""  # warning printed only once

    def test_hit_resets_the_corrupt_streak(self, cache):
        keys = _store(cache, 4)
        _rot(cache, keys[0])
        _rot(cache, keys[1])
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is None
        assert cache.get(keys[2]) == {"value": 2}  # streak broken
        _rot(cache, keys[3])
        assert cache.get(keys[3]) is None
        assert not cache.breaker_open  # 2 + 1, never 3 consecutive

    def test_reset_breaker_rearms_the_tier(self, cache):
        keys = _store(cache, 3)
        for key in keys:
            _rot(cache, key)
            cache.get(key)
        assert cache.breaker_open
        cache.reset_breaker()
        assert not cache.breaker_open
        key = "%064x" % 50
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"

    def test_trip_emits_telemetry_instant(self, cache):
        keys = _store(cache, 3)
        obs_runtime.enable_tracing()
        try:
            for key in keys:
                _rot(cache, key)
                cache.get(key)
            names = [e.name for e in obs_runtime.get_tracer().events]
        finally:
            obs_runtime.reset()
        assert "cache.breaker_trip" in names


class TestInjectedFaults:
    def test_cache_corrupt_plan_trips_the_breaker(self, cache):
        keys = _store(cache, 5)
        # Reads 1-3 in this process hand back corrupted bytes.
        plan = parse_faults("cache_corrupt@1-3", seed=0)
        with inject.plan_context(plan):
            for key in keys[:3]:
                assert cache.get(key) is None
            assert cache.breaker_open
        # The entries themselves were evicted (checksum failed), which
        # is exactly what on-disk rot would do.
        assert cache.stats.corrupt_evicted == 3

    def test_enospc_plan_is_tolerated(self, cache):
        plan = parse_faults("cache_enospc@1-2", seed=0)
        with inject.plan_context(plan):
            cache.put("%064x" % 1, "a")   # fails, swallowed
            cache.put("%064x" % 2, "b")   # fails, swallowed
            cache.put("%064x" % 3, "c")   # disk is "back"
        assert cache.stats.write_errors == 2
        assert cache.stats.stores == 1
        assert cache.get("%064x" % 3) == "c"

    def test_write_error_never_raises(self, cache, monkeypatch):
        import tempfile as _tempfile
        def boom(*a, **k):
            raise OSError(28, "no space left on device")
        monkeypatch.setattr(_tempfile, "mkstemp", boom)
        cache.put("%064x" % 1, "value")  # must not raise
        assert cache.stats.write_errors == 1

    def test_stats_dict_carries_resilience_counters(self, cache):
        d = cache.stats.to_dict()
        assert "breaker_trips" in d and "write_errors" in d

    def test_corrupt_read_reads_the_same_in_every_readout(self, cache,
                                                          tmp_path):
        key, = _store(cache, 1)
        trace = str(tmp_path / "trace.jsonl")
        with cache_context(cache), obs_session(trace, False, None), \
                inject.plan_context(parse_faults("cache_corrupt@1", seed=0)):
            assert cache.get(key) is None
        assert (cache.stats.misses, cache.stats.corrupt_evicted) == (1, 1)
        events = load_jsonl(trace)
        tiers, = [e["args"] for e in events if e["name"] == "cache.stats"]
        assert tiers == {"compile": cache.stats.to_dict()}
        # The eviction marks the timeline; no readout sums the marker.
        assert [e["name"] for e in events
                if e["name"].startswith("cache.")] == ["cache.evict",
                                                       "cache.stats"]
        summary = summarize(events)
        assert "cache" not in summary and "resil" not in summary
