"""Engine mechanics: deterministic sharding, canonical merge, and
crash/timeout containment."""

import os
import time

import pytest

from repro.exec import cache as exec_cache
from repro.exec.engine import EngineError, plan_shards, run_sharded
from repro.machine.driver import CompileConfig, compile_source
from repro.obs import runtime as obs_runtime

from .conftest import WORKERS


# -- module-level worker functions (must be picklable by name) -------------

def square(x):
    return x * x


def fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return x


def die_on_three(x):
    if x == 3:
        os._exit(17)  # hard death: no exception, no cleanup
    return x


def sleep_on_one(x):
    if x == 1:
        time.sleep(120)
    return x


def traced_task(x):
    tracer = obs_runtime.get_tracer()
    with tracer.span("test.task", payload=x):
        pass
    return x


def compile_task(source):
    compiled = compile_source(source, CompileConfig.named("O"))
    return compiled.asm.code_size()


class TestShardPlan:
    def test_round_robin_by_index(self):
        plan = plan_shards(list("abcdefg"), 3)
        assert plan.workers == 3
        assert [[t.index for t in s] for s in plan.shards] == [
            [0, 3, 6], [1, 4], [2, 5]]
        assert plan.total == 7

    def test_shard_membership_is_pure_function_of_count(self):
        a = plan_shards(range(20), 4)
        b = plan_shards(range(20), 4)
        assert [[t.index for t in s] for s in a.shards] == \
               [[t.index for t in s] for s in b.shards]

    def test_single_worker_single_shard(self):
        plan = plan_shards(range(5), 1)
        assert len(plan.shards) == 1
        assert [t.index for t in plan.shards[0]] == [0, 1, 2, 3, 4]


class TestMerge:
    def test_inline_results_in_payload_order(self):
        merged = run_sharded([3, 1, 2], square, workers=1)
        assert merged.ok
        assert merged.results == [9, 1, 4]

    def test_parallel_results_in_payload_order(self):
        payloads = list(range(11))
        merged = run_sharded(payloads, square, workers=WORKERS)
        assert merged.ok
        assert merged.results == [x * x for x in payloads]

    def test_parallel_matches_inline(self):
        payloads = list(range(7))
        inline = run_sharded(payloads, square, workers=1)
        parallel = run_sharded(payloads, square, workers=WORKERS)
        assert inline.results == parallel.results

    def test_empty_payloads(self):
        assert run_sharded([], square, workers=WORKERS).results == []


class TestContainment:
    def test_task_exception_poisons_only_that_task_inline(self):
        merged = run_sharded([0, 1, 2, 3], fail_on_odd, workers=1)
        assert not merged.ok
        assert merged.results == [0, None, 2, None]
        assert [f.index for f in merged.task_failures] == [1, 3]
        assert "ValueError" in merged.task_failures[0].error

    def test_task_exception_poisons_only_that_task_parallel(self):
        merged = run_sharded([0, 1, 2, 3], fail_on_odd, workers=2)
        assert merged.results == [0, None, 2, None]
        assert [f.index for f in merged.task_failures] == [1, 3]
        assert not merged.shard_failures

    def test_raise_on_failure(self):
        merged = run_sharded([1], fail_on_odd, workers=1)
        with pytest.raises(EngineError, match="odd payload 1"):
            merged.raise_on_failure()

    def test_worker_death_quarantines_the_culprit_task(self):
        # Payload 3 kills every worker that runs it.  The engine retries
        # the lost tasks, attributes the deaths to index 3, quarantines
        # it after the second kill, and contains the pinned rerun's death
        # as a task failure — the innocent co-shard tasks all recover.
        merged = run_sharded(list(range(8)), die_on_three, workers=2)
        assert merged.results[0::2] == [0, 2, 4, 6]
        assert merged.results[1] == 1
        assert merged.results[3] is None
        assert merged.results[5] == 5 and merged.results[7] == 7
        assert not merged.shard_failures
        assert [f.index for f in merged.task_failures] == [3]
        failure = merged.task_failures[0]
        assert failure.shard == 1  # home shard, for deterministic reports
        assert "poison task" in failure.error
        assert merged.worker_deaths >= 2
        assert merged.quarantined == [3]
        with pytest.raises(EngineError, match="poison task"):
            merged.raise_on_failure()

    def test_timeout_poisons_unfinished_shards(self):
        merged = run_sharded(list(range(4)), sleep_on_one, workers=2,
                             timeout=2.0)
        assert merged.results[0::2] == [0, 2]
        assert any(f.reason == "timed out" for f in merged.shard_failures)
        lost = [i for f in merged.shard_failures for i in f.lost_indices]
        assert 1 in lost or 3 in lost


class TestTelemetryMerge:
    def test_worker_spans_come_home_shard_tagged(self):
        obs_runtime.enable_tracing()
        try:
            merged = run_sharded(list(range(6)), traced_task, workers=2)
            assert merged.ok
            tracer = obs_runtime.get_tracer()
            tagged = [e for e in tracer.events
                      if e.name == "test.task" and "shard" in e.args]
            assert len(tagged) == 6
            assert {e.args["shard"] for e in tagged} == {0, 1}
            # Shard-tagged payloads cover every task exactly once.
            assert sorted(e.args["payload"] for e in tagged) == list(range(6))
            # Span ids were re-based: no duplicate ids in the merged stream.
            ids = [e.id for e in tracer.events if e.kind == "span" and e.id]
            assert len(ids) == len(set(ids))
        finally:
            obs_runtime.reset()

    def test_disabled_tracer_collects_nothing(self):
        merged = run_sharded(list(range(4)), traced_task, workers=2)
        assert merged.ok
        assert obs_runtime.get_tracer().events == []


class TestCacheStatsMerge:
    def test_worker_cache_counters_merge_into_parent(self, cache_root):
        sources = [f"int main(void) {{ return {n}; }}" for n in range(6)]
        cache = exec_cache.CompileCache(cache_root)
        with exec_cache.cache_context(cache):
            cold = run_sharded(sources, compile_task, workers=2)
            assert cold.ok
            assert cache.stats.misses == 6
            assert cache.stats.stores == 6
            assert cache.stats.hits == 0
            warm = run_sharded(sources, compile_task, workers=2)
            assert warm.results == cold.results
            assert cache.stats.hits == 6
