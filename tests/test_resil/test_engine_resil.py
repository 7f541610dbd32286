"""Engine recovery under injected faults: retries, quarantine, pipe
loss, hangs, and the serial-fallback last resort.

Every test asserts the headline property first — the merged results are
exactly what the fault-free run produces — and only then inspects the
recovery accounting.
"""

import time

import pytest

from repro.cliutil import obs_session
from repro.exec import engine
from repro.exec.engine import run_sharded, task_timeout_context
from repro.obs import runtime as obs_runtime
from repro.obs.report import render_text, summarize
from repro.obs.tracer import load_jsonl
from repro.resil import inject, parse_faults

WORKERS = 2
PAYLOADS = list(range(8))
CLEAN = [x * x for x in PAYLOADS]


# -- module-level worker functions (must be picklable by name) -------------

def square(x):
    return x * x


def inner_squares(x):
    # An outer task that runs an inline job of its own, with more
    # payloads than the outer job has.
    return run_sharded(list(range(x, x + 8)), square, workers=1).results


def hang_on_three(x):
    if x == 3:
        time.sleep(120)  # a real hang: pinned reruns cannot disarm it
    return x * x


class TestCrashRecovery:
    def test_worker_crash_is_retried_to_full_results(self):
        plan = parse_faults("worker_crash@shard1", seed=0)
        with inject.plan_context(plan):
            merged = run_sharded(PAYLOADS, square, workers=WORKERS)
        assert merged.ok
        assert merged.results == CLEAN
        assert merged.worker_deaths == 1
        assert merged.retries >= 1
        assert merged.rounds == 2
        assert not merged.degraded

    def test_crash_after_quota_loses_only_the_tail(self):
        # The shard-1 worker reports 3 tasks before dying; only the
        # remainder needs the retry round.
        plan = parse_faults("worker_crash@shard1:3", seed=0)
        with inject.plan_context(plan):
            merged = run_sharded(PAYLOADS, square, workers=WORKERS)
        assert merged.results == CLEAN
        assert merged.retries == 1  # exactly one lost task (index 7)

    def test_results_byte_identical_to_fault_free_run(self):
        reference = run_sharded(PAYLOADS, square, workers=WORKERS)
        plan = parse_faults("worker_crash@shard0,slow_worker@shard1:1x",
                            seed=0)
        with inject.plan_context(plan):
            faulted = run_sharded(PAYLOADS, square, workers=WORKERS)
        assert faulted.results == reference.results
        assert repr(faulted.results) == repr(reference.results)


class TestPoisonQuarantine:
    def test_poison_task_quarantined_after_two_pool_deaths(self):
        plan = parse_faults("poison@task4", seed=0)
        with inject.plan_context(plan):
            merged = run_sharded(PAYLOADS, square, workers=WORKERS)
        # Every innocent task recovered; only the poison task failed.
        assert merged.results == [x * x if x != 4 else None for x in PAYLOADS]
        assert merged.quarantined == [4]
        assert [f.index for f in merged.task_failures] == [4]
        failure = merged.task_failures[0]
        assert failure.shard == 4 % WORKERS  # home shard
        assert "poison task" in failure.error
        # Two pool deaths trigger quarantine; the contained pinned rerun
        # is the third.
        assert merged.worker_deaths == 3
        assert not merged.shard_failures

    def test_poison_at_an_inner_index_spares_inline_jobs(self):
        # Inside a worker, an inline job's task indices are not the
        # outer job's: poison@task6 names no outer task, so no worker
        # may die of it.
        plan = parse_faults("poison@task6", seed=0)
        with inject.plan_context(plan):
            merged = run_sharded(list(range(4)), inner_squares,
                                 workers=WORKERS)
        assert merged.ok
        assert merged.results == [[y * y for y in range(x, x + 8)]
                                  for x in range(4)]
        assert merged.worker_deaths == 0
        assert merged.retries == 0

    def test_quarantine_emits_telemetry_instant(self):
        plan = parse_faults("poison@task4", seed=0)
        obs_runtime.enable_tracing()
        try:
            with inject.plan_context(plan):
                run_sharded(PAYLOADS, square, workers=WORKERS)
            names = [e.name for e in obs_runtime.get_tracer().events]
        finally:
            obs_runtime.reset()
        assert "resil.quarantine" in names
        assert "resil.retry" in names
        assert "resil.worker_lost" in names

    def test_obs_summary_gains_resil_section_only_under_faults(
            self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        with obs_session(trace, False, None):
            with inject.plan_context(parse_faults("worker_crash@shard1",
                                                  seed=0)):
                run_sharded(PAYLOADS, square, workers=WORKERS)
        summary = summarize(load_jsonl(trace))
        assert summary["resil"]["worker_deaths"] == 1
        assert summary["resil"]["retries"] >= 1
        assert "resilience:" in render_text(summary)
        # Fault-free traces keep their exact pre-resilience shape.
        assert "resil" not in summarize([])
        with obs_session(trace, False, None):
            run_sharded(PAYLOADS, square, workers=WORKERS)
        assert "resil" not in summarize(load_jsonl(trace))

    def test_poison_reads_the_same_in_every_readout(self, tmp_path):
        # The pinned rerun's death is the third: the run's MergedRun,
        # its registry counters and the trace summary all count it.
        trace = str(tmp_path / "trace.jsonl")
        with obs_session(trace, False, None):
            metrics = obs_runtime.get_metrics()
            with inject.plan_context(parse_faults("poison@task3", seed=0)):
                merged = run_sharded(PAYLOADS, square, workers=WORKERS)
        events = load_jsonl(trace)
        resil = summarize(events)["resil"]
        assert merged.worker_deaths == 3 and merged.quarantined == [3]
        lost = [e["args"] for e in events if e["name"] == "resil.worker_lost"]
        assert len(lost) == 3
        assert lost[-1]["shard"] == -1 and lost[-1]["culprit"] == 3
        assert metrics.get("exec.worker_deaths").value == 3
        assert metrics.get("exec.quarantined").value == 1
        assert resil["worker_deaths"] == 3 and resil["quarantined"] == 1
        assert resil["retries"] == merged.retries
        assert metrics.get("exec.rounds").value == merged.rounds


class TestPipeFaults:
    def test_total_pipe_drop_falls_back_to_serial(self):
        # Every pool message is dropped: retries cannot help, so the
        # engine must degrade to pinned serial workers — which the plan
        # spares — and still produce full results.
        plan = parse_faults("pipe_drop@1.0", seed=0)
        with inject.plan_context(plan):
            merged = run_sharded(PAYLOADS, square, workers=WORKERS)
        assert merged.ok
        assert merged.results == CLEAN
        assert merged.degraded

    def test_partial_pipe_drop_recovers(self):
        plan = parse_faults("pipe_drop@0.4", seed=3)
        with inject.plan_context(plan):
            merged = run_sharded(PAYLOADS, square, workers=WORKERS)
        assert merged.ok
        assert merged.results == CLEAN
        assert merged.dropped_messages >= 1  # a worker finished with holes

    def test_pipe_garbage_recovers(self):
        plan = parse_faults("pipe_garbage@0.5", seed=1)
        with inject.plan_context(plan):
            merged = run_sharded(PAYLOADS, square, workers=WORKERS)
        assert merged.ok
        assert merged.results == CLEAN
        assert merged.worker_deaths >= 1  # a garbled pipe kills its worker


class TestHangs:
    def test_task_hang_caught_by_task_timeout(self):
        plan = parse_faults("task_hang@shard0:30s", seed=0)
        with inject.plan_context(plan), task_timeout_context(0.5):
            merged = run_sharded(PAYLOADS, square, workers=WORKERS)
        assert merged.ok
        assert merged.results == CLEAN
        assert merged.worker_deaths >= 1

    def test_real_hang_is_contained_by_the_pinned_rerun(self):
        # Payload 3 hangs in every worker that runs it, the pinned rerun
        # included; the task timeout ends each of the three.
        with task_timeout_context(1.0):
            merged = run_sharded(PAYLOADS, hang_on_three, workers=WORKERS)
        assert merged.results == [x * x if x != 3 else None
                                  for x in PAYLOADS]
        assert not merged.shard_failures
        assert [f.index for f in merged.task_failures] == [3]
        assert merged.task_failures[0].error.endswith("last: task hung")
        assert merged.quarantined == [3]
        assert merged.worker_deaths == 3

    def test_run_timeout_still_hard_stops(self):
        # The run-level deadline keeps its classic contract: no retries,
        # unfinished shards report "timed out".
        plan = parse_faults("task_hang@shard0:30s", seed=0)
        with inject.plan_context(plan):
            merged = run_sharded(PAYLOADS, square, workers=WORKERS,
                                 timeout=1.0)
        assert not merged.ok
        assert any(f.reason == "timed out" for f in merged.shard_failures)


class TestPolicy:
    def test_task_timeout_context_sets_and_restores(self):
        assert engine._task_timeout is None
        with task_timeout_context(0.25):
            assert engine._task_timeout == 0.25
            with task_timeout_context(None):
                assert engine._task_timeout is None
            assert engine._task_timeout == 0.25
        assert engine._task_timeout is None
        with pytest.raises(RuntimeError):
            with task_timeout_context(3.0):
                raise RuntimeError("block failed")
        assert engine._task_timeout is None

    def test_resil_summary_shape(self):
        plan = parse_faults("worker_crash@shard1", seed=0)
        with inject.plan_context(plan):
            merged = run_sharded(PAYLOADS, square, workers=WORKERS)
        summary = merged.resil_summary()
        assert summary == {"retries": merged.retries,
                           "worker_deaths": merged.worker_deaths,
                           "quarantined": merged.quarantined,
                           "dropped_messages": merged.dropped_messages,
                           "degraded": merged.degraded,
                           "rounds": merged.rounds}


class TestNoPlanIsInert:
    def test_hooks_are_noops_without_a_plan(self):
        assert inject.active_plan() is None
        inject.on_task_start(0)
        inject.on_task_reported(5)
        inject.compile_checkpoint()
        assert inject.filter_cache_read("compile", b"blob") == b"blob"
        inject.check_cache_write("compile")

    def test_parent_process_never_crashes(self):
        # Worker seams are pinned to forked children; in the parent
        # (shard unset) an armed crash must not fire.
        plan = parse_faults("worker_crash@shard0,poison@task0", seed=0)
        with inject.plan_context(plan):
            inject.on_task_start(0)   # would os._exit in a worker
            inject.on_task_reported(99)
        assert True  # still alive
