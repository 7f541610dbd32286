"""The headline property: any single recoverable fault leaves the
merged reports byte-identical to the fault-free run.

This is the paper-shaped guarantee the chaos CLI gates on — every task
is a pure function of its payload and the engine merges in canonical
order, so recovery (retries, reassignment, serial fallback) must be
invisible in the output bytes.
"""

import pytest

from repro.api import Toolchain
from repro.bench.tables import render_slowdown_table
from repro.exec.engine import task_timeout_context
from repro.resil import inject, parse_faults

#: Single faults the engine must absorb without a trace in the output.
#: (poison is excluded by design: a task that kills every worker that
#: runs it is a *contained failure*, not a recoverable one.)
RECOVERABLE = [
    "worker_crash@shard1",
    "worker_crash@shard0:2",
    "slow_worker@shard0:2x",
    "task_hang@shard1:0.3s",
    "compile_slow@shard1:2x",
    "pipe_drop@0.3",
    "pipe_garbage@0.3",
    "pipe_drop@1.0",            # forces the serial-fallback path
    "cache_corrupt@1-4",
    "cache_enospc@1-3",
]


def _bench_bytes(workers: int) -> str:
    rows = Toolchain(model="ss10", workers=workers).bench(("tiny",))
    return render_slowdown_table(rows, "t2_ss10", "tiny matrix")


class TestBenchIdentity:
    @pytest.mark.parametrize("spec", RECOVERABLE)
    def test_single_fault_bench_is_byte_identical(self, spec, tiny_workloads):
        reference = _bench_bytes(workers=2)
        plan = parse_faults(spec, seed=0)
        with inject.plan_context(plan), task_timeout_context(5.0):
            faulted = _bench_bytes(workers=2)
        assert faulted == reference

    def test_fault_free_runs_are_stable(self, tiny_workloads):
        assert _bench_bytes(workers=2) == _bench_bytes(workers=2)


class TestFuzzIdentity:
    @pytest.mark.slow
    @pytest.mark.parametrize("spec", [
        "worker_crash@shard1",
        "pipe_drop@0.5",
        "cache_corrupt@1-3",
    ])
    def test_single_fault_campaign_is_byte_identical(self, spec):
        tc = Toolchain(workers=2)
        reference = tc.fuzz(seed=0, iters=4, models=("ss10",)).report()
        plan = parse_faults(spec, seed=0)
        with inject.plan_context(plan), task_timeout_context(10.0):
            faulted = tc.fuzz(seed=0, iters=4, models=("ss10",)).report()
        assert faulted == reference
