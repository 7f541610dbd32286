"""Deterministic sharded execution engine + content-addressed caches.

``repro.exec`` is the scaling layer under every driver in the repo: the
benchmark harness (``repro.bench``), the differential fuzzing campaign
(``repro.fuzz``), and the oracle itself all shard their embarrassingly
parallel cell matrices through :func:`engine.run_sharded`, and the
compile pipeline memoizes linked :class:`~repro.machine.driver.CompiledProgram`
objects through :class:`cache.CompileCache`.

The contract that makes both safe is the repo's core invariant: every
measured quantity (cycles, instructions, GC check counts, collections,
program output) is a deterministic function of the inputs — so results
computed in a worker process, or replayed from an on-disk cache entry,
are *bit-identical* to the serial, cold path.  ``tests/test_exec``
asserts that equivalence end to end.
"""

from .cache import (  # noqa: F401
    CacheStats, CompileCache, ResultCache, active_cache, cache_context,
    salt_context,
)
from .engine import (  # noqa: F401
    EngineError, MergedRun, ShardFailure, ShardPlan, TaskFailure,
    plan_shards, run_sharded, task_timeout_context,
)
