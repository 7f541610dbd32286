"""Deterministic sharded worker-pool execution with failure recovery.

The model is deliberately simple so that equivalence with the serial
path is provable:

* A job is a list of picklable *payloads* plus a module-level function
  ``fn(payload) -> result`` (it must be importable by name — closures
  cannot cross a process boundary).
* :func:`plan_shards` assigns payload *index* ``i`` to shard
  ``i % workers`` — a pure function of (n, workers), so shard membership
  never depends on timing and any task is independently replayable from
  its index alone.
* Each shard runs in one forked worker process, streaming
  ``(index, result)`` pairs back over a pipe; the parent merges them
  into **canonical payload order**, so downstream reports are
  byte-identical no matter how execution interleaved.
* ``workers <= 1`` executes inline in the calling process through the
  same task loop a worker runs — same containment (per-task exception
  capture), no subprocess — which is what reducer probes pin themselves
  to.

Recovery (always on; one supervisor, :func:`_run_pool_once`, runs every
forked worker):

* A worker dying, hanging past the task timeout, or corrupting its
  pipe loses only its *unreported* tasks — and those are retried, up to
  ``MAX_ROUNDS`` extra rounds with deterministic backoff (``BACKOFF_S``),
  replanned round-robin over fresh workers.  Because every task is a
  pure function of its payload and results merge in canonical order, a
  retried task's result is byte-identical to an untroubled run's.
* Each worker death is attributed to the first unreported task of the
  dead shard (the one it was presumably running).  A task blamed for
  ``MAX_TASK_DEATHS`` deaths is **quarantined**: it runs once more
  pinned alone in a one-shard round, and if it kills that worker too it
  is reported as a contained :class:`TaskFailure` — a poison task costs
  the run one index, never the run.
* Tasks still unfinished when the retry budget runs out run pinned the
  same way, one per process, and the run is flagged as degraded.
* The task timeout (seconds without a worker reporting anything) is the
  one recovery value a caller sets, for a block, with
  :func:`task_timeout_context`; by default there is none.

A run-level ``timeout`` still bounds the whole job: when the deadline
expires, unreported work surfaces as ``ShardFailure("timed out")`` and
no retries are attempted — the budget is gone.

Fault injection: a worker's task loop and pipe sender consult
:mod:`repro.resil.inject` at each seam; an inline run never does.  With
no fault plan installed (always, outside chaos testing) every hook is a
single ``is None`` check.

Telemetry: when the parent's ``repro.obs`` tracer is enabled, each
worker records into a fresh tracer and ships its events home in its
final message; the parent absorbs them as shard-tagged events in one
``repro-obs-trace/1`` stream.  The worker's :mod:`repro.exec.cache`
stats and metrics registry come home and merge the same way.
:class:`MergedRun` is the one book of recovery: a forked run counts
its retries, worker deaths, quarantines, dropped messages, degradation
and rounds there, then adds the totals to the metrics registry once,
as ``exec.*`` counters.  ``resil.*`` instants (worker_lost, retry,
quarantine, dropped_messages, degraded) only mark the trace timeline.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs import clock as obs_clock
from ..obs import metrics as obs_metrics
from ..obs import runtime as obs_runtime
from ..resil import inject as resil_inject
from . import cache as cache_mod

_DEAD_REASONS = ("worker died", "pipe corrupted", "task hung")


class EngineError(RuntimeError):
    """A merged run had failures and the caller demanded success."""


@dataclass
class Task:
    index: int  # canonical merge position
    payload: Any


@dataclass
class ShardPlan:
    workers: int
    shards: list[list[Task]]

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.shards)


#: Retry rounds after the first one, worker deaths that quarantine a
#: task, and the sleep before retry round k (the last value repeats).
MAX_ROUNDS = 2
MAX_TASK_DEATHS = 2
BACKOFF_S = (0.02, 0.05)

_task_timeout: float | None = None


@contextlib.contextmanager
def task_timeout_context(seconds: float | None):
    """Within the block, a worker that reports nothing for ``seconds``
    is taken for hung, and its unreported tasks are retried."""
    global _task_timeout
    previous, _task_timeout = _task_timeout, seconds
    try:
        yield
    finally:
        _task_timeout = previous


@dataclass
class TaskFailure:
    """``fn`` raised for one payload; only that index is lost."""

    index: int
    shard: int
    error: str

    def describe(self) -> str:
        return f"task {self.index} (shard {self.shard}): {self.error}"


@dataclass
class ShardFailure:
    """A worker died or timed out; its unreported indices are lost."""

    shard: int
    reason: str
    lost_indices: list[int]

    def describe(self) -> str:
        return (f"shard {self.shard} {self.reason}: lost tasks "
                f"{self.lost_indices}")


@dataclass
class MergedRun:
    """Shard results merged back into canonical payload order."""

    results: list[Any]  # len == len(payloads); None where failed
    task_failures: list[TaskFailure] = field(default_factory=list)
    shard_failures: list[ShardFailure] = field(default_factory=list)
    workers: int = 1
    # Resilience accounting (informational; never affects results):
    retries: int = 0          # task executions beyond the first round
    worker_deaths: int = 0    # workers lost to death/hang/pipe rot
    quarantined: list[int] = field(default_factory=list)
    dropped_messages: int = 0  # results lost in a completed worker's pipe
    degraded: bool = False    # serial fallback had to finish the job
    rounds: int = 1           # pool rounds actually run

    @property
    def ok(self) -> bool:
        return not self.task_failures and not self.shard_failures

    def describe_failures(self) -> str:
        lines = [f.describe() for f in self.task_failures]
        lines += [f.describe() for f in self.shard_failures]
        return "\n".join(lines)

    def raise_on_failure(self) -> "MergedRun":
        if not self.ok:
            raise EngineError(
                f"sharded run failed ({len(self.task_failures)} task / "
                f"{len(self.shard_failures)} shard failure(s)):\n"
                + self.describe_failures())
        return self

    def resil_summary(self) -> dict:
        return {"retries": self.retries,
                "worker_deaths": self.worker_deaths,
                "quarantined": list(self.quarantined),
                "dropped_messages": self.dropped_messages,
                "degraded": self.degraded,
                "rounds": self.rounds}


def plan_shards(payloads: Sequence[Any], workers: int) -> ShardPlan:
    """Round-robin payload index ``i`` onto shard ``i % workers``."""
    workers = max(1, int(workers))
    shards: list[list[Task]] = [[] for _ in range(workers)]
    for i, payload in enumerate(payloads):
        shards[i % workers].append(Task(i, payload))
    return ShardPlan(workers=workers, shards=shards)


def _run_tasks(tasks: list[Task], fn: Callable[[Any], Any],
               send: Callable[[tuple], Any], shard: int,
               seams: bool) -> None:
    """The one task loop, inline and in a worker: run each task and
    ``send`` its ``("result" | "error", index, value)`` message.

    Only a forked worker passes ``seams``: it may itself run an inline
    job (a campaign shard runs its oracle cells inline), and those inner
    task indices must not reach the fault plan's per-task seams.
    """
    tracer = obs_runtime.get_tracer()
    metrics = obs_runtime.get_metrics()
    clock = obs_clock.get_clock()
    loop_t0 = clock() if metrics is not None else 0
    for sent, task in enumerate(tasks, 1):
        if seams:
            resil_inject.on_task_start(task.index)
        t0 = clock() if metrics is not None else 0
        with tracer.span("exec.task", index=task.index, shard=shard) as sp:
            try:
                msg = ("result", task.index, fn(task.payload))
            except Exception as exc:  # contained: only this task is lost
                msg = ("error", task.index, f"{type(exc).__name__}: {exc}")
                sp.set(error=type(exc).__name__)
                if metrics is not None:
                    metrics.counter("exec.task_errors", det=False).inc()
            send(msg)
        if metrics is not None:
            _observe_task(metrics, t0 - loop_t0, clock() - t0)
        if seams:
            resil_inject.on_task_reported(sent)


def _observe_task(metrics, queue_wait_ns: int, task_wall_ns: int) -> None:
    """Per-task engine metrics, identical for inline and worker paths.
    All exec.* metrics are wall-clock (det=False): serial runs bypass
    the engine entirely, so they can never be part of the deterministic
    worker-count-invariant snapshot."""
    metrics.counter("exec.tasks", det=False).inc()
    metrics.histogram("exec.queue_wait_ns").observe(max(queue_wait_ns, 0))
    metrics.histogram("exec.task_wall_ns").observe(max(task_wall_ns, 0))


def _run_inline(tasks: list[Task], fn: Callable[[Any], Any]) -> MergedRun:
    st = _ShardState(shard=0, tasks=tasks)
    _run_tasks(tasks, fn, lambda msg: _handle_message(msg, st), 0,
               seams=False)
    merged = MergedRun(results=[None] * len(tasks), workers=1)
    for idx, value in st.results.items():
        merged.results[idx] = value
    merged.task_failures = [TaskFailure(idx, 0, error)
                            for idx, error in st.errors]
    return merged


def _worker_main(tasks: list[Task], fn: Callable[[Any], Any],
                 tracing: bool, conn, shard: int, attempt: int,
                 metrics_on: bool) -> None:
    """Worker entry point: run the shard, streaming results home.

    Runs in a forked child.  A fresh tracer is installed so the shard
    records only its own events (the fork inherited the parent's), and
    cache stats are zeroed so the final report is this shard's delta;
    likewise a fresh metrics registry records only this shard's
    observations, shipped home in the final message and merged like
    cache stats.  ``Connection.send`` is synchronous — a completed
    task's result is in the pipe before the next task starts, so even a
    worker that dies mid-shard loses only its *unreported* tasks.
    """
    if tracing:
        obs_runtime.enable_tracing()
    else:
        obs_runtime.disable_tracing()
    metrics = obs_runtime.set_metrics(
        obs_metrics.MetricsRegistry() if metrics_on else None)
    for cache in cache_mod.active_caches():
        cache.stats = cache_mod.CacheStats()
    resil_inject.worker_started(shard, attempt)
    send = resil_inject.wrap_send(conn)
    _run_tasks(tasks, fn, send, shard, seams=True)
    events = ([e.to_json() for e in obs_runtime.get_tracer().sorted_events()]
              if tracing else [])
    send(("done", events, cache_mod.tier_stats(),
          metrics.to_dict() if metrics is not None else {}))
    conn.close()


def run_sharded(payloads: Sequence[Any], fn: Callable[[Any], Any],
                workers: int = 1, timeout: float | None = None,
                label: str = "exec") -> MergedRun:
    """Run ``fn`` over ``payloads`` across ``workers`` processes.

    Results come back merged in payload order (:class:`MergedRun`);
    failures are contained per task / per shard, never raised here —
    call :meth:`MergedRun.raise_on_failure` when partial results are
    unacceptable.  ``workers <= 1`` runs inline; ``timeout`` bounds a
    forked run as a whole.
    """
    payloads = list(payloads)
    tracer = obs_runtime.get_tracer()
    metrics = obs_runtime.get_metrics()
    if metrics is not None:
        metrics.counter("exec.runs", det=False).inc()
        metrics.counter("exec.tasks_total", det=False).inc(len(payloads))
        metrics.gauge("exec.workers").set(max(1, min(int(workers),
                                                     len(payloads) or 1)))
    plan = plan_shards(payloads, workers)
    inline = workers <= 1
    with tracer.span(f"{label}.run_sharded", workers=plan.workers,
                     tasks=plan.total, inline=inline) as sp:
        if inline:
            return _run_inline(plan.shards[0], fn)
        merged = _run_resilient(plan, fn, timeout)
        totals = {name: len(value) if isinstance(value, list) else int(value)
                  for name, value in merged.resil_summary().items()}
        if metrics is not None:
            for name, total in totals.items():
                metrics.counter(f"exec.{name}", det=False).inc(total)
        sp.set(task_failures=len(merged.task_failures),
               shard_failures=len(merged.shard_failures), **totals)
    return merged


@dataclass
class _ShardState:
    """One shard's reporting (a worker's, or an inline run's), pre-merge."""

    shard: int
    tasks: list[Task]
    results: dict[int, Any] = field(default_factory=dict)
    errors: list[tuple[int, str]] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    cache_stats: dict | None = None
    metrics: dict | None = None   # the worker registry's to_dict()
    completed: bool = False       # sent its "done" message
    death_reason: str | None = None

    def reported(self) -> set[int]:
        return set(self.results) | {i for i, _ in self.errors}

    def missing(self) -> list[int]:
        seen = self.reported()
        return [t.index for t in self.tasks if t.index not in seen]


class _Slot:
    """Live bookkeeping for one running worker."""

    def __init__(self, state: _ShardState, proc) -> None:
        self.state = state
        self.proc = proc
        self.last_progress = time.monotonic()


def _handle_message(msg: tuple, st: _ShardState) -> bool:
    """Fold one worker message into its shard state.

    Returns True when this was the shard's final ("done") message.
    """
    kind = msg[0]
    if kind == "result":
        st.results[msg[1]] = msg[2]
    elif kind == "error":
        st.errors.append((msg[1], msg[2]))
    elif kind == "done":
        st.events = msg[1]
        st.cache_stats = msg[2]
        st.metrics = msg[3]
        st.completed = True
        return True
    return False


def _run_pool_once(round_shards: list[tuple[int, list[Task]]],
                   fn: Callable[[Any], Any], attempt: int,
                   deadline: float | None) -> tuple[list[_ShardState], bool]:
    """Run one round of forked workers, one per shard; returns the shard
    states and whether the run's ``deadline`` passed.

    The one worker supervisor: a pinned rerun is a one-shard round with
    shard and attempt -1, which disarms the fault plan's injected pool
    faults (genuine poison still fires).
    """
    tracing = obs_runtime.get_tracer().enabled
    metrics_on = obs_runtime.get_metrics() is not None
    task_timeout = _task_timeout
    ctx = multiprocessing.get_context("fork")
    states: list[_ShardState] = []
    slots: dict[Any, _Slot] = {}  # parent conn -> slot
    procs = []
    for shard_id, tasks in round_shards:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        p = ctx.Process(target=_worker_main,
                        args=(tasks, fn, tracing, child_conn, shard_id,
                              attempt, metrics_on),
                        daemon=True)
        p.start()
        child_conn.close()  # parent's copy — else EOF never arrives
        st = _ShardState(shard=shard_id, tasks=tasks)
        states.append(st)
        procs.append(p)
        slots[parent_conn] = _Slot(st, p)
    timed_out = False
    try:
        while slots:
            if deadline is not None and time.monotonic() >= deadline:
                timed_out = True
                for slot in slots.values():
                    if not slot.state.completed:
                        slot.state.death_reason = "timed out"
                break
            ready = multiprocessing.connection.wait(list(slots),
                                                    timeout=0.05)
            now = time.monotonic()
            for conn in ready:
                slot = slots[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # Worker died; everything it reported is already in.
                    if not slot.state.completed:
                        slot.state.death_reason = "worker died"
                    del slots[conn]
                    conn.close()
                    continue
                except Exception:
                    # Unpicklable bytes: the pipe is rotten, the worker
                    # unusable — cut it loose and let retry recover.
                    slot.state.death_reason = "pipe corrupted"
                    slot.proc.terminate()
                    del slots[conn]
                    conn.close()
                    continue
                slot.last_progress = now
                if _handle_message(msg, slot.state):
                    del slots[conn]
                    conn.close()
            if task_timeout is not None:
                now = time.monotonic()
                for conn, slot in list(slots.items()):
                    if now - slot.last_progress > task_timeout:
                        slot.state.death_reason = "task hung"
                        slot.proc.terminate()
                        del slots[conn]
                        conn.close()
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
        for conn in slots:
            conn.close()
    return states, timed_out


def _run_resilient(plan: ShardPlan, fn: Callable[[Any], Any],
                   timeout: float | None) -> MergedRun:
    tracer = obs_runtime.get_tracer()
    metrics = obs_runtime.get_metrics()
    deadline = None if timeout is None else time.monotonic() + timeout
    merged = MergedRun(results=[None] * plan.total, workers=plan.workers,
                       rounds=0)

    home_shard = {t.index: s for s, shard in enumerate(plan.shards)
                  for t in shard}
    pending: dict[int, Task] = {t.index: t for shard in plan.shards
                                for t in shard}
    results: dict[int, Any] = {}
    failures: dict[int, TaskFailure] = {}
    lost_reason: dict[int, str] = {}
    death_counts: dict[int, int] = {}
    quarantine: dict[int, Task] = {}
    all_states: list[_ShardState] = []
    timed_out = False

    for attempt in range(MAX_ROUNDS + 1):
        if not pending or timed_out:
            break
        if attempt == 0:
            round_shards = [(s, tasks)
                            for s, tasks in enumerate(plan.shards) if tasks]
        else:
            # Deterministic backoff, then replan the survivors
            # round-robin over fresh workers.
            time.sleep(BACKOFF_S[min(attempt - 1, len(BACKOFF_S) - 1)])
            todo = [pending[i] for i in sorted(pending)]
            replan = plan_shards([t.payload for t in todo],
                                 min(plan.workers, len(todo)))
            # Re-label with the original payload indices.
            for shard in replan.shards:
                for slot_task in shard:
                    slot_task.index = todo[slot_task.index].index
            round_shards = [(s, tasks)
                            for s, tasks in enumerate(replan.shards) if tasks]
            merged.retries += len(todo)
            tracer.instant("resil.retry", attempt=attempt, tasks=len(todo))
        merged.rounds += 1
        states, timed_out = _run_pool_once(round_shards, fn, attempt,
                                           deadline)
        all_states.extend(states)
        # Fold in deterministic shard order.
        for st in states:
            for idx, value in st.results.items():
                if idx in pending:
                    results[idx] = value
                    del pending[idx]
            for idx, error in st.errors:
                if idx in pending:
                    failures[idx] = TaskFailure(idx, home_shard[idx], error)
                    del pending[idx]
            missing = [i for i in st.missing() if i in pending]
            if st.death_reason in _DEAD_REASONS:
                merged.worker_deaths += 1
                culprit = missing[0] if missing else None
                tracer.instant("resil.worker_lost", shard=st.shard,
                               attempt=attempt, reason=st.death_reason,
                               lost=len(missing), culprit=culprit)
                if culprit is not None:
                    death_counts[culprit] = death_counts.get(culprit, 0) + 1
                for idx in missing:
                    lost_reason[idx] = st.death_reason
                if (culprit is not None
                        and death_counts[culprit] >= MAX_TASK_DEATHS):
                    quarantine[culprit] = pending.pop(culprit)
                    tracer.instant("resil.quarantine", index=culprit,
                                   deaths=death_counts[culprit])
            elif st.death_reason == "timed out":
                for idx in missing:
                    lost_reason[idx] = "timed out"
            elif missing:
                # Completed worker with holes: messages were dropped in
                # the pipe.  Retry them — no death to attribute.
                merged.dropped_messages += len(missing)
                tracer.instant("resil.dropped_messages", shard=st.shard,
                               attempt=attempt, count=len(missing))
                for idx in missing:
                    lost_reason[idx] = "message dropped"

    def run_pinned(task: Task, context: str) -> None:
        (st,), _ = _run_pool_once([(-1, [task])], fn, -1, None)
        all_states.append(st)
        idx = task.index
        if idx in st.results:
            results[idx] = st.results[idx]
        elif st.errors:
            failures[idx] = TaskFailure(idx, home_shard[idx],
                                        st.errors[0][1])
        else:
            merged.worker_deaths += 1
            tracer.instant("resil.worker_lost", shard=-1, attempt=-1,
                           reason=st.death_reason, lost=1, culprit=idx)
            deaths = death_counts.get(idx, 0) + 1
            failures[idx] = TaskFailure(
                idx, home_shard[idx],
                f"poison task ({context}): killed {deaths} worker(s), "
                f"last: {st.death_reason}")

    if timed_out:
        # Budget exhausted: no recovery attempts.  Unreported work fails
        # per shard, grouped by original shard and loss reason.
        pending.update(quarantine)
        by_key: dict[tuple[int, str], list[int]] = {}
        for idx in sorted(pending):
            key = (home_shard[idx], lost_reason.get(idx, "timed out"))
            by_key.setdefault(key, []).append(idx)
        for (shard, reason), indices in sorted(by_key.items()):
            merged.shard_failures.append(ShardFailure(shard, reason, indices))
    else:
        for idx in sorted(quarantine):
            run_pinned(quarantine.pop(idx), "quarantined rerun")
            merged.quarantined.append(idx)
        if pending:
            merged.degraded = True
            tracer.instant("resil.degraded", tasks=len(pending))
            for idx in sorted(pending):
                run_pinned(pending.pop(idx), "serial fallback")

    for idx, value in results.items():
        merged.results[idx] = value
    merged.task_failures = sorted(failures.values(), key=lambda f: f.index)
    # Absorb shard telemetry + cache counters in execution order (rounds
    # then shards, pinned runs last), so the merged stream is
    # deterministic given deterministic shard streams.
    for st in all_states:
        if st.events and tracer.enabled:
            tracer.absorb(st.events, shard=st.shard)
        if st.cache_stats:
            for kind, stats in st.cache_stats.items():
                cache = cache_mod.active_cache(kind)
                if cache is not None:
                    cache.stats.merge(stats)
        if st.metrics and metrics is not None:
            metrics.merge(st.metrics)
            metrics.counter("exec.shard_tasks", det=False,
                            shard=str(st.shard)).inc(
                len(st.results) + len(st.errors))
    return merged
