"""The async daemon: admission -> fair queue -> one executor.

Concurrency model, chosen for byte-identity first:

* The **event loop** (own thread when started via
  :func:`start_in_thread`) accepts any number of keep-alive client
  connections and runs admission control inline — rejections are
  cheap and typed.
* Admitted jobs land in per-tenant FIFO queues.  The **scheduler**
  drains them in batches, round-robin across tenants (one job per
  tenant per pass), so a flood from one tenant cannot starve another.
* Every job body runs on a **single dedicated executor thread** in
  submission order.  Parallelism lives *below* that thread, in the
  sharded fork-based exec engine (``workers=N``) — exactly where the
  repo has already proven canonical-order merges byte-identical.  The
  daemon therefore inherits the engine's resilience policies (retry /
  quarantine / serial degradation) and the process-wide
  content-addressed caches, warm and shared across tenants.

Control methods (``health``, ``metrics``, ``shutdown``) answer inline
from the loop and bypass admission: you can always ask a saturated
daemon how saturated it is.

``serve.*`` telemetry (:mod:`repro.obs.metrics`): request/admission
counters (det), ``serve.queue_depth`` gauge, and wall histograms
``serve.queue_wait_ns`` / ``serve.task_wall_ns{tenant=}`` /
``serve.request_ns{method=}`` — the p50/p99 surface the load
generator's SLO report reads.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import threading
from dataclasses import dataclass

from ..api import envelopes
from ..exec import cache as exec_cache
from ..exec import engine
from ..obs import clock as obs_clock
from ..obs import metrics as metrics_mod
from ..obs import runtime as obs_runtime
from . import protocol
from .jobs import HANDLERS, JobDefaults, JobError, run_job
from .quota import AdmissionController, TenantQuota

#: job-count histogram bounds for serve.batch_jobs.
_BATCH_BOUNDS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class ServeConfig:
    """Everything a daemon instance is allowed to know at start."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral, see Daemon.port
    model: str = "ss10"
    workers: int = 1                   # exec-engine shards per job
    cache_dir: str | None = None       # shared warm cache root
    batch_size: int = 8                # max jobs per scheduler pass
    max_queue_depth: int = 64
    tenant_inflight: int = 8
    tenant_jobs: int | None = None     # lifetime budget per tenant
    task_timeout: float | None = None  # engine hang sweep per job
    max_instructions: int = 500_000_000

    def defaults(self) -> JobDefaults:
        return JobDefaults(model=self.model, workers=self.workers,
                           max_instructions=self.max_instructions)


@dataclass
class _Job:
    job_id: int
    tenant: str
    method: str
    params: dict
    request: dict
    future: asyncio.Future
    enqueue_ns: int = 0


class Daemon:
    def __init__(self, config: ServeConfig | None = None,
                 metrics: metrics_mod.MetricsRegistry | None = None):
        self.config = config or ServeConfig()
        # Explicit None checks: a fresh registry is empty and len()-falsy,
        # and it must still win over the ambient one.
        if metrics is None:
            metrics = obs_runtime.get_metrics()
        if metrics is None:
            metrics = metrics_mod.MetricsRegistry()
        self.metrics = metrics
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            default_quota=TenantQuota(
                max_inflight=self.config.tenant_inflight,
                max_jobs=self.config.tenant_jobs))
        self.port: int | None = None
        self.jobs_done = 0
        self._defaults = self.config.defaults()
        self._clock = obs_clock.get_clock()
        self._pending: dict[str, collections.deque[_Job]] = {}
        self._tenant_order: list[str] = []
        self._rr = 0
        self._next_id = 1
        self._job_ready: asyncio.Event | None = None
        self._stopping: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    # -- metrics shorthands ----------------------------------------------

    def _count(self, name: str, **labels) -> None:
        self.metrics.counter(name, **labels).inc()

    def _observe(self, name: str, value: int, **labels) -> None:
        self.metrics.histogram(name, det=False, **labels).observe(value)

    def _gauge_depth(self) -> None:
        self.metrics.gauge("serve.queue_depth").set(self.admission.queued)

    # -- lifecycle --------------------------------------------------------

    async def run(self, ready: threading.Event | None = None) -> None:
        """Serve until ``shutdown`` (RPC or :meth:`request_stop`);
        drains admitted jobs before returning."""
        self._loop = asyncio.get_running_loop()
        self._job_ready = asyncio.Event()
        self._stopping = asyncio.Event()
        caches = (exec_cache.open_caches(self.config.cache_dir)
                  if self.config.cache_dir else ())
        with exec_cache.cache_context(*caches):
            server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port)
            self.port = server.sockets[0].getsockname()[1]
            scheduler = asyncio.ensure_future(self._scheduler())
            if ready is not None:
                ready.set()
            try:
                await self._stopping.wait()
            finally:
                server.close()
                await server.wait_closed()
                self._job_ready.set()        # wake the scheduler to drain
                await scheduler
                for writer in list(self._writers):
                    with contextlib.suppress(ConnectionError):
                        writer.close()       # unblock idle keep-alive readers
                await asyncio.sleep(0)

    def request_stop(self) -> None:
        """Thread-safe shutdown trigger (used by :class:`DaemonHandle`)."""
        if self._loop is not None and self._stopping is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    req = await protocol.read_http_request(reader)
                except protocol.ProtocolError:
                    break                       # not our dialect; hang up
                if req is None:
                    break                       # clean keep-alive close
                method, path, _headers, body = req
                doc = await self._dispatch_http(method, path, body)
                if doc is None:                 # 404/405, non-envelope
                    writer.write(protocol.encode_http_response(
                        404, b'{"error": "not found"}\n', keep_alive=False))
                    await writer.drain()
                    break
                writer.write(protocol.encode_http_response(
                    protocol.http_status(doc), protocol.encode_doc(doc)))
                await writer.drain()
                if self._stopping is not None and self._stopping.is_set():
                    break                       # shutting down: no keep-alive
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _dispatch_http(self, http_method: str, path: str,
                             body: bytes) -> dict | None:
        if http_method == "GET" and path in ("/healthz", "/health"):
            return self._health_envelope()
        if http_method != "POST" or path != "/rpc":
            return None
        t0 = self._clock()
        try:
            request = protocol.parse_request_envelope(body)
        except envelopes.EnvelopeError as exc:
            self._count("serve.errors", code=protocol.ERROR_BAD_REQUEST)
            return protocol.make_error(protocol.ERROR_BAD_REQUEST, str(exc))
        doc = await self._dispatch_rpc(request)
        self._observe("serve.request_ns", self._clock() - t0,
                      method=request["method"])
        return doc

    async def _dispatch_rpc(self, request: dict) -> dict:
        method = request["method"]
        self._count("serve.requests", method=method)
        if method == "health":
            return protocol.make_response(request, self._health_envelope())
        if method == "metrics":
            return protocol.make_response(request, self.metrics.snapshot())
        if method == "shutdown":
            assert self._stopping is not None
            self._loop.call_soon(self._stopping.set)
            return protocol.make_response(request, self._health_envelope())
        if method not in HANDLERS:
            self._count("serve.errors", code=protocol.ERROR_UNKNOWN_METHOD)
            return protocol.make_error(
                protocol.ERROR_UNKNOWN_METHOD,
                f"unknown method {method!r} "
                f"(have {sorted(HANDLERS) + ['health', 'metrics', 'shutdown']})",
                request)
        if self._stopping.is_set():
            return protocol.make_error(
                protocol.ERROR_SHUTTING_DOWN, "daemon is shutting down",
                request)
        return await self._enqueue(request)

    # -- queue + scheduler ------------------------------------------------

    async def _enqueue(self, request: dict) -> dict:
        tenant = request.get("tenant", "default")
        reason = self.admission.admit(tenant)
        if reason is not None:
            self._count("serve.admission_rejections", reason=reason)
            code = (protocol.ERROR_ADMISSION
                    if reason == "queue_full" else protocol.ERROR_QUOTA)
            return protocol.make_error(
                code, f"admission rejected ({reason}) for tenant "
                      f"{tenant!r}", request, reason=reason)
        self._count("serve.admitted", tenant=tenant)
        self._gauge_depth()
        job = _Job(job_id=self._next_id, tenant=tenant,
                   method=request["method"],
                   params=request.get("params", {}), request=request,
                   future=self._loop.create_future(),
                   enqueue_ns=self._clock())
        self._next_id += 1
        if tenant not in self._pending:
            self._pending[tenant] = collections.deque()
            self._tenant_order.append(tenant)
        self._pending[tenant].append(job)
        self._job_ready.set()
        return await job.future

    def _next_batch(self) -> list[_Job]:
        """Up to ``batch_size`` jobs, one per tenant per pass starting
        after the last tenant served (fair round-robin)."""
        batch: list[_Job] = []
        order = self._tenant_order
        while order and len(batch) < self.config.batch_size:
            took = False
            for i in range(len(order)):
                idx = (self._rr + i) % len(order)
                queue = self._pending.get(order[idx])
                if queue:
                    batch.append(queue.popleft())
                    self._rr = (idx + 1) % len(order)
                    took = True
                    if len(batch) >= self.config.batch_size:
                        break
            if not took:
                break
        return batch

    async def _scheduler(self) -> None:
        assert self._loop is not None
        # One thread: jobs execute in scheduled order; the exec engine
        # below it provides the actual parallelism (and forks cleanly
        # because this thread holds no event-loop state).
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=1,
                                  thread_name_prefix="repro-serve-exec")
        try:
            while True:
                batch = self._next_batch()
                if not batch:
                    if self._stopping.is_set():
                        return
                    self._job_ready.clear()
                    await self._job_ready.wait()
                    continue
                self._count("serve.batches")
                self.metrics.histogram(
                    "serve.batch_jobs", bounds=_BATCH_BOUNDS,
                    det=False).observe(len(batch))
                for job in batch:
                    started = self._clock()
                    self._observe("serve.queue_wait_ns",
                                  started - job.enqueue_ns)
                    try:
                        doc = await self._loop.run_in_executor(
                            pool, self._execute, job)
                    except JobError as exc:
                        self._count("serve.errors",
                                    code=protocol.ERROR_JOB_FAILED)
                        doc = protocol.make_error(
                            protocol.ERROR_JOB_FAILED, str(exc),
                            job.request)
                    except Exception as exc:  # daemon-side bug
                        self._count("serve.errors",
                                    code=protocol.ERROR_INTERNAL)
                        doc = protocol.make_error(
                            protocol.ERROR_INTERNAL,
                            f"{type(exc).__name__}: {exc}", job.request)
                    else:
                        doc = protocol.make_response(job.request, doc)
                    self._observe("serve.task_wall_ns",
                                  self._clock() - started,
                                  tenant=job.tenant)
                    self.admission.release(job.tenant)
                    self.jobs_done += 1
                    self._gauge_depth()
                    if not job.future.done():
                        job.future.set_result(doc)
        finally:
            pool.shutdown(wait=True)

    def _execute(self, job: _Job) -> dict:
        """Runs on the executor thread; the configured engine task
        timeout (hang sweep) applies per job, everything else inherits
        the ambient engine state — including an installed fault plan."""
        if self.config.task_timeout is not None:
            with engine.task_timeout_context(self.config.task_timeout):
                return run_job(job.method, job.params, self._defaults)
        return run_job(job.method, job.params, self._defaults)

    # -- control envelopes ------------------------------------------------

    def _health_envelope(self) -> dict:
        return envelopes.make(envelopes.SERVE_HEALTH, {
            "model": self.config.model,
            "workers": self.config.workers,
            "cache_dir": self.config.cache_dir,
            "jobs_done": self.jobs_done,
            "stopping": bool(self._stopping and self._stopping.is_set()),
            "admission": self.admission.snapshot(),
            "methods": sorted(HANDLERS) + ["health", "metrics", "shutdown"],
        })


class DaemonHandle:
    """A daemon running on its own thread/event loop; context-manager
    friendly.  ``stop()`` drains admitted jobs, then joins."""

    def __init__(self, daemon: Daemon, thread: threading.Thread):
        self.daemon = daemon
        self.thread = thread

    @property
    def port(self) -> int:
        assert self.daemon.port is not None
        return self.daemon.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.daemon.config.host, self.port)

    def stop(self, timeout: float = 30.0) -> None:
        self.daemon.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("serve daemon did not stop in time")

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(config: ServeConfig | None = None,
                    metrics: metrics_mod.MetricsRegistry | None = None,
                    start_timeout: float = 30.0) -> DaemonHandle:
    """Start a daemon on a fresh thread; returns once it is accepting
    (``handle.port`` is bound)."""
    daemon = Daemon(config, metrics=metrics)
    ready = threading.Event()
    failure: list[BaseException] = []

    def _main() -> None:
        try:
            asyncio.run(daemon.run(ready=ready))
        except BaseException as exc:  # surface startup failures
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=_main, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(start_timeout):
        raise RuntimeError("serve daemon did not start in time")
    if failure:
        raise RuntimeError(f"serve daemon failed to start: {failure[0]}")
    return DaemonHandle(daemon, thread)


__all__ = ["ServeConfig", "Daemon", "DaemonHandle", "start_in_thread"]
