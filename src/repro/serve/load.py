"""``repro serve load`` — the deterministic load generator.

Builds a seeded traffic tape (fuzz-corpus sources through annotate /
check / run, plus bench-matrix and fuzz-campaign jobs), replays it
against an in-process daemon from N concurrent clients (one thread,
one connection, one tenant each, jobs assigned round-robin by index),
and reports a ``repro-serve-load/1`` SLO document with p50/p95/p99
latencies read from the daemon's ``serve.*`` metrics.

Gates, both optional and both byte-identity over canonical dumps:

* ``check=True`` — every served envelope must equal the serial
  :func:`repro.serve.jobs.run_job` reference for the same tape entry
  (the "daemon adds nothing" gate of ISSUE 10 / ROADMAP item 1).
* ``faults=...`` — the whole tape is replayed through a *second*
  daemon under a seeded fault plan over the same warm cache root; the
  faulted envelopes must equal the fault-free ones, exactly the
  ``repro chaos`` contract, with the engine's recovery counters
  reported from the faulted phase's metrics and the cache faults from
  its tiers' stats.

Everything observable is a function of ``seed``; only the latency
numbers are wall-clock (and stay out of every gate).
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
from dataclasses import dataclass, replace

from ..api import envelopes
from ..api.build import dumps_canonical
from ..exec import cache as exec_cache
from ..obs import metrics as metrics_mod
from ..obs import runtime as obs_runtime
from .client import Client, ServeError
from .daemon import ServeConfig, start_in_thread
from .jobs import JobDefaults, JobError, run_job

#: the 10-fault plan the serve chaos gate replays by default — two
#: worker crashes, five corrupt cache reads, a slow worker, a slowed
#: compile, and lossy pipes (cf. resil.cli.DEFAULT_FAULTS).
CHAOS_FAULTS = ("worker_crash@shard1,worker_crash@shard2,"
                "cache_corrupt@2-6,slow_worker@shard0:2x,"
                "compile_slow@shard3:2x,pipe_drop@0.05")


@dataclass(frozen=True)
class LoadSpec:
    """The seeded traffic tape: what gets replayed, by how many."""

    seed: int = 0
    clients: int = 8
    jobs: int = 24
    fuzz_iters: int = 2
    bench_workloads: tuple[str, ...] = ("cordtest",)
    bench_configs: tuple[str, ...] = ("O", "g")
    #: method mix weights (annotate, check, run, bench, fuzz)
    weights: tuple[float, ...] = (0.30, 0.20, 0.30, 0.10, 0.10)
    max_statements: int = 10


_METHODS = ("annotate", "check", "run", "bench", "fuzz")


def build_traffic(spec: LoadSpec) -> list[dict]:
    """The tape: ``jobs`` entries of ``{"method", "params"}``, a pure
    function of the spec."""
    from ..fuzz.gen import GenOptions, generate_program
    rng = random.Random(spec.seed)
    gen_options = GenOptions()
    gen_options.max_statements = spec.max_statements
    gen_options.min_statements = min(gen_options.min_statements,
                                     spec.max_statements)
    tape: list[dict] = []
    for i in range(spec.jobs):
        method = rng.choices(_METHODS, weights=spec.weights, k=1)[0]
        if method in ("annotate", "check", "run"):
            source = generate_program(spec.seed * 1_000_003 + i,
                                      gen_options)
            params: dict = {"source": source, "run_cpp": False}
            if method == "annotate":
                params["mode"] = rng.choice(("safe", "checked"))
            if method == "run":
                params["config"] = rng.choice(("O", "O_safe", "g"))
                params["max_instructions"] = 5_000_000
        elif method == "bench":
            params = {"workloads": list(spec.bench_workloads),
                      "configs": list(spec.bench_configs)}
        else:
            params = {"seed": spec.seed + i, "iters": spec.fuzz_iters,
                      "max_instructions": 2_000_000}
        tape.append({"method": method, "params": params})
    return tape


def _outcome_bytes(fn) -> str:
    """Normalize success and typed failure to comparable bytes."""
    try:
        return dumps_canonical(fn())
    except JobError as exc:
        return dumps_canonical({"error": "job_failed", "message": str(exc)})
    except ServeError as exc:
        error = exc.envelope.get("error", {})
        return dumps_canonical({"error": error.get("code"),
                                "message": error.get("message", "")})


def serial_reference(tape: list[dict], defaults: JobDefaults) -> list[str]:
    """The tape run straight through the Toolchain (no daemon, fresh
    caches) — the bytes every served run is gated against."""
    root = tempfile.mkdtemp(prefix="repro-serve-ref-")
    try:
        with exec_cache.cache_context(*exec_cache.open_caches(root)):
            return [
                _outcome_bytes(lambda e=entry: run_job(
                    e["method"], e["params"], defaults))
                for entry in tape]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _replay(config: ServeConfig, spec: LoadSpec, tape: list[dict],
            registry: metrics_mod.MetricsRegistry
            ) -> tuple[list[str], dict, dict]:
    """One daemon lifetime: N client threads replay the tape; returns
    the per-index outcome bytes, the daemon's admission snapshot and
    its cache tiers' stats."""
    previous = obs_runtime.get_metrics()
    obs_runtime.set_metrics(registry)
    results: list[str | None] = [None] * len(tape)
    errors: list[BaseException] = []
    try:
        handle = start_in_thread(config, metrics=registry)

        def client_main(k: int) -> None:
            try:
                with Client(port=handle.port, tenant=f"t{k}") as client:
                    for index in range(k, len(tape), spec.clients):
                        entry = tape[index]
                        results[index] = _outcome_bytes(
                            lambda: client.call(entry["method"],
                                                entry["params"]))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client_main, args=(k,),
                                    name=f"repro-load-{k}")
                   for k in range(spec.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        admission = handle.daemon.admission.snapshot()
        tiers = exec_cache.tier_stats()
        handle.stop()
        if errors:
            raise errors[0]
        assert all(r is not None for r in results)
        return results, admission, tiers
    finally:
        obs_runtime.set_metrics(previous)


def _percentiles(registry: metrics_mod.MetricsRegistry,
                 name: str) -> dict[str, dict]:
    """p50/p95/p99 for every labeled series of ``name`` plus a merged
    ``overall`` series."""
    scratch = metrics_mod.MetricsRegistry()
    overall = scratch.histogram(name)
    out: dict[str, dict] = {}
    for metric in registry:
        if metric.name != name or not isinstance(metric,
                                                 metrics_mod.Histogram):
            continue
        entry = metric.to_entry()
        if entry is None:
            continue
        label = ",".join(f"{k}={v}" for k, v in metric.labels.items())
        out[label or "overall"] = metric.percentiles((50, 95, 99))
        if label:
            overall.merge_entry(entry)
    if overall.to_entry() is not None and "overall" not in out:
        out["overall"] = overall.percentiles((50, 95, 99))
    return out


def _latency_report(registry: metrics_mod.MetricsRegistry) -> dict:
    return {"request_ns": _percentiles(registry, "serve.request_ns"),
            "queue_wait_ns": _percentiles(registry, "serve.queue_wait_ns"),
            "task_wall_ns": _percentiles(registry, "serve.task_wall_ns")}


def _mismatches(got: list[str], want: list[str]) -> list[int]:
    return [i for i, (g, w) in enumerate(zip(got, want)) if g != w]


def run_load(config: ServeConfig, spec: LoadSpec, check: bool = False,
             faults: str | None = None, slo_p99_ms: float | None = None,
             metrics_out: str | None = None) -> dict:
    """The whole exercise; returns the ``repro-serve-load/1`` report."""
    tape = build_traffic(spec)
    mix: dict[str, int] = {}
    for entry in tape:
        mix[entry["method"]] = mix.get(entry["method"], 0) + 1

    cache_root = config.cache_dir or tempfile.mkdtemp(prefix="repro-serve-")
    own_root = config.cache_dir is None
    config = replace(config, cache_dir=cache_root)
    report: dict = {
        "seed": spec.seed, "clients": spec.clients, "jobs": spec.jobs,
        "workers": config.workers, "model": config.model, "mix": mix,
        "ok": True,
        "byte_identity": {"checked": check, "ok": None, "mismatches": []},
        "chaos": None, "slo": None,
    }
    try:
        reference = (serial_reference(tape, config.defaults())
                     if check else None)

        registry = metrics_mod.MetricsRegistry(out_path=metrics_out)
        served, report["admission"], _ = _replay(config, spec, tape,
                                                 registry)
        report["latency"] = _latency_report(registry)
        registry.flush()

        if reference is not None:
            bad = _mismatches(served, reference)
            report["byte_identity"].update(ok=not bad, mismatches=bad)
            if bad:
                report["ok"] = False

        if faults is not None:
            from ..resil import inject
            from ..resil.plan import parse_faults
            plan = parse_faults(faults, seed=spec.seed)
            chaos_registry = metrics_mod.MetricsRegistry()
            chaos_config = replace(
                config, task_timeout=config.task_timeout or 30.0)
            with inject.plan_context(plan):
                faulted, _, tiers = _replay(chaos_config, spec, tape,
                                            chaos_registry)
            bad = _mismatches(faulted, served)
            resil = {
                metric.key: metric.value
                for metric in chaos_registry
                if metric.name in ("resil.faults_injected", "exec.retries",
                                   "exec.worker_deaths", "exec.quarantined")
                and metric.value}
            resil.update(
                (f"cache.{field}{{tier={kind}}}", stats[field])
                for kind, stats in sorted(tiers.items())
                for field in ("corrupt_evicted", "breaker_trips",
                              "write_errors")
                if stats[field])
            report["chaos"] = {"faults": plan.to_json(),
                              "identical": not bad, "mismatches": bad,
                              "resil": resil}
            if bad:
                report["ok"] = False

        if slo_p99_ms is not None:
            overall = (report["latency"]["request_ns"]
                       .get("overall") or
                       next(iter(report["latency"]["request_ns"].values()),
                            None))
            p99_ms = (overall["p99"] / 1e6) if overall else None
            report["slo"] = {"p99_ms_limit": slo_p99_ms, "p99_ms": p99_ms,
                             "ok": p99_ms is not None
                             and p99_ms <= slo_p99_ms}
            if not report["slo"]["ok"]:
                report["ok"] = False
    finally:
        if own_root:
            shutil.rmtree(cache_root, ignore_errors=True)

    return envelopes.make(envelopes.SERVE_LOAD, report)


def render_report(report: dict) -> str:
    """Human-readable SLO summary of a ``repro-serve-load/1`` doc."""
    lines = [f"serve load: seed {report['seed']}, {report['jobs']} jobs, "
             f"{report['clients']} clients, workers={report['workers']}, "
             f"model {report['model']}",
             "  mix: " + " ".join(f"{m}={n}" for m, n
                                  in sorted(report["mix"].items()))]
    ident = report["byte_identity"]
    if ident["checked"]:
        lines.append("  byte-identity vs serial: "
                     + ("OK" if ident["ok"]
                        else f"MISMATCH at {ident['mismatches']}"))
    chaos = report.get("chaos")
    if chaos:
        n_resil = sum(chaos["resil"].values())
        lines.append("  chaos replay: "
                     + ("identical" if chaos["identical"]
                        else f"MISMATCH at {chaos['mismatches']}")
                     + f" ({n_resil} recovery/fault events)")
    lat = report.get("latency", {})
    req = lat.get("request_ns", {})
    for label in sorted(req):
        p = req[label]
        lines.append(f"  request {label}: p50 {p['p50'] / 1e6:.1f}ms  "
                     f"p95 {p['p95'] / 1e6:.1f}ms  "
                     f"p99 {p['p99'] / 1e6:.1f}ms  (n={p['count']})")
    qw = lat.get("queue_wait_ns", {}).get("overall")
    if qw:
        lines.append(f"  queue wait: p50 {qw['p50'] / 1e6:.1f}ms  "
                     f"p99 {qw['p99'] / 1e6:.1f}ms")
    adm = report.get("admission", {})
    if adm:
        lines.append(f"  admission: {adm['admitted']} admitted, "
                     f"rejections {adm['rejections'] or '{}'}")
    slo = report.get("slo")
    if slo:
        lines.append(f"  SLO p99 {slo['p99_ms']:.1f}ms "
                     f"<= {slo['p99_ms_limit']:.1f}ms: "
                     + ("OK" if slo["ok"] else "VIOLATED"))
    lines.append("serve load: " + ("OK" if report["ok"] else "FAILED"))
    return "\n".join(lines)


__all__ = ["LoadSpec", "CHAOS_FAULTS", "build_traffic", "serial_reference",
           "run_load", "render_report"]
