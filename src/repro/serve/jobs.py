"""The job table: serve method name -> inner versioned envelope.

One handler per :class:`repro.api.Toolchain` driver, each building its
envelope through :mod:`repro.api.build` — the exact serialization the
CLI ``--json`` paths print.  The daemon dispatches queued jobs here;
the load generator and the byte-identity gates call :func:`run_job`
*directly* (no daemon, no queue) to produce the serial reference
bytes, so any drift between served and serial output is a bug by
construction.

Handlers must stay deterministic: params in, envelope out, no wall
clock, no ambient state beyond the process-wide caches (whose replays
are bit-identical by design).  Deterministic toolchain failures
(frontend errors, VM faults, failed pointer checks, bad params) raise
:class:`JobError` and become typed ``job_failed`` error envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import Toolchain, build


class JobError(Exception):
    """The job itself failed deterministically (bad source, bad
    params, a failed GC check) — an error *envelope*, not a daemon
    crash."""


@dataclass(frozen=True)
class JobDefaults:
    """Daemon-side defaults a request's params may override."""

    model: str = "ss10"
    workers: int = 1
    max_instructions: int = 500_000_000


def _toolchain(params: dict, defaults: JobDefaults, **extra) -> Toolchain:
    try:
        return Toolchain(model=params.get("model", defaults.model),
                         workers=int(params.get("workers",
                                                defaults.workers)),
                         **extra)
    except (ValueError, TypeError) as exc:
        raise JobError(f"bad params: {exc}") from None


def _source(params: dict) -> str:
    source = params.get("source")
    if not isinstance(source, str):
        raise JobError("params need a 'source' string")
    return source


def job_annotate(params: dict, defaults: JobDefaults) -> dict:
    mode = params.get("mode", "safe")
    tc = _toolchain(params, defaults, mode=mode,
                    run_cpp=bool(params.get("run_cpp", True)))
    result = tc.annotate(_source(params))
    return build.annotate_envelope(_source(params), mode, result)


def job_check(params: dict, defaults: JobDefaults) -> dict:
    source = _source(params)
    tc = _toolchain(params, defaults,
                    run_cpp=bool(params.get("run_cpp", True)))
    return build.check_envelope(source, tc.check(source))


def job_run(params: dict, defaults: JobDefaults) -> dict:
    config = params.get("config", "O")
    tc = _toolchain(params, defaults, config=config,
                    gc_interval=int(params.get("gc_interval", 0)),
                    poison=bool(params.get("poison", False)),
                    max_instructions=int(params.get(
                        "max_instructions", defaults.max_instructions)))
    compiled = tc.compile(_source(params))
    result = tc.execute(compiled, stdin=params.get("stdin", ""))
    if result.status != "ok":
        raise JobError(result.describe())
    return build.run_envelope(result, compiled.asm.code_size(), config,
                              tc.options.model)


def job_bench(params: dict, defaults: JobDefaults) -> dict:
    tc = _toolchain(params, defaults)
    workloads = params.get("workloads")
    configs = params.get("configs")
    try:
        rows = tc.bench(tuple(workloads) if workloads else None,
                        tuple(configs) if configs else None)
    except KeyError as exc:
        raise JobError(f"unknown workload {exc.args[0]!r}") from None
    return build.bench_envelope(rows, tc.options.model)


def job_fuzz(params: dict, defaults: JobDefaults) -> dict:
    tc = _toolchain(params, defaults)
    kwargs = {}
    if "models" in params:
        kwargs["models"] = tuple(params["models"])
    if "adv_interval" in params:
        kwargs["adv_interval"] = int(params["adv_interval"])
    result = tc.fuzz(seed=int(params.get("seed", 0)),
                     iters=int(params.get("iters", 10)),
                     max_instructions=int(params.get(
                         "max_instructions", 5_000_000)),
                     **kwargs)
    return build.fuzz_envelope(result)


HANDLERS = {
    "annotate": job_annotate,
    "check": job_check,
    "run": job_run,
    "bench": job_bench,
    "fuzz": job_fuzz,
}


def run_job(method: str, params: dict, defaults: JobDefaults) -> dict:
    """Execute one job to its inner envelope.  Raises :class:`JobError`
    for deterministic failures and :class:`KeyError` for unknown
    methods (the daemon maps those to their typed error codes)."""
    handler = HANDLERS[method]
    try:
        return handler(params, defaults)
    except JobError:
        raise
    except Exception as exc:
        # Frontend/VM/GC failures are deterministic observables too —
        # a served bad program must fail byte-identically to a serial
        # run of the same program.
        raise JobError(f"{type(exc).__name__}: {exc}") from exc


__all__ = ["JobError", "JobDefaults", "HANDLERS", "run_job"]
