"""``repro serve`` — run the daemon, drive it, load-test it.

    python -m repro serve [start] [--port 8091] [--workers 4]
                          [--cache-dir DIR] [--model ss10]
                          [--tenant-inflight N] [--tenant-jobs N]
                          [--max-queue-depth N] [--batch-size N]
        Start the multi-tenant toolchain daemon and serve until
        interrupted.  Clients speak ``repro-serve-request/1`` envelopes
        over POST /rpc (see repro.api.Client and docs/SERVE.md).

    python -m repro serve load [--seed 0] [--clients 8] [--jobs 24]
                               [--workers N] [--check] [--faults SPEC]
                               [--chaos] [--slo-p99-ms MS] [--json]
        Replay a deterministic fuzz-corpus + bench traffic tape against
        an in-process daemon at high concurrency; print (or emit as a
        ``repro-serve-load/1`` envelope) the p50/p99 SLO report.
        ``--check`` gates every served envelope byte-identical to a
        serial Toolchain run; ``--chaos`` replays the tape again under
        the default 10-fault plan (``--faults`` overrides it) and gates
        faulted == fault-free, exactly like ``repro chaos``.

    python -m repro serve call METHOD [--file F] [--port P] [--tenant T]
        One ad-hoc request against a running daemon (handy smoke test):
        prints the inner envelope, exit 1 on a typed error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..cliutil import add_report_flags, read_text
from ..machine.models import MODELS
from .daemon import ServeConfig, start_in_thread


def _config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        host=args.host, port=args.port, model=args.model,
        workers=args.workers, cache_dir=args.cache_dir,
        batch_size=args.batch_size, max_queue_depth=args.max_queue_depth,
        tenant_inflight=args.tenant_inflight, tenant_jobs=args.tenant_jobs,
        task_timeout=args.task_timeout)


def cmd_serve_start(args: argparse.Namespace) -> int:
    handle = start_in_thread(_config_from_args(args))
    print(f"repro serve: listening on "
          f"http://{args.host}:{handle.port}/rpc "
          f"(model {args.model}, workers {args.workers}, "
          f"cache {args.cache_dir or 'off'})", file=sys.stderr)
    try:
        while handle.thread.is_alive():
            handle.thread.join(0.5)
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
        handle.stop()
    return 0


def cmd_serve_load(args: argparse.Namespace) -> int:
    from .load import CHAOS_FAULTS, LoadSpec, render_report, run_load
    faults = args.faults
    if args.chaos and faults is None:
        faults = CHAOS_FAULTS
    spec = LoadSpec(seed=args.seed, clients=args.clients, jobs=args.jobs,
                    fuzz_iters=args.fuzz_iters,
                    bench_workloads=tuple(args.bench_workloads.split(","))
                    if args.bench_workloads else (),
                    max_statements=args.max_statements)
    config = ServeConfig(model=args.model, workers=args.workers,
                         cache_dir=args.cache_dir,
                         batch_size=args.batch_size,
                         max_queue_depth=args.max_queue_depth,
                         tenant_inflight=args.tenant_inflight,
                         tenant_jobs=args.tenant_jobs,
                         task_timeout=args.task_timeout)
    report = run_load(config, spec, check=args.check, faults=faults,
                      slo_p99_ms=args.slo_p99_ms,
                      metrics_out=args.metrics_out)
    if args.metrics_out:
        print(f"! metrics written to {args.metrics_out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0 if report["ok"] else 1


def cmd_serve_call(args: argparse.Namespace) -> int:
    from .client import Client, ServeError
    params: dict = {}
    if args.file:
        params["source"] = read_text(args.file)
    for item in args.param or ():
        key, _, value = item.partition("=")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    with Client(host=args.host, port=args.port,
                tenant=args.tenant) as client:
        try:
            doc = client.call(args.method, params)
        except ServeError as exc:
            print(json.dumps(exc.envelope, indent=2, sort_keys=True))
            return 1
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _add_daemon_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--model", choices=tuple(MODELS), default="ss10")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="shared warm content-addressed cache root "
                        "(one cache for all tenants)")
    p.add_argument("--batch-size", type=int, default=8,
                   help="max jobs per scheduler pass")
    p.add_argument("--max-queue-depth", type=int, default=64,
                   help="global admission cap on queued jobs")
    p.add_argument("--tenant-inflight", type=int, default=8,
                   help="per-tenant cap on in-flight (queued+running) jobs")
    p.add_argument("--tenant-jobs", type=int, default=None,
                   help="per-tenant lifetime job budget (default: none)")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="resil per-job hang timeout in seconds")


def add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve", help="multi-tenant toolchain daemon + load generator")
    p.set_defaults(fn=cmd_serve_start)
    actions = p.add_subparsers(dest="serve_cmd")

    ps = actions.add_parser("start", help="run the daemon")
    ps.add_argument("--port", type=int, default=8091,
                    help="listen port (0 = ephemeral)")
    _add_daemon_args(ps)
    add_report_flags(ps, json_schema="repro-serve-health/1",
                     json_flag=False, metrics=False)
    ps.set_defaults(fn=cmd_serve_start)

    # bare `repro serve` == `repro serve start`
    p.add_argument("--port", type=int, default=8091,
                   help="listen port (0 = ephemeral)")
    _add_daemon_args(p)
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="exec-engine worker processes")

    pl = actions.add_parser(
        "load", help="deterministic load generator + SLO report")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--clients", type=int, default=8,
                    help="concurrent client connections")
    pl.add_argument("--jobs", type=int, default=24,
                    help="total jobs on the traffic tape")
    pl.add_argument("--fuzz-iters", type=int, default=2)
    pl.add_argument("--bench-workloads", default="cordtest",
                    help="comma-separated bench workloads on the tape")
    pl.add_argument("--max-statements", type=int, default=10,
                    help="size cap for generated corpus programs")
    pl.add_argument("--check", action="store_true",
                    help="gate every served envelope byte-identical "
                         "to a serial Toolchain run")
    pl.add_argument("--faults", default=None, metavar="SPEC",
                    help="replay the tape under this fault plan and "
                         "gate faulted == fault-free")
    pl.add_argument("--chaos", action="store_true",
                    help="replay under the default 10-fault plan "
                         "(the serve chaos gate; --faults overrides)")
    pl.add_argument("--slo-p99-ms", type=float, default=None,
                    help="fail (exit 1) if request p99 exceeds this")
    _add_daemon_args(pl)
    add_report_flags(pl, json_schema="repro-serve-load/1")
    pl.set_defaults(fn=cmd_serve_load)

    pc = actions.add_parser("call", help="one ad-hoc request")
    pc.add_argument("method")
    pc.add_argument("--host", default="127.0.0.1")
    pc.add_argument("--port", type=int, default=8091)
    pc.add_argument("--tenant", default="default")
    pc.add_argument("--file", default=None,
                    help="read params['source'] from this file")
    pc.add_argument("--param", action="append", metavar="K=V",
                    help="extra param (JSON value or bare string)")
    pc.set_defaults(fn=cmd_serve_call)


__all__ = ["add_serve_parser", "cmd_serve_start", "cmd_serve_load",
           "cmd_serve_call"]
