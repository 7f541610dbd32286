"""``python -m repro.obs`` — record and report telemetry.

    python -m repro.obs record --workload cfrac --config O_safe
        Compile + run one workload with tracing and profiling on; write
        the JSONL trace (default obs-trace.jsonl) and print the compile
        pipeline, GC pause, and VM hot-spot reports.

    python -m repro.obs record --source prog.c --config g_checked --chrome t.json
        Same for an arbitrary C file; also export a Chrome trace for
        chrome://tracing / Perfetto.

    python -m repro.obs report obs-trace.jsonl [--json]
        Re-render the reports from a recorded trace.

    python -m repro.obs trajectory --workload cfrac --out BENCH.jsonl
        Measure every config as the sentinel does (untraced, min of 3
        runs) and append one repro-trajectory/1 record per config
        (counts, wall time, GC pause totals) if the sentinel passes.

    python -m repro.obs trajectory --check [FILES...]
        Validate BENCH.jsonl and judge every record against the gate
        rules; exits non-zero on a malformed, empty or failing file.

    python -m repro.obs top obs-metrics.jsonl [--interval 2] [--once]
        Watch live metrics snapshots (counters, gauges, histogram
        percentiles) appended by a run started with --metrics-out.

    python -m repro.obs sentinel --workload cfrac [--append]
        Fresh min-of-N measurement judged against BENCH.jsonl:
        bit-exact counts, MAD-bounded wall times (advisory); emits a
        repro-obs-sentinel/1 verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import clock as obs_clock
from . import runtime
from .metrics import load_snapshot, render_snapshot
from .report import render_text, summarize
from .sentinel import (DEFAULT_CONFIGS, DEFAULT_REPEATS, TRAJECTORY,
                       check_trajectory, render_verdict, run_sentinel)
from .tracer import load_jsonl
from ..gc.collector import Collector, GCCheckError
from ..machine.driver import CompileConfig, compile_source
from ..machine.models import MODELS
from ..machine.vm import VM, VMError
from ..workloads import AUX_WORKLOADS, WORKLOADS, load_workload


def _workload_source(name: str) -> tuple[str, str]:
    if name not in WORKLOADS and name not in AUX_WORKLOADS:
        known = ", ".join(list(WORKLOADS) + list(AUX_WORKLOADS))
        raise SystemExit(f"error: unknown workload {name!r} (known: {known})")
    spec = WORKLOADS.get(name) or AUX_WORKLOADS[name]
    return load_workload(name), spec.stdin


def _record_one(source: str, stdin: str, config_name: str, model_key: str,
                gc_interval: int, profile_on: bool):
    """Run one compile+execute under a fresh tracer and metrics
    registry; return (tracer, profile, run result, wall seconds,
    metrics).

    All timestamps — the tracer's, the wall time, and the metric
    histograms — read the single injectable ns clock (``obs.clock``),
    so one fake clock makes the whole recording deterministic.
    """
    runtime.reset()
    tracer = runtime.enable_tracing()
    profile = runtime.enable_profiling() if profile_on else None
    metrics = runtime.enable_metrics()
    vm = None
    try:
        config = CompileConfig.named(config_name, MODELS[model_key])
        collector = Collector()
        t0_ns = obs_clock.now_ns()
        compiled = compile_source(source, config)
        vm = VM(compiled.asm, config.model, collector=collector,
                gc_interval=gc_interval)
        vm.stdin = stdin
        result = vm.run()
        wall_s = (obs_clock.now_ns() - t0_ns) / 1e9
        # Close the trace with the run's simulated GC counts and its
        # metrics snapshot, so report/summarize can rebuild the
        # percentile and allocation-size sections from the trace alone.
        tracer.instant("gc.stats", **collector.stats.to_dict())
        tracer.instant("obs.metrics", metrics=metrics.to_dict())
        if profile is not None:
            # Embed the full per-block profile, so the trace alone
            # carries the run's hot spots.
            tracer.instant("vm.profile", profile=profile.to_dict())
    finally:
        runtime.reset()
        if vm is not None:
            vm.release()
    return tracer, profile, result, wall_s, metrics


def cmd_record(args: argparse.Namespace) -> int:
    if bool(args.workload) == bool(args.source):
        raise SystemExit("error: give exactly one of --workload / --source")
    if args.workload:
        source, stdin = _workload_source(args.workload)
    else:
        with open(args.source) as fh:
            source = fh.read()
        stdin = ""
    if args.stdin:
        with open(args.stdin) as fh:
            stdin = fh.read()

    try:
        tracer, profile, result, wall_s, metrics = _record_one(
            source, stdin, args.config, args.model, args.gc_interval,
            profile_on=not args.no_profile)
    except (GCCheckError, VMError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tracer.write_jsonl(args.out)
    if args.chrome:
        tracer.write_chrome(args.chrome)
    if args.metrics_out:
        metrics.write_jsonl(args.metrics_out, append=False)
    if args.prom:
        metrics.write_prometheus(args.prom)
    summary = summarize(tracer.events, profile, top=args.top,
                        metrics=metrics)
    summary["run"] = {
        "workload": args.workload, "source": args.source,
        "config": args.config, "model": args.model,
        "gc_interval": args.gc_interval, "exit_code": result.exit_code,
        "cycles": result.cycles, "instructions": result.instructions,
        "collections": result.collections, "checks": result.checks,
        "wall_s": round(wall_s, 6),
    }
    if args.summary_json:
        with open(args.summary_json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not args.quiet:
        what = args.workload or args.source
        print(f"recorded {what} [{args.config}/{args.model}]: "
              f"exit={result.exit_code} cycles={result.cycles} "
              f"instructions={result.instructions} "
              f"collections={result.collections} wall={wall_s:.2f}s")
        print(f"trace: {args.out} ({len(tracer.events)} events)"
              + (f", chrome: {args.chrome}" if args.chrome else ""))
        print()
        print(render_text(summary, profile, top=args.top))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    events = load_jsonl(args.trace)
    summary = summarize(events, top=args.top)
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(render_text(summary, top=args.top))
    return 0


def cmd_trajectory(args: argparse.Namespace) -> int:
    if args.check:
        paths = args.files or [TRAJECTORY]
        failed = 0
        for path in paths:
            records, issues = check_trajectory(path)
            if issues:
                failed += 1
                for issue in issues:
                    print(f"FAIL {issue}", file=sys.stderr)
            elif not args.quiet:
                print(f"ok   {path} ({len(records)} records)")
        if failed:
            print(f"trajectory check: {failed}/{len(paths)} file(s) "
                  "malformed, empty or failing a rule", file=sys.stderr)
            return 1
        if not args.quiet:
            print(f"trajectory check: {len(paths)} file(s) valid")
        return 0

    source, stdin = _workload_source(args.workload)
    configs = tuple(c.strip() for c in args.configs.split(",") if c.strip())
    # The sentinel's own measurement and judgement, so records and the
    # fresh runs gated against them are taken the same way.
    verdict = run_sentinel(
        workload=args.workload, source=source, stdin=stdin,
        model=args.model, configs=configs,
        gc_interval=args.gc_interval, path=args.out, append=True,
        label=args.label, quiet=args.quiet)
    if not args.quiet or not verdict["ok"]:
        print(render_verdict(verdict))
    return 0 if verdict["ok"] else 1


def cmd_top(args: argparse.Namespace) -> int:
    """Watch mode: render the newest snapshot in a metrics JSONL file."""
    last_seq = None
    while True:
        snapshot = load_snapshot(args.file)
        try:
            if snapshot is None:
                print(f"(no metrics snapshot in {args.file} yet)")
            elif snapshot.get("seq") != last_seq or args.once:
                last_seq = snapshot.get("seq")
                print(render_snapshot(snapshot, top=args.top))
        except BrokenPipeError:  # `obs top ... | head` is a normal use
            return 0
        if args.once:
            return 0 if snapshot is not None else 1
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_sentinel(args: argparse.Namespace) -> int:
    configs = tuple(c.strip() for c in args.configs.split(",") if c.strip())
    verdict = run_sentinel(
        workload=args.workload, model=args.model, configs=configs,
        repeats=args.repeats, gc_interval=args.gc_interval,
        path=args.file, append=args.append, label=args.label,
        quiet=args.quiet)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(verdict, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        json.dump(verdict, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(render_verdict(verdict))
    return 0 if verdict["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Telemetry: record traces, render reports, track the "
                    "perf trajectory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="trace + profile one workload run")
    p.add_argument("--workload", default=None,
                   help=f"workload name ({', '.join(WORKLOADS)}, "
                        f"{', '.join(AUX_WORKLOADS)})")
    p.add_argument("--source", default=None, metavar="FILE",
                   help="C source file instead of a named workload")
    p.add_argument("--config", default="O_safe",
                   choices=("O0", "O", "O_safe", "g", "g_checked"))
    p.add_argument("--model", choices=tuple(MODELS), default="ss10")
    p.add_argument("--gc-interval", type=int, default=0)
    p.add_argument("--stdin", default=None, metavar="FILE")
    p.add_argument("--out", default="obs-trace.jsonl", metavar="FILE",
                   help="JSONL trace output (default: obs-trace.jsonl)")
    p.add_argument("--chrome", default=None, metavar="FILE",
                   help="also export a chrome://tracing JSON trace")
    p.add_argument("--summary-json", default=None, metavar="FILE",
                   help="write the summary dict as JSON")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the hot-spot tables")
    p.add_argument("--no-profile", action="store_true",
                   help="skip VM hot-spot profiling (trace only)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the repro-obs-metrics/1 snapshot (JSONL)")
    p.add_argument("--prom", default=None, metavar="FILE",
                   help="write a Prometheus text-exposition export")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("report", help="render reports from a JSONL trace")
    p.add_argument("trace")
    p.add_argument("--json", action="store_true")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("trajectory",
                       help=f"append perf-trajectory records to {TRAJECTORY} "
                            "or validate trajectories (--check)")
    p.add_argument("files", nargs="*", metavar="FILE",
                   help=f"trajectory files for --check (default: {TRAJECTORY})")
    p.add_argument("--check", action="store_true",
                   help="validate and judge trajectories instead of "
                        "recording; exits non-zero on a malformed, empty or "
                        "failing file")
    p.add_argument("--workload", default="cfrac")
    p.add_argument("--model", choices=tuple(MODELS), default="ss10")
    p.add_argument("--configs", default=",".join(DEFAULT_CONFIGS))
    p.add_argument("--gc-interval", type=int, default=0)
    p.add_argument("--out", default=TRAJECTORY)
    p.add_argument("--label", default="")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_trajectory)

    p = sub.add_parser("top", help="watch live metrics snapshots")
    p.add_argument("file", help="metrics JSONL file (from --metrics-out)")
    p.add_argument("--interval", type=float, default=2.0)
    p.add_argument("--once", action="store_true",
                   help="render the latest snapshot and exit")
    p.add_argument("--top", type=int, default=0,
                   help="limit counters shown (0 = all)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("sentinel",
                       help=f"judge a fresh run against {TRAJECTORY} "
                            "(perf-regression gate)")
    p.add_argument("file", nargs="?", default=TRAJECTORY, metavar="FILE",
                   help=f"trajectory file (default: {TRAJECTORY})")
    p.add_argument("--workload", default="cfrac")
    p.add_argument("--model", choices=tuple(MODELS), default="ss10")
    p.add_argument("--configs", default=",".join(DEFAULT_CONFIGS))
    p.add_argument("--gc-interval", type=int, default=0)
    p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                   help="min-of-N wall measurement (default %(default)s)")
    p.add_argument("--append", action="store_true",
                   help="append the fresh records to the trajectory when "
                        "green")
    p.add_argument("--label", default="sentinel")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the repro-obs-sentinel/1 verdict JSON")
    p.add_argument("--json", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_sentinel)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
