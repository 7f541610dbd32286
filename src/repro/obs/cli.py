"""``python -m repro.obs`` — record and report telemetry.

    python -m repro.obs record --workload cfrac --config O_safe
        Compile + run one workload with tracing and profiling on; write
        the JSONL trace (default obs-trace.jsonl) and print the compile
        pipeline, GC pause, and VM hot-spot reports.

    python -m repro.obs record --source prog.c --config g_checked --chrome t.json
        Same for an arbitrary C file; also export a Chrome trace for
        chrome://tracing / Perfetto.

    python -m repro.obs record --workload cfrac --config O --pgo-out cfrac.pgo.json
        Also persist the machine-readable per-block profile as a
        ``repro-vmprof-pgo/1`` envelope — the input to superinstruction
        fusion (``repro bench --pgo`` / ``repro cc --pgo``).

    python -m repro.obs report obs-trace.jsonl [--json] [--pgo FILE]
        Re-render the reports from a recorded trace; ``--pgo`` extracts
        the embedded ``vm.profile`` instants into the same pgo envelope
        (profiled runs embed one per recording).

    python -m repro.obs trajectory --workload cfrac --out BENCH_obs.json
        Measure every config as the sentinel does (untraced, min of 3
        runs) and append one perf-trajectory point (cycles, wall time,
        GC pause totals per config) to the trajectory file.

    python -m repro.obs trajectory --check [FILES...]
        Schema-validate every BENCH_*.json trajectory; exits non-zero
        on malformed or empty files.

    python -m repro.obs top obs-metrics.jsonl [--interval 2] [--once]
        Watch live metrics snapshots (counters, gauges, histogram
        percentiles) appended by a run started with --metrics-out.

    python -m repro.obs sentinel --workload cfrac [--strict-wall] [--append]
        Fresh min-of-N measurement compared against the BENCH_*.json
        trajectories: bit-exact counts, MAD-bounded wall times; emits a
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
from .sentinel import (DEFAULT_CONFIGS, DEFAULT_REPEATS, TRAJECTORY_SCHEMA,
                       _measure, default_trajectories, render_verdict,
                       run_sentinel, validate_trajectories)
from .tracer import load_jsonl
from .vmprof import PGO_SCHEMA, pgo_from_profile_dict
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
            # Embed the full per-block profile so a later `report --pgo`
            # can regenerate the fusion envelope from the trace alone.
            tracer.instant("vm.profile", profile=profile.to_dict())
    finally:
        runtime.reset()
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
    if args.pgo_out:
        if profile is None:
            raise SystemExit("error: --pgo-out needs profiling "
                             "(drop --no-profile)")
        _write_pgo(profile.to_pgo(), args.pgo_out, quiet=args.quiet)
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


def _write_pgo(doc: dict, path: str, quiet: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"pgo profile: {path} ({len(doc['blocks'])} blocks, "
              f"{doc['total_cycles']} cycles)")


def _merged_pgo_from_events(events: list[dict]) -> dict:
    """The pgo envelope for a trace: its embedded ``vm.profile``
    instants merged (several recordings may share one trace file) —
    per-(function, block) cycles/instructions summed, hottest first."""
    dicts = [e["args"]["profile"] for e in events
             if e.get("name") == "vm.profile"
             and isinstance(e.get("args", {}).get("profile"), dict)]
    if not dicts:
        raise SystemExit("error: trace has no vm.profile instants "
                         "(record with profiling enabled)")
    acc: dict[tuple, list[int]] = {}
    runs = total_cycles = total_instructions = 0
    tag = ""
    for d in dicts:
        tag = tag or str(d.get("tag", ""))
        runs += int(d.get("runs", 0))
        total_cycles += int(d.get("total_cycles", 0))
        total_instructions += int(d.get("total_instructions", 0))
        for b in d.get("blocks", ()):
            cell = acc.setdefault((str(b["function"]), str(b["block"])),
                                  [0, 0])
            cell[0] += int(b.get("cycles", 0))
            cell[1] += int(b.get("instructions", 0))
    blocks = [{"function": f, "block": blk, "cycles": cyc,
               "instructions": ins}
              for (f, blk), (cyc, ins) in acc.items()]
    blocks.sort(key=lambda b: (-b["cycles"], b["function"], b["block"]))
    return pgo_from_profile_dict({
        "tag": tag, "runs": runs, "total_cycles": total_cycles,
        "total_instructions": total_instructions, "blocks": blocks})


def cmd_report(args: argparse.Namespace) -> int:
    events = load_jsonl(args.trace)
    if args.pgo:
        _write_pgo(_merged_pgo_from_events(events), args.pgo,
                   quiet=args.json)
    summary = summarize(events, top=args.top)
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(render_text(summary, top=args.top))
    return 0


def cmd_trajectory(args: argparse.Namespace) -> int:
    if args.check:
        paths = args.files or default_trajectories()
        if not paths:
            print("trajectory check: no BENCH_*.json files found",
                  file=sys.stderr)
            return 1
        failed = 0
        for path, issues in validate_trajectories(paths).items():
            if issues:
                failed += 1
                for issue in issues:
                    print(f"FAIL {issue}", file=sys.stderr)
            elif not args.quiet:
                print(f"ok   {path}")
        if failed:
            print(f"trajectory check: {failed}/{len(paths)} file(s) "
                  "malformed or empty", file=sys.stderr)
            return 1
        if not args.quiet:
            print(f"trajectory check: {len(paths)} file(s) valid")
        return 0

    source, stdin = _workload_source(args.workload)
    configs = tuple(c.strip() for c in args.configs.split(",") if c.strip())
    point: dict = {
        "date": time.strftime("%Y-%m-%d"),
        "workload": args.workload,
        "model": args.model,
        "label": args.label,
        "configs": {},
    }
    for config_name in configs:
        # The sentinel's own measurement, so trajectory points and the
        # fresh runs gated against them are taken the same way.
        cell, issues = _measure(source, stdin, config_name, args.model,
                                args.gc_interval, DEFAULT_REPEATS)
        if issues:
            for issue in issues:
                print(f"error: {issue}", file=sys.stderr)
            return 1
        point["configs"][config_name] = cell
        if not args.quiet:
            print(f"{args.workload}/{config_name}/{args.model}: "
                  f"cycles={cell['cycles']} wall={cell['wall_s']:.2f}s "
                  f"gc_pause={cell['gc_pause_ns'] / 1e6:.2f}ms "
                  f"collections={cell['collections']}", flush=True)

    try:
        with open(args.out) as fh:
            doc = json.load(fh)
        if doc.get("schema") != TRAJECTORY_SCHEMA:
            raise SystemExit(f"error: {args.out} has unexpected schema "
                             f"{doc.get('schema')!r}")
    except FileNotFoundError:
        doc = {"schema": TRAJECTORY_SCHEMA, "points": []}
    doc["points"].append(point)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not args.quiet:
        print(f"appended trajectory point #{len(doc['points'])} to {args.out}")
    return 0


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
        trajectories=args.files or None, wall_slack=args.wall_slack,
        mad_k=args.mad_k, strict_wall=args.strict_wall,
        append=args.append, label=args.label, quiet=args.quiet)
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
    p.add_argument("--pgo-out", default=None, metavar="FILE",
                   help=f"write the per-block profile as a {PGO_SCHEMA} "
                        "envelope for superinstruction fusion")
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
    p.add_argument("--pgo", default=None, metavar="FILE",
                   help=f"extract the trace's vm.profile instants into "
                        f"a {PGO_SCHEMA} envelope")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("trajectory",
                       help="append a perf-trajectory point to BENCH_obs.json "
                            "or validate trajectories (--check)")
    p.add_argument("files", nargs="*", metavar="FILE",
                   help="trajectory files for --check "
                        "(default: every BENCH_*.json)")
    p.add_argument("--check", action="store_true",
                   help="schema-validate trajectories instead of recording; "
                        "exits non-zero on malformed/empty files")
    p.add_argument("--workload", default="cfrac")
    p.add_argument("--model", choices=tuple(MODELS), default="ss10")
    p.add_argument("--configs", default=",".join(DEFAULT_CONFIGS))
    p.add_argument("--gc-interval", type=int, default=0)
    p.add_argument("--out", default="BENCH_obs.json")
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
                       help="compare a fresh run against the BENCH_*.json "
                            "trajectories (perf-regression gate)")
    p.add_argument("files", nargs="*", metavar="FILE",
                   help="trajectory files (default: every BENCH_*.json)")
    p.add_argument("--workload", default="cfrac")
    p.add_argument("--model", choices=tuple(MODELS), default="ss10")
    p.add_argument("--configs", default=",".join(DEFAULT_CONFIGS))
    p.add_argument("--gc-interval", type=int, default=0)
    p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                   help="min-of-N wall measurement (default %(default)s)")
    p.add_argument("--wall-slack", type=float, default=0.5,
                   help="relative wall tolerance floor (default 0.5)")
    p.add_argument("--mad-k", type=float, default=3.0,
                   help="MAD multiplier for the wall bound (default 3)")
    p.add_argument("--strict-wall", action="store_true",
                   help="wall regressions fail the verdict (default: "
                        "advisory; only counts gate)")
    p.add_argument("--append", action="store_true",
                   help="append the fresh point to the trajectory when green")
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
