"""Command-line interface — the paper's tools as commands.

    python -m repro annotate [--mode safe|checked] file.c
        The preprocessor: print the annotated source.

    python -m repro check file.c
        Source-safety diagnostics only.

    python -m repro cc [--config O0|O|O_safe|g|g_checked] [--model ss2|ss10|p90]
                       [--postproc] [--sink] [--gc-interval N]
                       [--stdin FILE] [--dump-asm] file.c
        Compile and execute on the simulated machine; print the program
        output and a run summary.  ``--sink`` runs the escape-analysis
        allocation-sinking pass; ``--gc-interval N`` collects
        asynchronously every N instructions.

    python -m repro bench [--model ss10] [--workloads w1,w2,...]
                          [--workers N] [--cache-dir DIR] [--sink]
        Print the slowdown table for one machine model; ``--workers``
        shards the cells across processes (byte-identical table).

    python -m repro cache stats|clear|verify [--cache-dir DIR]
        Inspect / wipe / checksum-verify the content-addressed caches.

    python -m repro chaos [--seed N] [--faults SPEC] [--workers N]
        Run the bench/fuzz matrix under a deterministic fault plan and
        assert the reports are byte-identical to the fault-free run.

    python -m repro serve [start|load|call ...]
        The multi-tenant toolchain daemon (and its deterministic load
        generator) — every job answers with the same envelope bytes
        the commands above print under ``--json``; see docs/SERVE.md.

The commands are thin shells over :class:`repro.api.Toolchain` — one
options bag, one facade; anything a command does is equally scriptable.
Report-emitting subcommands share one flag trio (``--json`` /
``--metrics-out`` / ``--workers``, :mod:`repro.cliutil`) and
machine-readable outputs carry a ``{"schema": "repro-<name>/<v>"}``
envelope from the registry of record, :mod:`repro.api.envelopes`
(rendered in docs/ARCHITECTURE.md); the JSON bytes are built by
:mod:`repro.api.build`, the same builders the serve daemon answers
with.

Every subcommand also accepts the telemetry flags ``--trace FILE``
(write a JSONL trace of compile-pipeline spans, GC pauses, and VM runs;
load in ``python -m repro.obs report`` or convert for chrome://tracing),
``--profile`` (print the VM hot-spot table to stderr on exit), and
``--metrics-out FILE`` (write a ``repro-obs-metrics/1`` snapshot of the
run's counters/gauges/latency histograms — watch live with
``python -m repro.obs top FILE``); ``cc`` and ``bench`` accept
``--cache-dir DIR`` to memoize compiles and executed benchmark cells
across invocations.
"""

from __future__ import annotations

import argparse
import sys

from .api import Toolchain
from .api.build import (
    annotate_envelope, bench_envelope, check_envelope, dumps_canonical,
    run_envelope,
)
from .core.annotate import AnnotateOptions
from .exec import cache as exec_cache
from .exec.cli import add_cache_parser, resolve_cache_dir
from .machine.driver import compile_source
from .machine.models import MODELS
from .cliutil import (add_cache_flags, add_obs_flags, add_report_flags,
                      obs_session, read_text, run_main, usage_error)
from .resil.cli import add_chaos_parser
from .serve.cli import add_serve_parser


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return read_text(path)


def cmd_annotate(args: argparse.Namespace) -> int:
    source = _read(args.file)
    options = AnnotateOptions(
        mode=args.mode,
        suppress_copies=not args.no_copy_suppression,
        expand_incdec=not args.no_incdec,
        base_heuristic=not args.no_heuristic,
        call_safe_points=args.call_safe_points,
    )
    tc = Toolchain(mode=args.mode, run_cpp=not args.no_cpp, annotate=options)
    result = tc.annotate(source)
    if args.json:
        print(dumps_canonical(annotate_envelope(source, args.mode, result)))
        return 0
    if args.warnings:
        for diag in result.diagnostics:
            print(diag.render(source), file=sys.stderr)
    print(result.text, end="" if result.text.endswith("\n") else "\n")
    if args.stats:
        print(f"! {result.stats}", file=sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    source = _read(args.file)
    diags = Toolchain(run_cpp=not args.no_cpp).check(source)
    if args.json:
        print(dumps_canonical(check_envelope(source, diags)))
        return 1 if diags else 0
    for diag in diags:
        print(diag.render(source))
    return 1 if diags else 0


def cmd_cc(args: argparse.Namespace) -> int:
    source = _read(args.file)
    tc = Toolchain(config=args.config, model=args.model,
                   gc_interval=args.gc_interval, poison=args.poison,
                   sink=args.sink)
    config = tc.compile_config()
    config.peephole = args.postproc
    compiled = compile_source(source, config)
    if args.postproc:
        print(f"! postprocessor: {compiled.peephole_stats}", file=sys.stderr)
    if args.sink:
        print(f"! sink: {compiled.sink_stats}", file=sys.stderr)
    if args.dump_asm:
        print(compiled.asm.render())
        return 0
    result = tc.execute(compiled, stdin=_read(args.stdin) if args.stdin else "")
    if result.status == "check":
        print(f"! pointer check failed: {result.detail}", file=sys.stderr)
        return 3
    if result.status != "ok":
        print(f"error: {result.detail}", file=sys.stderr)
        return 2
    if args.json:
        print(dumps_canonical(run_envelope(
            result, compiled.asm.code_size(), args.config, args.model)))
        return result.exit_code & 0xFF
    sys.stdout.write(result.output)
    print(f"! exit={result.exit_code} instructions={result.instructions} "
          f"cycles={result.cycles} collections={result.collections} "
          f"code_size={compiled.asm.code_size()}", file=sys.stderr)
    return result.exit_code & 0xFF


def cmd_bench(args: argparse.Namespace) -> int:
    tc = Toolchain(model=args.model, workers=args.workers, sink=args.sink)
    workloads = tuple(args.workloads.split(",")) if args.workloads else None
    try:
        rows = tc.bench(workloads)
    except KeyError as exc:  # as serve's bench job reports it
        usage_error(f"unknown workload {exc.args[0]!r}")
    envelope = bench_envelope(rows, args.model)
    if args.json:
        print(dumps_canonical(envelope))
        return 0
    print(envelope["table"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simple Garbage-Collector-Safety (Boehm, PLDI 1996) tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="annotate C source (the preprocessor)")
    p.add_argument("file")
    p.add_argument("--mode", choices=("safe", "checked"), default="safe")
    p.add_argument("--no-cpp", action="store_true")
    p.add_argument("--no-copy-suppression", action="store_true")
    p.add_argument("--no-incdec", action="store_true")
    p.add_argument("--no-heuristic", action="store_true")
    p.add_argument("--call-safe-points", action="store_true")
    p.add_argument("--warnings", action="store_true")
    p.add_argument("--stats", action="store_true")
    add_report_flags(p, json_schema="repro-annotate/1")
    add_obs_flags(p)
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("check", help="source-safety diagnostics")
    p.add_argument("file")
    p.add_argument("--no-cpp", action="store_true")
    add_report_flags(p, json_schema="repro-check/1")
    add_obs_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("cc", help="compile and run on the simulated machine")
    p.add_argument("file")
    p.add_argument("--config", choices=("O0", "O", "O_safe", "g", "g_checked"),
                   default="O")
    p.add_argument("--model", choices=tuple(MODELS), default="ss10")
    p.add_argument("--postproc", action="store_true")
    p.add_argument("--sink", action="store_true",
                   help="run the escape-analysis allocation-sinking pass")
    p.add_argument("--gc-interval", type=int, default=0, metavar="N",
                   help="force a collection every N instructions "
                        "(default 0: none forced)")
    p.add_argument("--poison", action="store_true")
    p.add_argument("--stdin")
    p.add_argument("--dump-asm", action="store_true")
    add_report_flags(p, json_schema="repro-run/1")
    add_obs_flags(p)
    add_cache_flags(p)
    p.set_defaults(fn=cmd_cc)

    p = sub.add_parser("bench", help="print one slowdown table")
    p.add_argument("--model", choices=tuple(MODELS), default="ss10")
    p.add_argument("--workloads", default="")
    p.add_argument("--sink", action="store_true",
                   help="run the escape-analysis allocation-sinking pass "
                        "on every cell")
    add_report_flags(p, json_schema="repro-bench/1")
    add_obs_flags(p)
    add_cache_flags(p)
    p.set_defaults(fn=cmd_bench)

    add_cache_parser(sub)
    add_chaos_parser(sub)
    add_serve_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_file = getattr(args, "trace", None)
    profile_on = getattr(args, "profile", False)
    # chaos resets the obs runtime internally (two-phase run), so it
    # wires --metrics-out itself in cmd_chaos.
    metrics_out = (getattr(args, "metrics_out", None)
                   if args.command not in ("chaos", "serve") else None)
    # cache manages tiers explicitly; chaos and serve own their roots
    cache_dir = (resolve_cache_dir(getattr(args, "cache_dir", None))
                 if args.command not in ("cache", "chaos", "serve")
                 else None)
    caches = ()
    if cache_dir:
        caches = exec_cache.open_caches(cache_dir)
        for cache in caches:
            exec_cache.install_cache(cache)

    def command() -> int:
        with obs_session(trace_file, profile_on, metrics_out):
            return args.fn(args)

    try:
        return run_main(command)
    finally:
        for cache in caches:
            s = cache.stats
            print(f"! cache[{cache.kind}]: {s.hits} hits, {s.misses} misses, "
                  f"{s.stores} stores, {s.corrupt_evicted} evicted",
                  file=sys.stderr)
        if caches:
            exec_cache.uninstall_cache()


if __name__ == "__main__":
    sys.exit(main())
