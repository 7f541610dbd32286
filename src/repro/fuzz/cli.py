"""``python -m repro.fuzz`` — run a differential fuzzing campaign.

    python -m repro.fuzz --seed 0 --iters 500
        Fuzz 500 generated programs through the five-config oracle
        (exit status 1 if any differential mismatch was found).

    python -m repro.fuzz --seed 0 --iters 500 --reduce --out findings/
        Same, but delta-debug every finding to a minimal reproducer and
        write <source, minimized, report> files under findings/.

    python -m repro.fuzz --replay prog.c
        Run one existing program through the full oracle (for triage).

``--trace FILE`` / ``--profile`` / ``--metrics-out FILE`` attach the
repro.obs telemetry layer: the trace records per-stage campaign timings
and every compile/GC/VM event; the profile aggregates VM hot spots
across all oracle cells; the metrics snapshot captures campaign-wide
counters and latency histograms (watch with ``repro obs top FILE``).
"""

from __future__ import annotations

import argparse
import os
import sys

from ..api import Toolchain
from ..api.build import dumps_canonical, fuzz_envelope
from ..cliutil import add_report_flags, obs_session
from ..exec import cache as exec_cache
from ..exec.cli import resolve_cache_dir
from ..machine.models import MODELS
from .gen import GenOptions
from .oracle import check_program, mismatch_predicate
from .reduce import ReduceStats, reduce_source


def _parse_models(text: str) -> tuple[str, ...]:
    models = tuple(m.strip() for m in text.split(",") if m.strip())
    for m in models:
        if m not in MODELS:
            raise argparse.ArgumentTypeError(
                f"unknown model {m!r} (expected from {tuple(MODELS)})")
    return models


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing: five build configs x machine "
                    "models must agree; GC-safe configs must survive an "
                    "adversarial collector (gc_interval=1, poisoning).")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; iteration k fuzzes program seed+k")
    p.add_argument("--iters", type=int, default=100,
                   help="number of generated programs to check")
    p.add_argument("--models", type=_parse_models, default=("ss10", "ss2", "p90"),
                   help="comma-separated machine models (default: all three)")
    p.add_argument("--adv-interval", type=int, default=1,
                   help="adversarial collection interval in instructions")
    p.add_argument("--reduce", action="store_true",
                   help="delta-debug each finding to a minimal reproducer")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write finding artifacts (source/minimized/report)")
    p.add_argument("--keep-going", action="store_true",
                   help="do not stop at the first finding")
    p.add_argument("--max-statements", type=int, default=None,
                   help="cap generated statements per program")
    p.add_argument("--max-instructions", type=int, default=5_000_000)
    add_report_flags(p, json_schema="repro-fuzz/1")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed compile cache root "
                        "(default: $REPRO_CACHE_DIR)")
    p.add_argument("--replay", metavar="FILE", default=None,
                   help="oracle-check one existing .c file and exit")
    p.add_argument("--rebreak-addrfold", action="store_true",
                   help="TEST ONLY: reintroduce the PR 1 addrfold aliasing "
                        "bug to validate the oracle/reducer pipeline")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a JSONL telemetry trace of the campaign")
    p.add_argument("--profile", action="store_true",
                   help="print the aggregate VM hot-spot profile to stderr")
    p.add_argument("--quiet", action="store_true")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    quiet = args.quiet or args.json  # --json owns stdout
    log = (lambda msg: None) if quiet else (lambda msg: print(msg, flush=True))

    def execute() -> int:
        if args.replay:
            with open(args.replay) as fh:
                source = fh.read()
            report = check_program(source, models=args.models,
                                   adv_interval=args.adv_interval,
                                   max_instructions=args.max_instructions,
                                   workers=args.workers)
            print(report.describe())
            if not report.ok and args.reduce:
                stats = ReduceStats()
                pred = mismatch_predicate(
                    report.mismatches[0].signature(),
                    max_instructions=args.max_instructions,
                    adv_interval=args.adv_interval)
                minimized = reduce_source(source, pred, stats=stats)
                print(f"--- minimized {stats.lines_before} -> "
                      f"{stats.lines_after} lines ({stats.tests} tests) ---")
                print(minimized, end="")
            return 0 if report.ok else 1

        gen_options = GenOptions()
        if args.max_statements is not None:
            gen_options.max_statements = args.max_statements
            gen_options.min_statements = min(gen_options.min_statements,
                                             args.max_statements)
        result = Toolchain(workers=args.workers).fuzz(
            seed=args.seed, iters=args.iters, models=args.models,
            adv_interval=args.adv_interval, reduce=args.reduce,
            out_dir=args.out, gen_options=gen_options,
            stop_after=None if args.keep_going else 1,
            max_instructions=args.max_instructions, log=log)
        if args.json:
            print(dumps_canonical(fuzz_envelope(result)))
            return 0 if result.ok else 1
        verdict = ("zero differential mismatches"
                   if result.ok else f"{len(result.findings)} finding(s)")
        log(f"checked {result.iterations} programs "
            f"({result.cells} oracle cells): {verdict}")
        t = result.telemetry
        if t:
            log(f"stage wall: gen {t['gen_s']:.2f}s, "
                f"oracle {t['oracle_s']:.2f}s, reduce {t['reduce_s']:.2f}s")
        return 0 if result.ok else 1

    cache_dir = resolve_cache_dir(args.cache_dir)
    caches = ()
    if cache_dir:
        caches = (exec_cache.CompileCache(
            os.path.join(cache_dir, "compile")),)
        for cache in caches:
            exec_cache.install_cache(cache)
    try:
        with obs_session(args.trace, args.profile, args.metrics_out):
            if args.rebreak_addrfold:
                from .brokenpass import rebroken_addrfold
                log("WARNING: running with the addrfold aliasing bug "
                    "re-broken (test-only mode)")
                with rebroken_addrfold():
                    return execute()
            return execute()
    finally:
        for cache in caches:
            s = cache.stats
            print(f"! cache[{cache.kind}]: {s.hits} hits, {s.misses} misses, "
                  f"{s.stores} stores", file=sys.stderr)
        if caches:
            exec_cache.uninstall_cache()


if __name__ == "__main__":
    sys.exit(main())
