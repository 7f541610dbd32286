"""``repro chaos`` — prove the harness survives its own hostile windows.

    python -m repro chaos --seed 0 --workers 4
    python -m repro chaos --faults 'worker_crash@shard2,cache_corrupt@3,\
pipe_drop@0.1,slow_worker@shard1:5x' --suite bench --json

Two phases over one throwaway cache root:

1. **Reference**: the bench slowdown table and/or a fuzz campaign run
   fault-free (this also warms the content-addressed caches).
2. **Faulted**: the same matrix under the seeded fault plan, with a
   metrics registry on so every forked run adds its recovery totals.

The gate is byte-identity: workers may die, pipes may rot, cache reads
may corrupt — the merged reports must not change by a single byte,
because every task is a pure function of its payload and the engine
merges in canonical order.  Exit 0 iff every suite is identical (and
the faulted run completed); the recovery counters (retries, worker
deaths, quarantines, breaker trips, degraded flag) come from the
faulted phase's registry and cache tiers' stats
(:func:`repro.obs.report.resil_counts`) and are printed, or emitted in
a ``repro-chaos/1`` JSON envelope.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile

from ..api import envelopes
from ..api.build import TABLE_KEYS
from ..cliutil import add_report_flags
from ..exec import cache as exec_cache
from ..exec import engine
from ..obs import runtime as obs_runtime
from ..obs.report import resil_counts
from . import inject
from .plan import FaultSpecError, parse_faults

#: Covers all four seams: worker death, cache corruption, pipe loss,
#: and a slow worker (exercising reassignment under skew).
DEFAULT_FAULTS = ("worker_crash@shard1,cache_corrupt@2-4,"
                  "pipe_drop@0.05,slow_worker@shard0:2x")
CHAOS_SCHEMA = envelopes.CHAOS


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _bench_bytes(args: argparse.Namespace) -> str:
    from ..api import Toolchain
    from ..bench.tables import render_slowdown_table
    from ..machine.models import MODELS
    tc = Toolchain(model=args.model, workers=args.workers)
    workloads = (tuple(args.workloads.split(","))
                 if args.workloads else None)
    rows = tc.bench(workloads)
    return render_slowdown_table(
        rows, TABLE_KEYS[args.model], f"Slowdowns on {MODELS[args.model].name}")


def _fuzz_bytes(args: argparse.Namespace) -> str:
    from ..api import Toolchain
    tc = Toolchain(model=args.model, workers=args.workers)
    return tc.fuzz(seed=args.seed, iters=args.iters).report()


_SUITES = {"bench": _bench_bytes, "fuzz": _fuzz_bytes}


def cmd_chaos(args: argparse.Namespace) -> int:
    try:
        plan = parse_faults(args.faults, seed=args.seed)
    except FaultSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    suites = tuple(_SUITES) if args.suite == "both" else (args.suite,)
    root = tempfile.mkdtemp(prefix="repro-chaos-")
    report = envelopes.make(envelopes.CHAOS, {
        "seed": args.seed, "workers": args.workers,
        "faults": plan.to_json(), "suites": {}, "ok": True})
    try:
        with exec_cache.cache_context(*exec_cache.open_caches(root)):
            reference = {name: _SUITES[name](args) for name in suites}

        metrics_out = getattr(args, "metrics_out", None)
        metrics = obs_runtime.enable_metrics(out=metrics_out)
        faulted: dict[str, str] = {}
        error: str | None = None
        try:
            with inject.plan_context(plan), \
                 exec_cache.cache_context(*exec_cache.open_caches(root)), \
                 engine.task_timeout_context(args.task_timeout):
                for name in suites:
                    try:
                        faulted[name] = _SUITES[name](args)
                    except Exception as exc:  # resilience failed outright
                        error = f"{name}: {type(exc).__name__}: {exc}"
                        break
                cache_stats = exec_cache.tier_stats()
            metrics.flush()
        finally:
            obs_runtime.reset()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    report["resil"] = resil_counts(metrics, cache_stats)
    report["cache"] = cache_stats
    report["metrics"] = metrics.to_dict()
    if metrics_out:
        print(f"! metrics written to {metrics_out}", file=sys.stderr)
    if error is not None:
        report["ok"] = False
        report["error"] = error
    for name in suites:
        ref = reference[name]
        got = faulted.get(name)
        identical = got == ref
        report["suites"][name] = {
            "sha256": _sha(ref), "identical": identical,
            "faulted_sha256": None if got is None else _sha(got)}
        if not identical:
            report["ok"] = False

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1

    print(f"chaos: seed {args.seed}, {args.workers} workers, "
          f"faults {plan.describe()}")
    for name in suites:
        cell = report["suites"][name]
        verdict = ("identical" if cell["identical"]
                   else "MISMATCH" if cell["faulted_sha256"] else "FAILED")
        print(f"  {name:5s} {verdict}  (reference sha256 "
              f"{cell['sha256'][:16]})")
    r = report["resil"]
    if r:
        print(f"  resil retries={r['retries']} "
              f"worker_deaths={r['worker_deaths']} "
              f"quarantined={r['quarantined']} "
              f"dropped={r['dropped_messages']} "
              f"breaker_trips={r['breaker_trips']} "
              f"write_errors={r['cache_write_errors']} "
              f"degraded={'yes' if r['degraded'] else 'no'}")
    else:
        print("  resil (no recovery events — did the plan fire?)")
    if error is not None:
        print(f"  error: {error}", file=sys.stderr)
    print("chaos: OK — reports byte-identical under faults"
          if report["ok"] else "chaos: FAILED", file=sys.stderr)
    return 0 if report["ok"] else 1


def add_chaos_parser(sub) -> None:
    p = sub.add_parser(
        "chaos",
        help="run bench/fuzz under a fault plan; gate on byte-identity")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed (also the fuzz campaign seed)")
    p.add_argument("--faults", default=DEFAULT_FAULTS,
                   help=f"fault spec (default: {DEFAULT_FAULTS})")
    p.add_argument("--suite", choices=("both", "bench", "fuzz"),
                   default="both")
    add_report_flags(p, json_schema=envelopes.CHAOS, workers_default=4)
    p.add_argument("--model", default="ss10")
    p.add_argument("--workloads", default="",
                   help="comma-separated bench workloads (default: all)")
    p.add_argument("--iters", type=int, default=15,
                   help="fuzz iterations per phase")
    p.add_argument("--task-timeout", type=float, default=30.0,
                   help="per-task hang timeout under faults (seconds)")
    p.set_defaults(fn=cmd_chaos)
