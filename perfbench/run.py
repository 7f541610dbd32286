"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 30 --trace 0

Run from a checkout's root; the toolchain is imported from ``src/`` next
to this directory, never from an installed copy (without ``src/`` the
run exits non-zero and prints no result).

A run sets up (imports, source loading or generation, a warm-up), then
repeats passes over the workload's inputs while the next pass still fits
in ``--seconds`` -- at least one.  Every operation's output is checked
against ``expected.json``.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  Only compile, VM-run and
annotation-pass calls are timed (for their latencies and the simulated
instruction rate).
``setup_s`` is the median of five set-ups, each in a fresh process:
this one and four children.

``--trace 1`` alternates untraced and traced passes (at least one of
each) and reports the per-layer metrics of the traced passes, per pass.
It also writes every span to ``.perfbench/trace-<workload>-<seed>.jsonl``
and reports the tracing overhead (traced minus untraced pass wall time).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5

#: The end-to-end metrics of the result line, in BENCHMARK.json order.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cells_per_s", "1/s"),
              ("compiles_per_s", "1/s"), ("annotate_ms_mean", "ms"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-matrix", "fuzz-oracle", "build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, exit")
    return parser.parse_args(argv)


def load_toolchain() -> None:
    """Put this checkout's ``src/`` first on the path and make sure the
    toolchain really comes from there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no toolchain sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    # find_spec locates the package without importing it: importing is
    # part of the timed set-up.
    origin = importlib.util.find_spec("repro").origin
    if os.path.dirname(os.path.abspath(origin)) != os.path.join(SRC, "repro"):
        raise SystemExit(f"error: repro resolves to {origin}, not to {SRC}")


def make_workload(args):
    from perfbench import workloads
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    return workloads.WORKLOADS[args.workload](args.seed,
                                              expected[args.workload])


def set_up(workload, rec=None, targets=()):
    """Imports, input preparation and warm-up; returns (reference-host
    seconds, patches).  ``targets`` are wrapped as soon as their modules
    are imported, so input generation is traced too."""
    from perfbench import trace, workloads
    before = workloads.host_sample()
    t0 = time.perf_counter()
    workloads.setup_imports()
    patches = trace.Patches(rec, targets) if targets else None
    workload.prepare()
    workloads.warm_up()
    raw = time.perf_counter() - t0
    return raw * workloads.speed_factor(before, workloads.host_sample()), \
        patches


def child_setup_s(args) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(workload, rec, seconds: float, traced_too: bool) -> list:
    """Passes until the next would overrun ``seconds`` (at least one;
    with ``traced_too`` untraced and traced alternate, at least one of
    each).  Returns ``[(PassResult, traced, (first span, end span))]``."""
    from perfbench import trace
    passes = []
    start = time.perf_counter()
    while True:
        traced = traced_too and len(passes) % 2 == 1
        patches = trace.Patches(rec, trace.TARGETS if traced else trace.PROBES)
        lo = len(rec.spans)
        try:
            result = workload.run_pass(rec)
        finally:
            patches.remove()
        passes.append((result, traced, (lo, len(rec.spans))))
        elapsed = time.perf_counter() - start
        next_s = statistics.median(r.raw_wall_s for r, _, _ in passes)
        if traced_too and len(passes) < 2:
            continue
        if elapsed + next_s > seconds:
            return passes


def _quantile(values, q):
    from perfbench.trace import _quantile
    return _quantile(values, q)


def end_to_end(passes, rec, setup_samples) -> dict[str, tuple]:
    """``name -> (value, unit, samples)`` from the untraced passes, in
    reference-host time."""
    plain = [(r, w) for r, traced, w in passes if not traced]
    results = [r for r, _ in plain]
    walls = [r.wall_s for r in results]
    compile_ns, annotate_ns, vm_ns, vm_insts = [], [], 0.0, 0
    for r, (lo, hi) in plain:
        for name, t0, t1, _, unit, value in rec.spans[lo:hi]:
            if name == "compile":
                compile_ns.append((t1 - t0) * r.factors[unit])
            elif name == "core.annotate":
                annotate_ns.append((t1 - t0) * r.factors[unit])
            elif name == "vm.run":
                vm_ns += (t1 - t0) * r.factors[unit]
                vm_insts += value[0] if value else 0
    compile_ms = [ns / 1e6 for ns in compile_ns]
    annotate_ms = [ns / 1e6 for ns in annotate_ns]
    cells = sum(r.cells for r in results)
    programs = [s for r in results for s in r.program_s]
    check = [ms * r.factors[u] for r in results for u, ms in r.check_ms]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_walls = [r.raw_wall_s for r in results]
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "cells_per_s": (cells / sum(walls), "1/s", cells),
        "compiles_per_s": (len(compile_ns) / (sum(compile_ns) / 1e9)
                           if compile_ns else 0.0, "1/s", len(compile_ns)),
        "annotate_ms_mean": (sum(annotate_ms) / len(annotate_ms), "ms",
                             len(annotate_ms)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        # Printed only.  Each latency below mixes operations of very
        # different sizes (four paper programs, six build sources, a
        # seed-drawn program mix), so its median jumps between them from
        # run to run, up to 20% at the baseline seeds, and a p90 has
        # fewer than ten samples beyond it on some workload.  The rest
        # apply to some workloads, not all, while the result line must
        # carry every declared metric on every workload; or they are
        # context for reading the others.
        "compile_ms_p50": (_quantile(compile_ms, 50), "ms", len(compile_ms)),
        "program_s_p50": (_quantile(programs, 50), "s", len(programs)),
        "annotate_ms_p50": (_quantile(annotate_ms, 50), "ms",
                            len(annotate_ms)),
        "compile_ms_p90": (_quantile(compile_ms, 90), "ms", len(compile_ms)),
        "program_s_p90": (_quantile(programs, 90), "s", len(programs)),
        "sim_minst_per_s": (vm_insts / 1e6 / (vm_ns / 1e9) if vm_ns else None,
                            "Minst/s", vm_insts),
        "check_ms_p50": (_quantile(check, 50) if check else None, "ms",
                         len(check)),
        "failed_ratio": (failed / attempted if attempted else None, "ratio",
                         attempted),
        "host_wall_s": (statistics.median(raw_walls), "s", len(raw_walls)),
        "host_speed": (sum(walls) / sum(raw_walls), "ratio", len(walls)),
    }


def write_spans(rec, args) -> str:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR,
                        f"trace-{args.workload}-{args.seed}.jsonl")
    base = rec.spans[0][1] if rec.spans else 0
    with open(path, "w") as fh:
        for name, t0, t1, parent, unit, _ in rec.spans:
            fh.write(json.dumps([name, t0 - base, t1 - base, parent, unit]))
            fh.write("\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    load_toolchain()
    from perfbench import trace
    workload = make_workload(args)
    rec = trace.Recorder()
    if args.setup_only:
        setup_s, _ = set_up(workload)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_s, patches = set_up(workload, rec,
                              trace.TARGETS if args.trace else ())
    setup_window = (0, len(rec.spans))
    if patches is not None:
        patches.remove()
    passes = measure(workload, rec, args.seconds, bool(args.trace))

    attempted = sum(r.attempted for r, _, _ in passes)
    failed = sum(r.failed for r, _, _ in passes)
    for r, _, _ in passes:
        for error in r.errors[:20]:
            print(f"check failed: {error}", file=sys.stderr)
    tag = f"{args.workload} seed={args.seed}"
    print(f"{tag}: {len(passes)} pass(es), {attempted} operations checked, "
          f"{failed} failed")
    if args.trace:
        traced = [(r, w) for r, t, w in passes if t]
        untraced = [(r.wall_s, r.raw_wall_s) for r, t, _ in passes if not t]
        metrics = trace.layer_metrics(
            rec.spans, [(lo, hi, r.factors) for r, (lo, hi) in traced],
            [r.wall_s for r, _ in traced], untraced, setup_window)
        for name, (value, unit) in metrics.items():
            print(f"{tag}  {name:28s} {value:14.4f} {unit}  "
                  f"(per pass, {len(traced)} traced pass(es))")
        print(f"{tag}  spans written to {write_spans(rec, args)}")
        result = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in metrics.items()}
    else:
        samples = [setup_s] + [child_setup_s(args)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(passes, rec, samples)
        for name, (value, unit, n) in metrics.items():
            shown = "-" if value is None else f"{value:14.4f}"
            print(f"{tag}  {name:16s} {shown:>14s} {unit}  (n={n})")
        result = {name: {"value": metrics[name][0], "unit": unit}
                  for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
