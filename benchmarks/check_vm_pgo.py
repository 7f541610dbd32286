#!/usr/bin/env python
"""CI gate: self-selecting superinstructions + allocation sinking must
actually buy raw VM speed — without moving a single observable count.

Three checks on the paper's hottest workload (cfrac at ``O``/ss10):

* **identity** — the default VM, whose hot runs fuse themselves, must
  fuse at least one run and be bit-identical in every observable (exit
  code, instructions, cycles, output, collections, pointer checks) to
  a profiled run, which stays unfused; a fused+sink run must keep exit
  code and output and must not *increase* collections.  Violations
  exit 2: a count mismatch is a correctness bug, not a perf
  regression.
* **allocation sinking payoff** — the ``scratch`` workload (short-lived
  constant-size buffers) must show strictly fewer collections with the
  pass applied.  Exit 1 on violation.
* **wall clock** — interleaved min-of-N (default 3) wall times of the
  interpreter loop, plain (the child sets ``superinst.FUSE_AFTER = 0``)
  vs the default VM with sinking, each sample a fresh subprocess child
  printing a JSON line; the speedup must reach --min-speedup
  (default 1.5).  Interleaving cancels slow drift (thermal, noisy
  neighbors); min-of-N cancels one-off stalls.  Exit 1 on violation,
  or pass --skip-wall (e.g. on known-noisy runners) to print SKIP and
  gate only on identity + sinking.

Appends one record to --out (default BENCH_vm2.json) so the speedup has
a history, like BENCH_exec.json / BENCH_obs.json.

    python benchmarks/check_vm_pgo.py
    python benchmarks/check_vm_pgo.py --repeats 5 --min-speedup 1.5
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.machine import superinst  # noqa: E402
from repro.machine.driver import CompileConfig, compile_source  # noqa: E402
from repro.machine.models import MODELS  # noqa: E402
from repro.machine.vm import VM  # noqa: E402
from repro.obs.vmprof import VMProfile  # noqa: E402
from repro.postproc.sink import sink_program  # noqa: E402
from repro.workloads import load_workload  # noqa: E402

WORKLOAD = "cfrac"
SINK_WORKLOAD = "scratch"
CONFIG = "O"
MODEL = "ss10"


def run_key(result) -> tuple:
    return (result.exit_code, result.instructions, result.cycles,
            result.output, result.collections, result.checks)


def compile_workload(name: str):
    model = MODELS[MODEL]
    return compile_source(load_workload(name),
                          CompileConfig.named(CONFIG, model)), model


def child_main(mode: str) -> int:
    """One timing sample: compile outside the clock, time only the
    interpreter loop (fusion included), print a JSON line."""
    compiled, model = compile_workload(WORKLOAD)
    if mode == "plain":
        superinst.FUSE_AFTER = 0
    else:
        sink_program(compiled.asm)
    vm = VM(compiled.asm, model)
    t0 = time.perf_counter()
    result = vm.run()
    wall = time.perf_counter() - t0
    print(json.dumps({"mode": mode, "wall_s": wall,
                      "exit_code": result.exit_code}))
    return 0


def sample(mode: str) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", mode],
        capture_output=True, text=True, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["wall_s"])


def check_identity() -> tuple[list[str], dict]:
    """The bit-identity and collections checks; returns (mismatch
    descriptions, measured counters for the record)."""
    mismatches: list[str] = []
    compiled, model = compile_workload(WORKLOAD)
    base = VM(compiled.asm, model, profile=VMProfile()).run()

    fused_vm = VM(compiled.asm, model)
    fused = fused_vm.run()
    if fused_vm.fused_runs < 1:
        mismatches.append(f"{WORKLOAD}: no run fused itself")
    if run_key(fused) != run_key(base):
        mismatches.append(
            f"{WORKLOAD}: fused observables differ from the profiled "
            f"run: {run_key(fused)} != {run_key(base)}")

    sunk_prog, _ = compile_workload(WORKLOAD)
    sink_stats = sink_program(sunk_prog.asm)
    both = VM(sunk_prog.asm, model).run()
    if (both.exit_code, both.output) != (base.exit_code, base.output):
        mismatches.append(
            f"{WORKLOAD}: fused+sink changed the answer: "
            f"exit {both.exit_code} vs {base.exit_code}")
    if both.collections > base.collections:
        mismatches.append(
            f"{WORKLOAD}: sinking increased collections "
            f"({base.collections} -> {both.collections})")

    counters = {
        "fused_runs": fused_vm.fused_runs,
        "base_cycles": base.cycles,
        "base_collections": base.collections,
        "fused_sink_cycles": both.cycles,
        "fused_sink_collections": both.collections,
        "cfrac_sink_stats": {"sunk": sink_stats.sunk,
                             "eliminated": sink_stats.eliminated,
                             "bytes_sunk": sink_stats.bytes_sunk},
    }
    return mismatches, counters


def check_sink_payoff() -> tuple[list[str], dict]:
    """scratch@O: the sinking pass must strictly reduce collections."""
    failures: list[str] = []
    base_prog, model = compile_workload(SINK_WORKLOAD)
    base = VM(base_prog.asm, model).run()
    sunk_prog, _ = compile_workload(SINK_WORKLOAD)
    stats = sink_program(sunk_prog.asm)
    sunk = VM(sunk_prog.asm, model).run()
    if (sunk.exit_code, sunk.output) != (base.exit_code, base.output):
        failures.append(f"{SINK_WORKLOAD}: sinking changed the answer")
    if stats.sunk < 1:
        failures.append(f"{SINK_WORKLOAD}: nothing sank ({stats})")
    if sunk.collections >= base.collections:
        failures.append(
            f"{SINK_WORKLOAD}: collections not reduced "
            f"({base.collections} -> {sunk.collections})")
    counters = {
        "scratch_sunk": stats.sunk,
        "scratch_collections_base": base.collections,
        "scratch_collections_sunk": sunk.collections,
        "scratch_cycles_base": base.cycles,
        "scratch_cycles_sunk": sunk.cycles,
    }
    return failures, counters


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3,
                    help="interleaved samples per side (min is taken)")
    ap.add_argument("--min-speedup", type=float, default=1.5)
    ap.add_argument("--skip-wall", action="store_true",
                    help="skip the wall-clock gate (identity + sinking "
                         "still checked)")
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_vm2.json"))
    ap.add_argument("--label", default="")
    ap.add_argument("--child", default=None, choices=("plain", "fused"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args.child)

    mismatches, counters = check_identity()
    sink_failures, sink_counters = check_sink_payoff()
    counters.update(sink_counters)

    plain_times: list[float] = []
    fused_times: list[float] = []
    speedup = None
    if not args.skip_wall:
        for _ in range(args.repeats):
            plain_times.append(sample("plain"))
            fused_times.append(sample("fused"))
        speedup = min(plain_times) / min(fused_times)

    record = {
        "schema": "repro-vm2-bench/1",
        "label": args.label,
        "workload": WORKLOAD,
        "config": CONFIG,
        "model": MODEL,
        "repeats": args.repeats,
        "plain_wall_s": [round(t, 4) for t in plain_times],
        "fused_sink_wall_s": [round(t, 4) for t in fused_times],
        "speedup": round(speedup, 3) if speedup is not None else None,
        "identity_ok": not mismatches,
        **counters,
    }
    history = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            history = json.load(fh)
    history.append(record)
    with open(args.out, "w") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")

    for m in mismatches:
        print(f"MISMATCH: {m}")
    if mismatches:
        return 2
    failures = list(sink_failures)
    if speedup is not None and speedup < args.min_speedup:
        failures.append(f"speedup {speedup:.2f}x < "
                        f"{args.min_speedup:.1f}x "
                        f"(plain min {min(plain_times):.3f}s, fused+sink "
                        f"min {min(fused_times):.3f}s)")
    verdict = "FAIL" if failures else ("SKIP(wall)" if speedup is None
                                       else "OK")
    wall_note = (f"{min(plain_times):.3f}s -> {min(fused_times):.3f}s "
                 f"({speedup:.2f}x)" if speedup is not None
                 else "wall gate skipped")
    print(f"{verdict}: {WORKLOAD}@{CONFIG}/{MODEL} {wall_note}; "
          f"counts {'identical' if not mismatches else 'DIFFER'}; "
          f"{SINK_WORKLOAD} collections "
          f"{counters['scratch_collections_base']} -> "
          f"{counters['scratch_collections_sunk']} -> {args.out}")
    for failure in failures:
        print(f"  - {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
