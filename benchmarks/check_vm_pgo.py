#!/usr/bin/env python
"""CI gate: self-selecting superinstructions + allocation sinking must
actually buy raw VM speed — without moving a single observable count.

Three checks on the paper's hottest workload (cfrac at ``O``/ss10),
judged as one ``vm2`` record against the ``repro.obs.sentinel.RULES``:

* **identity** — the default VM, whose hot runs fuse themselves, must
  fuse at least one run and be bit-identical in every observable (exit
  code, instructions, cycles, output, collections, pointer checks) to
  a profiled run, which stays unfused; a fused+sink run must keep exit
  code and output and must not *increase* collections, and sinking
  must not change the ``scratch`` workload's answer.  The record's
  counts (those of the profiled run) must also equal every committed
  record of cfrac/O/ss10.  Violations exit 2: a count mismatch is a
  correctness bug, not a perf regression.
* **allocation sinking payoff** — the ``scratch`` workload (short-lived
  constant-size buffers) must show strictly fewer collections with the
  pass applied.  Exit 1 on violation.
* **wall clock** — interleaved min-of-N (default 3) wall times of the
  interpreter loop, plain (the child sets ``superinst.FUSE_AFTER = 0``)
  vs the default VM with sinking, each sample a fresh subprocess child
  printing a JSON line; the speedup must reach the rule's 1.5x.
  Interleaving cancels slow drift (thermal, noisy neighbors); min-of-N
  cancels one-off stalls.  Exit 1 on violation.

A passing record is appended to --out (default: the repo's
BENCH.jsonl) so the speedup has a history.

    python benchmarks/check_vm_pgo.py
    python benchmarks/check_vm_pgo.py --repeats 5
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
from repro.obs.sentinel import (  # noqa: E402
    TRAJECTORY, append_record, exit_code, failures, make_record,
)
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


def check_identity() -> tuple[list[str], dict, dict]:
    """The bit-identity and collections checks; returns (mismatch
    descriptions, the profiled run's counts, measured counters for the
    record)."""
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

    counts = {"exit_code": base.exit_code, "cycles": base.cycles,
              "instructions": base.instructions,
              "collections": base.collections, "checks": base.checks}
    counters = {
        "fused_runs": fused_vm.fused_runs,
        "fused_sink_cycles": both.cycles,
        "fused_sink_collections": both.collections,
        "cfrac_sink_stats": {"sunk": sink_stats.sunk,
                             "eliminated": sink_stats.eliminated,
                             "bytes_sunk": sink_stats.bytes_sunk},
    }
    return mismatches, counts, counters


def check_sink_payoff() -> tuple[list[str], dict]:
    """scratch@O with and without the sinking pass; returns (mismatch
    descriptions, measured counters for the record)."""
    mismatches: list[str] = []
    base_prog, model = compile_workload(SINK_WORKLOAD)
    base = VM(base_prog.asm, model).run()
    sunk_prog, _ = compile_workload(SINK_WORKLOAD)
    stats = sink_program(sunk_prog.asm)
    sunk = VM(sunk_prog.asm, model).run()
    if (sunk.exit_code, sunk.output) != (base.exit_code, base.output):
        mismatches.append(f"{SINK_WORKLOAD}: sinking changed the answer")
    counters = {
        "scratch_sunk": stats.sunk,
        "scratch_collections_base": base.collections,
        "scratch_collections_sunk": sunk.collections,
        "scratch_cycles_base": base.cycles,
        "scratch_cycles_sunk": sunk.cycles,
    }
    return mismatches, counters


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3,
                    help="interleaved samples per side (min is taken)")
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        TRAJECTORY))
    ap.add_argument("--label", default="")
    ap.add_argument("--child", default=None, choices=("plain", "fused"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args.child)

    mismatches, counts, counters = check_identity()
    sink_mismatches, sink_counters = check_sink_payoff()
    mismatches += sink_mismatches
    counters.update(sink_counters)

    plain_times: list[float] = []
    fused_times: list[float] = []
    for _ in range(args.repeats):
        plain_times.append(sample("plain"))
        fused_times.append(sample("fused"))
    speedup = min(plain_times) / min(fused_times)

    record = make_record("vm2", args.label, {
        "repeats": args.repeats,
        "plain_wall_s": [round(t, 4) for t in plain_times],
        "fused_sink_wall_s": [round(t, 4) for t in fused_times],
        "speedup": speedup,  # unrounded: the rules judge it
        "identity_ok": not mismatches,
        **counters,
    }, workload=WORKLOAD, config=CONFIG, model=MODEL, counts=counts)
    checks = append_record(args.out, record)
    code = exit_code(checks)

    for m in mismatches:
        print(f"MISMATCH: {m}")
    print(f"{'FAIL' if code else 'OK'}: {WORKLOAD}@{CONFIG}/{MODEL} "
          f"{min(plain_times):.3f}s -> {min(fused_times):.3f}s "
          f"({speedup:.2f}x); "
          f"counts {'identical' if not mismatches else 'DIFFER'}; "
          f"{SINK_WORKLOAD} collections "
          f"{counters['scratch_collections_base']} -> "
          f"{counters['scratch_collections_sunk']}"
          + ("" if code else f" -> {args.out}"))
    for failure in failures(checks):
        print(f"  - {failure}")
    return code


if __name__ == "__main__":
    sys.exit(main())
