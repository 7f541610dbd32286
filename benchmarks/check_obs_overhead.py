#!/usr/bin/env python
"""CI gate: disabled telemetry must cost <2% wall-clock on cfrac.

Measures the end-to-end compile+run wall time of one workload at HEAD
(telemetry present but disabled — the default runtime state) against
the same measurement from a baseline git revision, each as the minimum
of N interleaved repeats in separate subprocesses:

    python benchmarks/check_obs_overhead.py --baseline origin/main
    python benchmarks/check_obs_overhead.py --baseline <sha> --repeats 7

The baseline tree is materialized with ``git worktree add`` and the
child process runs with PYTHONPATH pointing at its ``src``; if the
baseline has no telemetry layer at all, the comparison is exactly
"instrumented vs. un-instrumented".  Interleaving the repeats and
taking minima makes the gate robust to CI-runner noise; the simulated
*cycle* counts are additionally asserted bit-identical, which catches
accidental semantic drift regardless of timing.

The result is judged as an in-memory ``overhead`` record against the
``repro.obs.sentinel.RULES`` (at most 2% overhead, cycles identical)
and never appended to the trajectory.

Exit codes: 0 ok (or SKIP when the baseline is unresolvable),
1 overhead above threshold, 2 cycle-count mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.obs.sentinel import (  # noqa: E402
    exit_code, failures, judge, make_record,
)

# Runs in a child interpreter with PYTHONPATH set by the parent; prints
# one JSON line {"wall_s": ..., "cycles": ...}.
CHILD = r"""
import json, sys, time
from repro.machine.driver import CompileConfig, compile_source
from repro.machine.models import MODELS
from repro.machine.vm import VM
from repro.workloads import WORKLOADS, load_workload

workload, config_name = sys.argv[1], sys.argv[2]
source = load_workload(workload)
stdin = WORKLOADS[workload].stdin
config = CompileConfig.named(config_name, MODELS["ss10"])
t0 = time.perf_counter()
compiled = compile_source(source, config)
vm = VM(compiled.asm, config.model)
vm.stdin = stdin
result = vm.run()
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall, "cycles": result.cycles,
                  "exit_code": result.exit_code}))
"""


def run_child(src_dir: str, child: str, argv: list[str]) -> dict:
    """Run ``child`` against the tree at ``src_dir``; its last stdout
    line is a JSON object with ``wall_s`` and ``cycles``."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True, text=True, env=env, cwd=REPO, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def resolve_baseline(ref: str) -> str | None:
    probe = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"],
                           capture_output=True, text=True, cwd=REPO)
    return probe.stdout.strip() if probe.returncode == 0 else None


def measure_overhead(child: str, argv: list[str], head_src: str,
                     base_src: str, *, repeats: int, what: str,
                     drift_hint: str) -> int:
    """The overhead-gate harness: ``child`` on two source trees.

    The repeats are interleaved and each side's minimum wall time
    compared.  Returns the gate's exit code (see the module docstring);
    ``what`` names the measurement in the verdict line and
    ``drift_hint`` says why a cycle-count drift is fatal.
    """
    head_runs, base_runs = [], []
    for i in range(repeats):
        # Interleave to decorrelate from slow CI-runner drift.
        head_runs.append(run_child(head_src, child, argv))
        base_runs.append(run_child(base_src, child, argv))
        print(f"  repeat {i + 1}/{repeats}: "
              f"head {head_runs[-1]['wall_s']:.3f}s  "
              f"base {base_runs[-1]['wall_s']:.3f}s", flush=True)

    head_cycles = {r["cycles"] for r in head_runs}
    base_cycles = {r["cycles"] for r in base_runs}
    if len(head_cycles) != 1 or len(base_cycles) != 1:
        print(f"FAIL: nondeterministic cycle counts "
              f"(head {head_cycles}, base {base_cycles})")
    elif head_cycles != base_cycles:
        print(f"FAIL: simulated cycles drifted: head {head_cycles.pop()} "
              f"vs baseline {base_cycles.pop()} — {drift_hint}")

    head = min(r["wall_s"] for r in head_runs)
    base = min(r["wall_s"] for r in base_runs)
    overhead = 100.0 * (head - base) / base
    checks = judge(make_record("overhead", what, {
        "overhead_pct": overhead, "head_s": head, "base_s": base,
        "repeats": repeats,
        "cycles_identical": len(head_cycles | base_cycles) == 1,
    }))
    code = exit_code(checks)
    print(f"{'FAIL' if code else 'OK'}: {what} overhead {overhead:+.2f}% "
          f"(head {head:.3f}s vs base {base:.3f}s, min of {repeats})")
    for failure in failures(checks):
        print(f"  - {failure}")
    return code


def compare_to_baseline(child: str, argv: list[str], baseline: str,
                        **gate) -> int:
    """:func:`measure_overhead` of HEAD's ``src`` against the tree of git
    revision ``baseline``, materialized with ``git worktree add``."""
    sha = resolve_baseline(baseline)
    if sha is None:
        print(f"SKIP: cannot resolve baseline {baseline!r} "
              f"(shallow clone?)")
        return 0

    with tempfile.TemporaryDirectory(prefix="overhead-baseline-") as tmp:
        base_tree = os.path.join(tmp, "tree")
        subprocess.run(["git", "worktree", "add", "--detach", base_tree, sha],
                       check=True, cwd=REPO, capture_output=True)
        try:
            return measure_overhead(child, argv, os.path.join(REPO, "src"),
                                    os.path.join(base_tree, "src"), **gate)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                           cwd=REPO, capture_output=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="HEAD~1",
                    help="git rev to compare against (default: HEAD~1)")
    ap.add_argument("--workload", default="cfrac")
    ap.add_argument("--config", default="O")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    return compare_to_baseline(
        CHILD, [args.workload, args.config], args.baseline,
        repeats=args.repeats,
        what=f"{args.workload}/{args.config} tracing-disabled",
        drift_hint="telemetry must be observation-only")


if __name__ == "__main__":
    sys.exit(main())
