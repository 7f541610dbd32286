#!/usr/bin/env python
"""CI gate: the fault-injection seams must cost <2% on uninjected runs.

The resilience layer (PR 5) threads hook calls through the engine's
worker loop, the cache read/write paths, and the compile driver.  With
no fault plan installed every hook is a single ``is None`` check; this
gate proves that claim end to end by timing a sharded engine run —
compile + execute per task, the seams' home turf — at HEAD against a
baseline git revision:

    python benchmarks/check_resil_overhead.py --baseline origin/main
    python benchmarks/check_resil_overhead.py --baseline <sha> --repeats 7

The measurement is ``check_obs_overhead.py``'s harness
(:func:`check_obs_overhead.compare_to_baseline`): the baseline tree is
materialized with ``git worktree add``, repeats are interleaved to
decorrelate from CI-runner drift, and the minimum wall time of each
side is judged against the overhead rule of
``repro.obs.sentinel.RULES``.  The summed simulated cycle counts are
additionally asserted bit-identical across every run of both trees —
recovery machinery must be invisible when nothing fails.

Exit codes: 0 ok (or SKIP when the baseline is unresolvable),
1 overhead above threshold, 2 cycle-count mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check_obs_overhead import compare_to_baseline  # noqa: E402

# Runs in a child interpreter with PYTHONPATH set by the parent; prints
# one JSON line {"wall_s": ..., "cycles": ...}.  Deliberately restricted
# to API that exists on both sides of this PR (no policy= kwarg).
CHILD = r"""
import json, sys, time
from repro.exec.engine import run_sharded
from repro.machine.driver import CompileConfig, compile_source
from repro.machine.models import MODELS
from repro.machine.vm import VM

TEMPLATE = '''
int main(void) {
    char *s;
    int i, j, t;
    t = %d;
    for (j = 0; j < 40; j++) {
        s = (char *) GC_malloc(64);
        for (i = 0; i < 64; i++) s[i] = (i + j) & 0x7F;
        for (i = 0; i < 64; i++) t += s[i];
    }
    return t & 0xFF;
}
'''

def cell(n):
    config = CompileConfig.named("O_safe", MODELS["ss10"])
    compiled = compile_source(TEMPLATE % n, config)
    vm = VM(compiled.asm, config.model)
    result = vm.run()
    return (result.cycles, result.exit_code)

tasks, workers = int(sys.argv[1]), int(sys.argv[2])
payloads = list(range(tasks))
t0 = time.perf_counter()
merged = run_sharded(payloads, cell, workers=workers)
wall = time.perf_counter() - t0
assert merged.ok, merged.shard_failures or merged.task_failures
print(json.dumps({"wall_s": wall,
                  "cycles": sum(c for c, _ in merged.results)}))
"""


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="HEAD~1",
                    help="git rev to compare against (default: HEAD~1)")
    ap.add_argument("--tasks", type=int, default=8)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    return compare_to_baseline(
        CHILD, [str(args.tasks), str(args.workers)], args.baseline,
        repeats=args.repeats,
        what=f"sharded engine ({args.tasks} tasks, {args.workers} workers) "
             f"uninjected",
        drift_hint="the resilience layer must be invisible when nothing "
                   "fails")


if __name__ == "__main__":
    sys.exit(main())
