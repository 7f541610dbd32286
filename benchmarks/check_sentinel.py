#!/usr/bin/env python
"""CI gate: the perf-regression sentinel plus the disabled-path cost.

Two checks, one command:

1. **Sentinel** — validate ``BENCH.jsonl`` and judge every committed
   record against the ``repro.obs.sentinel.RULES``, measure the
   workload fresh (min-of-N wall, repeated for determinism), and judge
   each config's fresh record against the committed records of its
   cell: simulated counts must be bit-identical to every one that
   carries counts, and wall time should sit inside the median + MAD
   noise bound (advisory).  The verdict is a ``repro-obs-sentinel/1``
   envelope; ``--out`` persists it and ``--metrics-out`` / ``--prom``
   persist the metrics snapshot captured during the fresh runs.

2. **Overhead** — delegate to :mod:`check_obs_overhead`: with all
   telemetry disabled (the default runtime state), HEAD must run the
   workload within the overhead rule of ``--baseline``.  A baseline
   that cannot be resolved (shallow clone) is a SKIP, not a failure.

    python benchmarks/check_sentinel.py --baseline origin/main
    python benchmarks/check_sentinel.py --baseline HEAD~1 --repeats 3 \
        --out sentinel-verdict.json --metrics-out obs-metrics.jsonl

Exit codes: 0 both gates green, 1 sentinel verdict not ok, and the
overhead gate's own code (1 above threshold, 2 count drift) otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))

import check_obs_overhead  # noqa: E402  (needs benchmarks on sys.path)

from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.sentinel import (  # noqa: E402
    TRAJECTORY, render_verdict, run_sentinel,
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="HEAD~1",
                    help="git rev for the overhead gate (default: HEAD~1)")
    ap.add_argument("--workload", default="cfrac")
    ap.add_argument("--model", default="ss10")
    ap.add_argument("--configs", default="O,O_safe,g,g_checked")
    ap.add_argument("--repeats", type=int, default=3,
                    help="fresh measurements per config (min-of-N wall)")
    ap.add_argument("--append", action="store_true",
                    help="append the accepted records to the trajectory")
    ap.add_argument("--out", default=None, metavar="FILE",
                    help="write the repro-obs-sentinel/1 verdict JSON")
    ap.add_argument("--metrics-out", default=None, metavar="FILE",
                    help="write the fresh-run metrics snapshot (JSONL)")
    ap.add_argument("--prom", default=None, metavar="FILE",
                    help="write the snapshot in Prometheus text format")
    ap.add_argument("--skip-overhead", action="store_true",
                    help="run only the sentinel half")
    args = ap.parse_args(argv)

    trajectory = os.path.join(REPO, TRAJECTORY)
    if not os.path.exists(trajectory):
        print(f"FAIL: no {TRAJECTORY} trajectory found — the sentinel "
              "has nothing to gate against")
        return 1

    configs = tuple(c.strip() for c in args.configs.split(",") if c.strip())
    verdict = run_sentinel(
        workload=args.workload, model=args.model, configs=configs,
        repeats=args.repeats, path=trajectory, append=args.append,
        label="ci-sentinel")
    print(render_verdict(verdict))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(verdict, fh, indent=2, sort_keys=True)
        print(f"verdict written to {args.out}")
    if args.metrics_out or args.prom:
        registry = MetricsRegistry()
        registry.merge(verdict.get("metrics", {}).get("metrics", {}))
        if args.metrics_out:
            registry.write_jsonl(args.metrics_out, append=False)
            print(f"metrics snapshot written to {args.metrics_out}")
        if args.prom:
            registry.write_prometheus(args.prom)
            print(f"prometheus export written to {args.prom}")

    if not verdict["ok"]:
        return 1
    if args.skip_overhead:
        return 0
    print(f"--- disabled-path overhead vs {args.baseline} ---", flush=True)
    return check_obs_overhead.main([
        "--baseline", args.baseline, "--workload", args.workload,
        "--repeats", str(max(args.repeats, 5)),
    ])


if __name__ == "__main__":
    sys.exit(main())
