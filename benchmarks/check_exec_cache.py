#!/usr/bin/env python
"""CI gate: the content-addressed caches must actually pay for
themselves, without changing a single report byte.

Runs one benchmark table (all workloads x the four configs) twice
against a fresh cache root:

    cold  — empty cache: every cell compiles and executes, then stores;
    warm  — same table again: every cell replays from the result tier.

Judges one ``exec`` record against the ``repro.obs.sentinel.RULES``
(exit 1 on violation):

* the rendered table is byte-identical between the runs;
* every warm lookup hits the cache;
* the warm run is at least 2x faster — sound to demand because a warm
  cell skips compile *and* VM execution.

A passing record is appended to --out (default: the repo's
BENCH.jsonl) so the speedup has a history.

    python benchmarks/check_exec_cache.py
    python benchmarks/check_exec_cache.py --workers 4 --model ss10
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.harness import Harness  # noqa: E402
from repro.bench.tables import render_slowdown_table  # noqa: E402
from repro.exec import cache as exec_cache  # noqa: E402
from repro.obs.sentinel import (  # noqa: E402
    TRAJECTORY, append_record, exit_code, failures, make_record,
)

TABLE_KEYS = {"ss2": "t1_ss2", "ss10": "t2_ss10", "p90": "t3_p90"}


def run_table(model: str, workloads: tuple[str, ...] | None,
              workers: int, cache_root: str) -> tuple[str, float, dict]:
    """One full table against the caches at ``cache_root``; returns
    (rendered table, wall seconds, per-tier stats dicts)."""
    tiers = exec_cache.open_caches(cache_root)
    with exec_cache.cache_context(*tiers):
        t0 = time.perf_counter()
        rows = Harness(model).run_all(workloads, workers=workers)
        table = render_slowdown_table(
            rows, TABLE_KEYS[model], f"Slowdowns ({model})")
        wall = time.perf_counter() - t0
    stats = {c.kind: c.stats.to_dict() for c in tiers}
    return table, wall, stats


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="ss10", choices=tuple(TABLE_KEYS))
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        TRAJECTORY))
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    workloads = (tuple(args.workloads.split(","))
                 if args.workloads else None)

    with tempfile.TemporaryDirectory(prefix="exec-cache-") as cache_root:
        cold_table, cold_s, cold_stats = run_table(
            args.model, workloads, args.workers, cache_root)
        warm_table, warm_s, warm_stats = run_table(
            args.model, workloads, args.workers, cache_root)

    lookups = sum(s["hits"] + s["misses"] for s in warm_stats.values())
    hits = sum(s["hits"] for s in warm_stats.values())
    hit_rate = hits / lookups if lookups else 0.0
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    identical = warm_table == cold_table

    record = make_record("exec", args.label, {
        "workers": args.workers,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": speedup,  # unrounded: the rules judge these two
        "warm_hit_rate": hit_rate,
        "tables_identical": identical,
        "table_sha256": hashlib.sha256(cold_table.encode()).hexdigest(),
        "cold_stats": cold_stats,
        "warm_stats": warm_stats,
    }, model=args.model)
    checks = append_record(args.out, record)
    code = exit_code(checks)
    print(f"{'FAIL' if code else 'OK'}: cold {cold_s:.2f}s -> warm "
          f"{warm_s:.2f}s ({speedup:.1f}x), warm hit rate {hit_rate:.1%}, "
          f"tables {'identical' if identical else 'DIFFER'} "
          f"(model {args.model}, workers {args.workers})"
          + ("" if code else f" -> {args.out}"))
    for failure in failures(checks):
        print(f"  - {failure}")
    return code


if __name__ == "__main__":
    sys.exit(main())
