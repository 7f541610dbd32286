#!/usr/bin/env python
"""CI gate: the serve daemon must be a byte-transparent, resilient
front on the toolchain.

Replays the deterministic load tape (fuzz-corpus sources + bench/fuzz
jobs, seed 0, 8 concurrent clients) twice per worker count:

    check — every served envelope byte-identical to a serial
            Toolchain run of the same tape;
    chaos — the tape again under the default 10-fault plan
            (worker crashes, corrupt cache reads, slow worker/compile,
            lossy pipes); faulted bytes must equal fault-free bytes,
            exactly like ``repro chaos``.

Judges one ``serve`` record per worker count against the
``repro.obs.sentinel.RULES`` (exit 1 on violation):

* byte-identity holds at every requested worker count;
* the faulted replay is identical;
* the SLO report carries request p50 and p99.

Each passing record is appended to --out (default: the repo's
BENCH.jsonl) so served-latency percentiles have a history; an empty
--out appends nothing.

    python benchmarks/check_serve.py
    python benchmarks/check_serve.py --workers 1,4 --jobs 24 --clients 8
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.obs.sentinel import (  # noqa: E402
    TRAJECTORY, append_record, exit_code, failures, judge, make_record,
)
from repro.serve.daemon import ServeConfig  # noqa: E402
from repro.serve.load import (  # noqa: E402
    CHAOS_FAULTS, LoadSpec, render_report, run_load,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", default="1,4",
                        help="comma-separated worker counts to gate")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=24)
    parser.add_argument("--model", default="ss10")
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        TRAJECTORY), help="append one record per worker count here")
    args = parser.parse_args(argv)

    spec = LoadSpec(seed=args.seed, clients=args.clients, jobs=args.jobs)
    code = 0
    for workers in (int(w) for w in args.workers.split(",")):
        config = ServeConfig(model=args.model, workers=workers)
        report = run_load(config, spec, check=True, faults=CHAOS_FAULTS)
        print(f"--- workers={workers} ---")
        print(render_report(report))
        overall = report["latency"]["request_ns"].get("overall", {})
        record = make_record("serve", args.label, {
            "workers": workers, "seed": args.seed,
            "jobs": args.jobs, "clients": args.clients,
            "byte_identity": report["byte_identity"]["ok"],
            "chaos_identical": report["chaos"]["identical"],
            "resil": report["chaos"]["resil"],
            "request_p50_ns": overall.get("p50"),
            "request_p99_ns": overall.get("p99"),
        }, model=args.model)
        checks = (append_record(args.out, record) if args.out
                  else judge(record))
        code = max(code, exit_code(checks))
        for failure in failures(checks):
            print(f"! workers={workers}: {failure}", file=sys.stderr)
        if args.out and not exit_code(checks):
            print(f"! appended the workers={workers} record to {args.out}",
                  file=sys.stderr)

    print("serve gate: " + ("FAILED" if code else "OK"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
