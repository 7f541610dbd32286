"""Measure the baseline: run every workload over the baseline seeds,
twice, plus one traced run, and store the summary in baseline.json.

    python3 perfbench/summarize.py

The seeds are ``baseline_seeds`` in baseline.json, the run length is
``run_seconds`` in BENCHMARK.json.  Runs are sequential, so they do not
compete for cores; a full baseline takes about half an hour.

The summary replaces ``seed_commit`` in baseline.json.  Per workload
and end-to-end metric it holds, for each of the two sets of runs, the
median, the quartiles (``statistics.quantiles(n=4)``), the spread
(interquartile range over median) and the sample count, and how far the
second median moved from the first.  Each is compared with the metric's
bound.  Per-layer metrics come from the traced run on the first seed,
together with the checks of the predicted layer shares.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced))],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    print(f"{workload} seed={seed} trace={int(traced)}: "
          f"{result['attempted']} checked, {result['failed']} failed",
          file=sys.stderr)
    return result


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "n": len(values),
            "values": values}


def compare(first: dict, second: dict, metric: dict) -> dict:
    """How the second set's median moved from the first's (positive is
    worse), against the metric's bound."""
    sign = 1 if metric["better"] == "lower" else -1
    worse = sign * (second["median"] - first["median"]) / first["median"]
    bound = metric["bound"]
    return {"bound": bound, "second_worse_by": worse,
            "within": worse <= bound and (metric["name"] == "setup_s"
                                          or max(first["spread"],
                                                 second["spread"]) <= bound)}


def prediction_checks(shares: dict) -> dict:
    """The layer shares the benchmark was built to show."""
    compile_layers = ("cfront", "core", "machine.lower", "machine.opt",
                      "machine.regalloc", "machine.codegen", "machine.driver")
    pm, fo, b = (shares[w] for w in ("paper-matrix", "fuzz-oracle", "build"))
    return {
        "paper-matrix: VM dominates":
            pm["machine.vm"] == max(pm.values()),
        "fuzz-oracle: compile + GC dominate VM":
            sum(fo[k] for k in compile_layers) + fo["gc"] > fo["machine.vm"],
        "build: no VM and no GC time":
            b["machine.vm"] == b["gc"] == 0.0,
    }


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    seeds = parse_seeds(baseline["baseline_seeds"])
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    sets = [{w: [run_once(w, s, seconds, False) for s in seeds]
             for w in names} for _ in range(2)]
    traced = {w: run_once(w, seeds[0], seconds, True) for w in names}
    summary = {"seeds": baseline["baseline_seeds"], "traced_seed": seeds[0],
               "run_seconds": seconds, "workloads": {}}
    for w in names:
        runs = [sets[0][w], sets[1][w]]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            first, second = (describe([r["metrics"][name]["value"]
                                       for r in rs]) for rs in runs)
            end_to_end[name] = {"unit": metric["unit"], "first": first,
                                "second": second,
                                **compare(first, second, metric)}
        per_layer = traced[w]["metrics"]
        summary["workloads"][w] = {
            "attempted": sum(r["attempted"] for rs in runs for r in rs),
            "failed": sum(r["failed"] for rs in runs for r in rs),
            "end_to_end": end_to_end,
            "per_layer": {k: [m["value"], m["unit"]]
                          for k, m in per_layer.items()},
        }
    shares = {w: {k[len("share."):]: v[0]
                  for k, v in summary["workloads"][w]["per_layer"].items()
                  if k.startswith("share.")} for w in names}
    summary["predictions_hold"] = prediction_checks(shares)
    baseline["seed_commit"] = summary
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
