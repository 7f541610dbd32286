"""Regenerate the benchmark's pinned expected values (expected.json).

    python3 perfbench/pin.py [paper-matrix] [build] [fuzz-oracle]

With no argument every section is rebuilt; naming sections rebuilds only
those and keeps the others.  Pinning records what the toolchain computes
today, so run it only when a change is *meant* to move a pinned value,
and say so in the change.  The benchmark itself never writes this file.

* ``paper-matrix``: the simulated counts, exit code and output digest of
  all 20 cells, plus the T2/T4/T5 percentages as EXPERIMENTS.md prints
  them (parsed from that file and cross-checked against the counts).
* ``build``: per source, the rendered diagnostics, the SHA-256 of both
  annotated texts, the code size per config and the peephole result.
* ``fuzz-oracle``: a catalogue of generated programs with each one's
  reference outcome and its oracle cost on the pinning machine; a run
  draws one program from each cost stratum of this catalogue.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")

#: Size of the fuzz-oracle catalogue: ``STRATA`` strata of this many
#: programs each (see workloads.FuzzOracle).
CATALOGUE_SIZE = workloads.FuzzOracle.STRATA * 15


def _experiments_tables() -> dict:
    """T2/T4/T5 measured percentages from EXPERIMENTS.md, as printed."""
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as fh:
        text = fh.read()
    names = {"cordtest": "cordtest", "cfrac": "cfrac", "gawk": "miniawk",
             "gs": "minips"}
    tables: dict[str, dict[str, list[str]]] = {}
    for block in re.findall(r"```\n(.*?)```", text, re.S):
        key = block.split(":", 1)[0]
        if key not in ("T2", "T4", "T5"):
            continue
        rows = {}
        for line in block.splitlines():
            word = line.split(" ", 1)[0]
            if word in names:
                rows[names[word]] = re.findall(r"/\s+(-?[\d.]+)%", line)
        tables[key] = rows
    return tables


def pin_paper_matrix() -> dict:
    workloads.setup_imports()
    from repro.bench.harness import Harness
    harness = Harness(workloads.MODEL)
    cells = {}
    for program in workloads.PAPER_PROGRAMS:
        for label, config, post in workloads.PAPER_CELLS:
            cell = harness.run_cell(program, config, post)
            cells[f"{program}/{label}"] = workloads.observe_cell(cell)
    tables = _experiments_tables()
    derived = workloads.paper_tables(cells)
    if derived != tables:
        raise SystemExit(f"pinned counts do not reproduce EXPERIMENTS.md:\n"
                         f"  counts give {derived}\n  file has   {tables}")
    return {"model": workloads.MODEL, "cells": cells, "tables": tables}


def pin_build() -> dict:
    workloads.setup_imports()
    from repro.api import Toolchain
    from repro.workloads import load_workload
    tc = Toolchain(run_cpp=True)
    return {name: workloads.observe_build_source(tc, load_workload(name))
            for name in workloads.BUILD_SOURCES}


def pin_fuzz_oracle() -> dict:
    workloads.setup_imports()
    from repro.fuzz.gen import generate_program
    from repro.fuzz.oracle import check_program
    catalogue = []
    for program_seed in range(CATALOGUE_SIZE):
        source = generate_program(program_seed)
        t0 = time.perf_counter()
        report = check_program(source)
        cost_s = time.perf_counter() - t0
        if not report.ok:
            raise SystemExit(f"program {program_seed} fails the oracle:\n"
                             f"{report.describe()}")
        exit_code, digest = workloads.observe_reference(report.reference)
        catalogue.append([program_seed, exit_code, digest, round(cost_s, 4)])
        print(f"program {program_seed}: {cost_s:.3f} s", file=sys.stderr)
    return {"catalogue": catalogue}


PINNERS = {"paper-matrix": pin_paper_matrix, "build": pin_build,
           "fuzz-oracle": pin_fuzz_oracle}


def main(argv: list[str]) -> int:
    sections = argv or list(PINNERS)
    unknown = [s for s in sections if s not in PINNERS]
    if unknown:
        print(f"unknown section(s) {unknown}; choose from {list(PINNERS)}",
              file=sys.stderr)
        return 2
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            expected = json.load(fh)
    for section in sections:
        expected[section] = PINNERS[section]()
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
