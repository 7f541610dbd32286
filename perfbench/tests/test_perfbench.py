"""The benchmark's own tests: its output checks catch wrong results, its
tracing restores what it wraps and does the self-time arithmetic right,
and its metric names match BENCHMARK.json.

    python -m pytest perfbench/tests -q
"""

import copy
import gc
import json
import os
import shutil
import subprocess
import sys

from conftest import ROOT
from perfbench import trace, workloads


def test_fuzz_oracle_fails_under_rebroken_addrfold(expected, rec):
    from repro.fuzz.brokenpass import rebroken_addrfold
    # Program 3 holds the aliasing shape the re-broken pass miscompiles.
    wl = workloads.FuzzOracle(0, expected["fuzz-oracle"], program_seeds=(3,))
    wl.prepare()
    assert wl.run_pass(rec).failed == 0
    with rebroken_addrfold():
        res = wl.run_pass(rec)
    assert res.attempted == 1 and res.failed == 1, res.errors


def test_paper_matrix_fails_on_corrupted_expected_count(expected, rec):
    pinned = expected["paper-matrix"]
    wl = workloads.PaperMatrix(0, pinned, programs=("miniawk",))
    res = wl.run_pass(rec)
    assert (res.attempted, res.failed) == (5, 0), res.errors
    corrupted = copy.deepcopy(pinned)
    corrupted["cells"]["miniawk/O"]["cycles"] += 1
    res = workloads.PaperMatrix(0, corrupted, programs=("miniawk",)).run_pass(rec)
    assert res.failed == 1, res.errors
    assert "miniawk/O: cycles" in res.errors[0]


def test_paper_tables_reproduce_experiments(expected):
    pinned = expected["paper-matrix"]
    assert workloads.paper_tables(pinned["cells"]) == pinned["tables"]


def test_build_checks_every_operation(expected, rec):
    wl = workloads.Build(0, expected["build"], sources=("miniawk",))
    wl.prepare()
    res = wl.run_pass(rec)
    assert (res.attempted, res.failed, res.cells) == (
        len(workloads.BUILD_OPS), 0, len(workloads.BUILD_CONFIGS))
    wl.expected = copy.deepcopy(wl.expected)
    wl.expected["miniawk"]["compile:O"] += 1
    assert wl.run_pass(rec).failed == 1


def test_fuzz_selection_takes_one_program_per_stratum(expected):
    catalogue = expected["fuzz-oracle"]["catalogue"]
    strata = workloads.FuzzOracle.STRATA
    a = workloads.select_programs(catalogue, 5, strata)
    assert a == workloads.select_programs(catalogue, 5, strata)
    assert a != workloads.select_programs(catalogue, 6, strata)
    ranked = sorted(catalogue, key=lambda e: (e[3], e[0]))
    size = len(ranked) // strata
    stratum = {e[0]: i // size for i, e in enumerate(ranked)}
    assert sorted(stratum[e[0]] for e in a) == list(range(strata))


def test_host_sample_runs_the_kernel_with_the_collector_off(monkeypatch):
    seen = []
    monkeypatch.setattr(workloads, "_kernel",
                        lambda: seen.append(gc.isenabled()))
    assert gc.isenabled()
    workloads.host_sample()
    assert seen == [False] and gc.isenabled()


def test_self_time_subtracts_direct_children_only():
    spans = [("compile", 0, 100, -1, "u", None),
             ("cfront.parse", 10, 50, 0, "u", "src"),
             ("cfront.lex", 10, 20, 1, "u", 7),
             ("codegen", 60, 90, 0, "u", 12)]
    t = trace.Totals(spans, [(0, 4, {})])
    assert dict(t.self_ns) == {"compile": 30, "cfront.parse": 30,
                               "cfront.lex": 10, "codegen": 30}
    assert t.top_ns == 100
    metrics = trace.layer_metrics(spans, [(0, 4, {})], [150e-9],
                                  [(140e-9, 1.0)], (0, 0))
    assert abs(metrics["trace.unaccounted_ms"][0] - 50e-6) < 1e-12
    assert abs(metrics["trace.overhead_ms"][0] - 10e-6) < 1e-12
    shares = sum(v for k, (v, _) in metrics.items() if k.startswith("share."))
    assert abs(shares - 100.0) < 1e-9


def test_patches_are_removed_cleanly():
    workloads.setup_imports()
    from repro.bench import harness
    from repro.machine import driver, opt, vm
    before = (driver.compile_source, harness.compile_source, vm.VM.run,
              dict(opt._PASS_FNS))
    rec = trace.Recorder()
    patches = trace.Patches(rec, trace.TARGETS)
    assert harness.compile_source is not before[1]
    assert harness.compile_source is driver.compile_source
    patches.remove()
    assert (driver.compile_source, harness.compile_source, vm.VM.run,
            dict(opt._PASS_FNS)) == before


def test_traced_build_pass_reports_every_per_layer_metric(expected):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads.setup_imports()
    wl = workloads.Build(0, expected["build"], sources=("miniawk",))
    wl.prepare()
    rec = trace.Recorder()
    patches = trace.Patches(rec, trace.TARGETS)
    try:
        res = wl.run_pass(rec)
    finally:
        patches.remove()
    assert res.failed == 0, res.errors
    metrics = trace.layer_metrics(rec.spans, [(0, len(rec.spans), res.factors)],
                                  [res.wall_s],
                                  [(res.wall_s, res.raw_wall_s)], (0, 0))
    assert list(metrics) == [m["name"] for m in bench["per_layer"]]
    assert [metrics[m["name"]][1] for m in bench["per_layer"]] == [
        m["unit"] for m in bench["per_layer"]]
    # build runs no VM and no collector.
    assert metrics["share.machine.vm"][0] == metrics["share.gc"][0] == 0.0
    assert metrics["compile.unique_ratio"][0] == 1.0


def test_end_to_end_names_match_benchmark_json():
    from perfbench import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [[m["name"], m["unit"]] for m in bench["end_to_end"]] == [
        list(m) for m in run.END_TO_END]


def test_run_fails_without_toolchain_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
