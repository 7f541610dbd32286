"""The perf-regression sentinel: fresh metrics vs seeded trajectories.

Closes the observability loop.  ``repro obs trajectory`` and the bench/
vm benchmark scripts append measurement points to the ``BENCH_*.json``
trajectory files; :func:`run_sentinel` re-measures the workload fresh
and renders a verdict against those trajectories:

* **Counts are a hard gate, compared bit-exactly.**  Simulated cycles,
  instructions, collections, and checks are pure functions of
  (source, config, model), so any drift is a real behavior change —
  there is no noise to tolerate.
* **Wall times are compared statistically.**  The fresh measurement is
  min-of-N (the classic noise floor estimator); the trajectory history
  provides a median and a median-absolute-deviation, and the bound is
  ``median + max(mad_k * MAD, wall_slack * median)``.  Wall regressions
  are advisory by default (CI machines are noisy) and fatal only under
  ``strict_wall``.

The verdict serializes as a versioned ``repro-obs-sentinel/1`` envelope;
accepted runs can append their fresh point back to the trajectory file
(``append=True``) so the history grows with every green run.

Also home to the trajectory validators behind
``repro obs trajectory --check``: every ``BENCH_*.json`` flavor in the
repo (``repro-obs-bench/1`` point documents, ``repro-exec-bench/1`` /
``repro-vm2-bench/1`` record lists) is schema-checked on load so a
malformed or empty trajectory fails loudly instead of silently gating
nothing.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Any, Sequence

from . import clock as obs_clock
from ..api import envelopes
from . import runtime
from .metrics import MetricsRegistry
from ..gc.collector import Collector
from ..machine.driver import CompileConfig, compile_source
from ..machine.models import MODELS
from ..machine.vm import VM

SCHEMA = envelopes.OBS_SENTINEL
TRAJECTORY_SCHEMA = envelopes.OBS_BENCH
EXEC_SCHEMA = envelopes.EXEC_BENCH
VM2_SCHEMA = envelopes.VM2_BENCH

DEFAULT_CONFIGS = ("O", "O_safe", "g", "g_checked")
#: Runs per config; the cell keeps the fastest (min-of-N wall).
DEFAULT_REPEATS = 3

#: The bit-exact comparison keys of one trajectory config cell.
COUNT_KEYS = ("exit_code", "cycles", "instructions", "collections", "checks")

#: Keys every repro-obs-bench/1 config cell must carry.
_POINT_CELL_KEYS = COUNT_KEYS + ("wall_s",)


# -- trajectory validation ----------------------------------------------------

def default_trajectories(root: str = ".") -> list[str]:
    """Every ``BENCH_*.json`` in ``root``, sorted for determinism."""
    return sorted(glob.glob(os.path.join(root, "BENCH_*.json")))


def validate_trajectory(path: str) -> list[str]:
    """Schema-check one trajectory file; returns a list of issues
    (empty = valid).  Unknown-schema files are reported, not ignored."""
    issues: list[str] = []
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return [f"{path}: missing"]
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable/malformed JSON ({exc})"]

    if isinstance(doc, dict):
        schema = doc.get("schema")
        if schema != TRAJECTORY_SCHEMA:
            return [f"{path}: unexpected schema {schema!r} "
                    f"(want {TRAJECTORY_SCHEMA})"]
        points = doc.get("points")
        if not isinstance(points, list) or not points:
            return [f"{path}: empty trajectory (no points)"]
        for i, point in enumerate(points):
            if not isinstance(point, dict):
                issues.append(f"{path}: point #{i} is not an object")
                continue
            for key in ("workload", "model", "configs"):
                if key not in point:
                    issues.append(f"{path}: point #{i} missing {key!r}")
            for cfg, cell in (point.get("configs") or {}).items():
                missing = [k for k in _POINT_CELL_KEYS
                           if not isinstance(cell, dict) or k not in cell]
                if missing:
                    issues.append(f"{path}: point #{i} config {cfg!r} "
                                  f"missing {missing}")
        return issues

    if isinstance(doc, list):
        if not doc:
            return [f"{path}: empty trajectory (no records)"]
        for i, rec in enumerate(doc):
            if not isinstance(rec, dict):
                issues.append(f"{path}: record #{i} is not an object")
                continue
            schema = rec.get("schema")
            if schema not in (EXEC_SCHEMA, VM2_SCHEMA):
                issues.append(f"{path}: record #{i} has unknown schema "
                              f"{schema!r}")
        return issues

    return [f"{path}: neither a point document nor a record list"]


def validate_trajectories(paths: Sequence[str] | None = None,
                          ) -> dict[str, list[str]]:
    """``{path: issues}`` for every trajectory file (empty dict values =
    all valid).  With no paths given, validates every ``BENCH_*.json``
    in the current directory."""
    if paths is None:
        paths = default_trajectories()
    return {path: validate_trajectory(path) for path in paths}


# -- noise statistics ---------------------------------------------------------

def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return (ordered[mid] if n % 2
            else (ordered[mid - 1] + ordered[mid]) / 2.0)


def _mad(values: Sequence[float]) -> float:
    """Median absolute deviation — a robust noise scale."""
    med = _median(values)
    return _median([abs(v - med) for v in values])


def wall_bound(history: Sequence[float], wall_slack: float = 0.5,
               mad_k: float = 3.0) -> float:
    """The acceptance bound for a fresh min-of-N wall time given the
    trajectory history: ``median + max(mad_k * MAD, wall_slack *
    median)``.  The slack floor keeps single-point histories (MAD = 0)
    from rejecting ordinary machine-to-machine variance."""
    med = _median(history)
    return med + max(mad_k * _mad(history), wall_slack * med)


# -- fresh measurement --------------------------------------------------------

def _measure(source: str, stdin: str, config_name: str, model_key: str,
             gc_interval: int, repeats: int) -> tuple[dict, list[str]]:
    """Compile + run one config ``repeats`` times; returns the fresh
    cell (counts + min-of-N wall + GC phase totals of the best run) and
    any determinism violations across repeats.

    Each run gets its own metrics registry, the source of its GC phase
    totals; it is folded into the caller's registry, if any, after the
    run."""
    issues: list[str] = []
    clock = obs_clock.get_clock()
    outer = runtime.get_metrics()
    best: dict | None = None
    counts0: tuple | None = None
    for rep in range(max(1, repeats)):
        registry = runtime.set_metrics(MetricsRegistry())
        try:
            config = CompileConfig.named(config_name, MODELS[model_key])
            collector = Collector()
            t0 = clock()
            compiled = compile_source(source, config)
            vm = VM(compiled.asm, config.model, collector=collector,
                    gc_interval=gc_interval)
            vm.stdin = stdin
            result = vm.run()
            wall_s = (clock() - t0) / 1e9
        finally:
            runtime.set_metrics(outer)
        if outer is not None:
            outer.merge(registry)
        counts = (result.exit_code, result.cycles, result.instructions,
                  result.collections, result.checks)
        if counts0 is None:
            counts0 = counts
        elif counts != counts0:
            issues.append(
                f"{config_name}: repeat {rep} counts {counts} != "
                f"repeat 0 counts {counts0} — simulator nondeterminism")
        if best is None or wall_s < best["wall_s"]:
            best = {
                "exit_code": result.exit_code, "cycles": result.cycles,
                "instructions": result.instructions,
                "collections": result.collections, "checks": result.checks,
                "wall_s": round(wall_s, 4),
                "gc_pause_ns": _hist_stat(registry, "gc.pause_ns", "sum"),
                "gc_root_scan_ns": _hist_stat(registry, "gc.root_scan_ns",
                                              "sum"),
                "gc_mark_ns": _hist_stat(registry, "gc.mark_ns", "sum"),
                "gc_sweep_ns": _hist_stat(registry, "gc.sweep_ns", "sum"),
                "gc_max_pause_ns": _hist_stat(registry, "gc.pause_ns", "max"),
                "live_bytes_after": collector.stats.live_bytes,
            }
    assert best is not None
    return best, issues


def _hist_stat(registry: MetricsRegistry, name: str, stat: str) -> int:
    """``stat`` ("sum" or "max") of one histogram; 0 if never observed."""
    hist = registry.get(name)
    return getattr(hist, stat) if hist is not None else 0


# -- the sentinel -------------------------------------------------------------

def run_sentinel(workload: str = "cfrac", source: str | None = None,
                 stdin: str = "", model: str = "ss10",
                 configs: Sequence[str] = DEFAULT_CONFIGS,
                 repeats: int = DEFAULT_REPEATS, gc_interval: int = 0,
                 trajectories: Sequence[str] | None = None,
                 wall_slack: float = 0.5, mad_k: float = 3.0,
                 strict_wall: bool = False, append: bool = False,
                 label: str = "sentinel", quiet: bool = True,
                 ) -> dict[str, Any]:
    """Measure ``workload`` fresh and compare against the trajectories.

    Returns the ``repro-obs-sentinel/1`` verdict envelope; ``ok`` is
    the gate CI keys on.  ``append=True`` writes the fresh point back
    to the ``repro-obs-bench/1`` trajectory when the verdict is green.
    """
    if source is None:
        from ..workloads import load_workload, WORKLOADS, AUX_WORKLOADS
        spec = WORKLOADS.get(workload) or AUX_WORKLOADS.get(workload)
        if spec is None:
            raise ValueError(f"unknown workload {workload!r}")
        source = load_workload(workload)
        stdin = stdin or spec.stdin

    if trajectories is None:
        trajectories = default_trajectories()
    validation = validate_trajectories(trajectories)
    checks: list[dict[str, Any]] = []
    for path, issues in validation.items():
        for issue in issues:
            checks.append({"file": path, "kind": "validate", "config": None,
                           "ok": False, "detail": issue})

    # Fresh measurement under the sentinel's own metrics registry (the
    # caller's registry, if any, is restored afterwards).
    previous = runtime.get_metrics()
    registry = runtime.set_metrics(MetricsRegistry())
    try:
        fresh: dict[str, dict] = {}
        for config_name in configs:
            cell, issues = _measure(source, stdin, config_name, model,
                                    gc_interval, repeats)
            fresh[config_name] = cell
            for issue in issues:
                checks.append({"file": None, "kind": "determinism",
                               "config": config_name, "ok": False,
                               "detail": issue})
            if not quiet:
                print(f"sentinel {workload}/{config_name}/{model}: "
                      f"cycles={cell['cycles']} wall={cell['wall_s']:.2f}s",
                      flush=True)
        snapshot = registry.snapshot()
    finally:
        runtime.set_metrics(previous)

    wall_info: dict[str, Any] = {"slack": wall_slack, "mad_k": mad_k,
                                 "repeats": repeats, "bounds": {}}

    for path in trajectories:
        if validation.get(path):
            continue  # already reported as a validation failure
        with open(path) as fh:
            doc = json.load(fh)

        if isinstance(doc, dict):  # repro-obs-bench/1
            points = [p for p in doc["points"]
                      if p.get("workload") == workload
                      and p.get("model") == model]
            if not points:
                checks.append({"file": path, "kind": "counts",
                               "config": None, "ok": True,
                               "detail": f"no points for {workload}/{model} "
                                         "— nothing to compare"})
                continue
            latest = points[-1]
            for config_name, cell in fresh.items():
                base = latest.get("configs", {}).get(config_name)
                if base is None:
                    continue
                diffs = [f"{k}: {base[k]} -> {cell[k]}"
                         for k in COUNT_KEYS if base.get(k) != cell[k]]
                checks.append({
                    "file": path, "kind": "counts", "config": config_name,
                    "ok": not diffs,
                    "detail": ("counts bit-identical" if not diffs
                               else "count drift: " + "; ".join(diffs))})
                history = [p["configs"][config_name]["wall_s"]
                           for p in points
                           if config_name in p.get("configs", {})]
                bound = wall_bound(history, wall_slack, mad_k)
                wall_info["bounds"][config_name] = {
                    "history": history, "bound": round(bound, 4),
                    "fresh": cell["wall_s"]}
                checks.append({
                    "file": path, "kind": "wall", "config": config_name,
                    "ok": cell["wall_s"] <= bound,
                    "detail": f"min-of-{repeats} wall {cell['wall_s']:.3f}s "
                              f"vs bound {bound:.3f}s "
                              f"(median {_median(history):.3f}s, "
                              f"MAD {_mad(history):.4f})"})
            continue

        # Record lists: repro-vm2-bench/1 and repro-exec-bench/1.
        for rec in doc:
            schema = rec.get("schema")
            if schema == VM2_SCHEMA:
                if (rec.get("workload") != workload
                        or rec.get("model") != model):
                    continue
                config_name = rec.get("config")
                cell = fresh.get(config_name)
                if cell is None:
                    continue
                diffs = []
                if rec.get("base_cycles") != cell["cycles"]:
                    diffs.append(f"base_cycles {rec.get('base_cycles')} -> "
                                 f"{cell['cycles']}")
                if rec.get("base_collections") != cell["collections"]:
                    diffs.append(
                        f"base_collections {rec.get('base_collections')} -> "
                        f"{cell['collections']}")
                checks.append({
                    "file": path, "kind": "counts", "config": config_name,
                    "ok": not diffs,
                    "detail": ("vm2 baseline counts match" if not diffs
                               else "vm2 drift: " + "; ".join(diffs))})
            elif schema == EXEC_SCHEMA:
                # Internal-consistency gate: a seeded exec point must
                # have byte-identical tables and a fully warm cache.
                bad = []
                if not rec.get("tables_identical", False):
                    bad.append("tables_identical is false")
                if rec.get("warm_hit_rate") != 1.0:
                    bad.append(f"warm_hit_rate {rec.get('warm_hit_rate')} "
                               "!= 1.0")
                checks.append({
                    "file": path, "kind": "consistency",
                    "config": rec.get("label"),
                    "ok": not bad,
                    "detail": ("exec record consistent" if not bad
                               else "; ".join(bad))})

    validations_ok = all(not issues for issues in validation.values())
    counts_ok = all(c["ok"] for c in checks
                    if c["kind"] in ("counts", "determinism", "consistency"))
    wall_ok = all(c["ok"] for c in checks if c["kind"] == "wall")
    ok = validations_ok and counts_ok and (wall_ok or not strict_wall)

    verdict: dict[str, Any] = {
        "schema": SCHEMA,
        "workload": workload, "model": model, "label": label,
        "repeats": repeats, "configs": fresh,
        "checks": checks,
        "counts_ok": counts_ok, "wall_ok": wall_ok,
        "strict_wall": strict_wall, "ok": ok,
        "wall": wall_info,
        "appended": False,
        "metrics": snapshot,
    }

    if append and ok:
        target = next((p for p in trajectories
                       if _is_point_document(p)), None)
        if target is not None:
            with open(target) as fh:
                doc = json.load(fh)
            doc["points"].append({
                "date": time.strftime("%Y-%m-%d"),
                "workload": workload, "model": model, "label": label,
                "configs": fresh,
            })
            with open(target, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            verdict["appended"] = True
            verdict["appended_to"] = target
    return verdict


def _is_point_document(path: str) -> bool:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(doc, dict) and doc.get("schema") == TRAJECTORY_SCHEMA


def render_verdict(verdict: dict[str, Any]) -> str:
    lines = [f"sentinel verdict: {'OK' if verdict['ok'] else 'REGRESSION'} "
             f"({verdict['workload']}/{verdict['model']}, "
             f"min-of-{verdict['repeats']})"]
    for check in verdict["checks"]:
        mark = "ok " if check["ok"] else "FAIL"
        where = check.get("file") or "-"
        config = check.get("config") or "-"
        lines.append(f"  [{mark}] {check['kind']:<11s} {config:<10s} "
                     f"{where}: {check['detail']}")
    if not any(c["kind"] == "wall" for c in verdict["checks"]):
        lines.append("  (no wall history to compare)")
    if verdict.get("appended"):
        lines.append(f"  appended fresh point to {verdict['appended_to']}")
    return "\n".join(lines)
