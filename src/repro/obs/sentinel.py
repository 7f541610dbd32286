"""The perf trajectory, the one rule table every gate reads, and the
perf-regression sentinel.

``BENCH.jsonl`` is the repo's performance history: one
``repro-trajectory/1`` record per line, appended by :func:`append_record`
and never rewritten.  A record carries

* ``gate`` — its producer: ``obs`` (``repro obs trajectory`` and the
  sentinel), ``exec``, ``vm2`` or ``serve`` (the ``benchmarks/check_*.py``
  gates); ``overhead`` records are judged in memory and never written;
* ``label`` and ``date``;
* ``workload`` / ``config`` / ``model``, null where the gate has none;
* ``counts`` — simulated counts (a subset of :data:`COUNT_KEYS`), absent
  when the gate measures none.  They are pure functions of (source,
  config, model), so they are compared bit-exactly: there is no noise
  to tolerate;
* ``metrics`` — everything else the gate measured.

:data:`RULES` states every gate threshold and tolerance once, and
:func:`judge` applies the rules of a record's gate to it.  Each gate
script judges the record it just measured and appends it only if it
passes; ``repro obs trajectory --check`` and the sentinel judge every
committed record against the records before it.

:func:`run_sentinel` measures a workload fresh (min-of-N wall, repeated
to prove count determinism) and judges each config's fresh record
against the committed records of its (workload, config, model): every
one that carries counts must equal the fresh counts, and the fresh wall
time must sit inside the noise bound of the committed ``obs`` wall
times (advisory: CI machines are noisy).  The verdict serializes as a
versioned ``repro-obs-sentinel/1`` envelope; accepted runs can append
their fresh records (``append=True``) so the history grows with every
green run.
"""

from __future__ import annotations

import json
import operator
import os
import time
from typing import Any, NamedTuple, Sequence

from . import clock as obs_clock
from ..api import envelopes
from . import runtime
from .metrics import MetricsRegistry
from ..machine.driver import CompileConfig, compile_source
from ..machine.models import MODELS
from ..machine.vm import VMError, run_program

SCHEMA = envelopes.OBS_SENTINEL
RECORD_SCHEMA = envelopes.TRAJECTORY
#: The trajectory file, kept at the repo root.
TRAJECTORY = "BENCH.jsonl"

DEFAULT_CONFIGS = ("O", "O_safe", "g", "g_checked")
#: Runs per config; the cell keeps the fastest (min-of-N wall).
DEFAULT_REPEATS = 3

#: The simulated counts of one run, compared bit-exactly.
COUNT_KEYS = ("exit_code", "cycles", "instructions", "collections", "checks")
#: Keys every record carries (``counts`` is optional).
RECORD_KEYS = ("schema", "gate", "label", "date", "workload", "config",
               "model", "metrics")
GATES = ("obs", "exec", "vm2", "serve", "overhead")


# -- the rule table -----------------------------------------------------------

class Rule(NamedTuple):
    """One gate threshold, applied to every record of ``gate``.

    ``op`` compares ``metrics[metric]`` with ``bound``: ``>=``, ``<=``,
    ``<`` or ``==`` (a str bound names another metric of the record),
    ``present`` (not null), ``exact`` (``counts`` equal to each committed
    record's on the keys both carry) or ``wall`` (at most ``median +
    max(k * MAD, slack * median)`` of the committed values, ``bound =
    (k, slack)``).  A failed rule makes its gate exit ``exit_code``
    unless it is ``advisory``.
    """

    gate: str
    metric: str
    op: str
    bound: Any = None
    exit_code: int = 1
    advisory: bool = False


#: Every gate threshold and tolerance, stated once.
RULES: tuple[Rule, ...] = (
    Rule("*", "counts", "exact", exit_code=2),
    # The slack floor keeps a one-record history (MAD 0) from rejecting
    # ordinary machine-to-machine variance.
    Rule("obs", "wall_s", "wall", (3.0, 0.5), advisory=True),
    Rule("vm2", "identity_ok", "==", True, exit_code=2),
    Rule("vm2", "scratch_sunk", ">=", 1),
    Rule("vm2", "scratch_collections_sunk", "<", "scratch_collections_base"),
    Rule("vm2", "speedup", ">=", 1.5),
    Rule("exec", "tables_identical", "==", True),
    # A warm cell skips compile and execution, so every lookup must hit.
    Rule("exec", "warm_hit_rate", "==", 1.0),
    Rule("exec", "speedup", ">=", 2.0),
    Rule("serve", "byte_identity", "==", True),
    Rule("serve", "chaos_identical", "==", True),
    Rule("serve", "request_p50_ns", "present"),
    Rule("serve", "request_p99_ns", "present"),
    Rule("overhead", "cycles_identical", "==", True, exit_code=2),
    Rule("overhead", "overhead_pct", "<=", 2.0),
)

_COMPARE = {">=": operator.ge, "<=": operator.le, "<": operator.lt,
            "==": operator.eq}


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


def _check(rule: Rule, ok: bool, detail: str, **extra) -> dict[str, Any]:
    return {"rule": rule.metric, "ok": ok, "advisory": rule.advisory,
            "exit_code": rule.exit_code, "detail": detail, **extra}


def _failed(kind: str, detail: str, **extra) -> dict[str, Any]:
    """A failed check that no rule states: a malformed trajectory or a
    nondeterministic measurement."""
    return {"rule": kind, "ok": False, "advisory": False, "exit_code": 1,
            "detail": detail, **extra}


def judge(record: dict, history: Sequence[dict] = ()) -> list[dict]:
    """Apply every rule of ``record``'s gate; one check dict per rule
    application.

    ``history`` is the committed records of the record's (workload,
    config, model), as :func:`same_cell` selects them: the ``exact``
    rule checks each one that carries counts, and the ``wall`` rule
    bounds the metric by their values, so without history neither
    applies.
    """
    checks: list[dict] = []
    metrics = record.get("metrics", {})
    for rule in RULES:
        if rule.gate not in ("*", record.get("gate")):
            continue
        if rule.op == "exact":
            counts = record.get("counts") or {}
            for past in history:
                past_counts = past.get("counts") or {}
                keys = sorted(counts.keys() & past_counts.keys())
                if not keys:
                    continue
                drift = [f"{k}: {past_counts[k]} -> {counts[k]}"
                         for k in keys if past_counts[k] != counts[k]]
                checks.append(_check(
                    rule, not drift,
                    ("counts bit-identical" if not drift
                     else "count drift: " + "; ".join(drift)),
                    against=past.get("label")))
            continue
        value = metrics.get(rule.metric)
        if rule.op == "wall":
            values = [p["metrics"][rule.metric] for p in history
                      if p.get("gate") == rule.gate
                      and rule.metric in p.get("metrics", {})]
            if not values or value is None:
                continue
            mad_k, slack = rule.bound
            med = _median(values)
            bound = med + max(mad_k * _mad(values), slack * med)
            checks.append(_check(
                rule, value <= bound,
                f"{rule.metric} {value:.3f} vs bound {bound:.3f} (median "
                f"{med:.3f} of {len(values)}, MAD {_mad(values):.4f})",
                value=value, bound=round(bound, 4)))
            continue
        if rule.op == "present":
            checks.append(_check(rule, value is not None,
                                 f"{rule.metric} = {value!r} (want present)"))
            continue
        bound = (metrics.get(rule.bound) if isinstance(rule.bound, str)
                 else rule.bound)
        want = (f"{rule.op} {rule.bound} = {bound!r}"
                if isinstance(rule.bound, str) else f"{rule.op} {bound!r}")
        ok = (value is not None and bound is not None
              and _COMPARE[rule.op](value, bound))
        checks.append(_check(rule, ok,
                             f"{rule.metric} = {value!r} (want {want})",
                             value=value, bound=bound))
    return checks


def exit_code(checks: Sequence[dict]) -> int:
    """The gate's exit code: the highest of its failed, non-advisory
    checks (0 when every one passed)."""
    return max((c["exit_code"] for c in checks
                if not c["ok"] and not c["advisory"]), default=0)


def failures(checks: Sequence[dict]) -> list[str]:
    """Detail lines of the failed checks, advisory ones marked."""
    return [("(advisory) " if c["advisory"] else "") + c["detail"]
            for c in checks if not c["ok"]]


# -- records and the trajectory file ------------------------------------------

def make_record(gate: str, label: str, metrics: dict, *,
                workload: str | None = None, config: str | None = None,
                model: str | None = None,
                counts: dict | None = None) -> dict:
    """A fresh ``repro-trajectory/1`` record dated today."""
    record = envelopes.make(RECORD_SCHEMA, {
        "gate": gate, "label": label, "date": time.strftime("%Y-%m-%d"),
        "workload": workload, "config": config, "model": model,
        "metrics": metrics})
    if counts is not None:
        record["counts"] = counts
    return record


def validate_record(record) -> list[str]:
    """Shape issues of one record (empty = valid)."""
    if not isinstance(record, dict):
        return ["not a JSON object"]
    if record.get("schema") != RECORD_SCHEMA:
        return [f"schema {record.get('schema')!r} (want {RECORD_SCHEMA})"]
    missing = [k for k in RECORD_KEYS if k not in record]
    if missing:
        return [f"missing {missing}"]
    issues = []
    if record["gate"] not in GATES:
        issues.append(f"unknown gate {record['gate']!r}")
    if not isinstance(record["metrics"], dict):
        issues.append("metrics is not an object")
    counts = record.get("counts")
    if "counts" in record and (not isinstance(counts, dict) or not counts
                               or not set(counts) <= set(COUNT_KEYS)):
        issues.append(f"counts must map a non-empty subset of {COUNT_KEYS}")
    return issues


def same_cell(records: Sequence[dict], record: dict) -> list[dict]:
    """The records of ``record``'s (workload, config, model); none for a
    record without a workload."""
    if record.get("workload") is None:
        return []
    key = (record["workload"], record.get("config"), record.get("model"))
    return [r for r in records if r is not record
            and (r.get("workload"), r.get("config"), r.get("model")) == key]


def read_trajectory(path: str) -> tuple[list[dict], list[str]]:
    """``(valid records, issues)`` of one trajectory file.  A missing,
    empty or malformed file is an issue, never an empty history."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return [], [f"{path}: missing"]
    except OSError as exc:
        return [], [f"{path}: unreadable ({exc})"]
    if not lines:
        return [], [f"{path}: empty trajectory (no records)"]
    records: list[dict] = []
    issues: list[str] = []
    for n, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            issues.append(f"{path}:{n}: malformed JSON ({exc})")
            continue
        problems = validate_record(record)
        issues.extend(f"{path}:{n}: {p}" for p in problems)
        if not problems:
            records.append(record)
    return records, issues


def check_trajectory(path: str) -> tuple[list[dict], list[str]]:
    """:func:`read_trajectory`, then :func:`judge` every record against
    the records before it; a failed non-advisory check is an issue."""
    records, issues = read_trajectory(path)
    for i, record in enumerate(records):
        for check in judge(record, same_cell(records[:i], record)):
            if not check["ok"] and not check["advisory"]:
                issues.append(f"{path}: {record['gate']} record "
                              f"{record['label']!r}: {check['detail']}")
    return records, issues


def append_record(path: str, record: dict) -> list[dict]:
    """Judge ``record`` against the records already in ``path`` and, if
    it passes, append it as one JSON line; returns the checks.  Earlier
    lines are never rewritten, and nothing is appended to a malformed
    file."""
    problems = validate_record(record)
    if problems:
        raise ValueError(f"invalid trajectory record: {problems}")
    history: list[dict] = []
    checks: list[dict] = []
    if os.path.exists(path) and os.path.getsize(path):
        history, issues = read_trajectory(path)
        checks = [_failed("validate", issue) for issue in issues]
    checks += judge(record, same_cell(history, record))
    if exit_code(checks) == 0:
        with open(path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return checks


# -- fresh measurement --------------------------------------------------------

def _measure(source: str, stdin: str, config_name: str, model_key: str,
             gc_interval: int, repeats: int,
             ) -> tuple[dict, dict, list[str]]:
    """Compile + run one config ``repeats`` times; returns the counts
    and metrics (min-of-N wall + GC phase totals) of the fastest run and
    any determinism violations across repeats.

    Each run gets its own metrics registry, the source of its GC phase
    totals; it is folded into the caller's registry, if any, after the
    run.  ``run_program`` releases each VM when its run ends, so no
    finished VM waits for Python's cyclic collector inside a later
    timed repeat."""
    issues: list[str] = []
    clock = obs_clock.get_clock()
    outer = runtime.get_metrics()
    best: tuple[dict, dict] | None = None
    for rep in range(max(1, repeats)):
        registry = runtime.set_metrics(MetricsRegistry())
        try:
            config = CompileConfig.named(config_name, MODELS[model_key])
            t0 = clock()
            compiled = compile_source(source, config)
            result = run_program(compiled.asm, config.model, stdin=stdin,
                                 gc_interval=gc_interval)
            wall_s = (clock() - t0) / 1e9
        finally:
            runtime.set_metrics(outer)
        if result.status != "ok":
            raise VMError(result.describe())
        if outer is not None:
            outer.merge(registry)
        counts = {"exit_code": result.exit_code, "cycles": result.cycles,
                  "instructions": result.instructions,
                  "collections": result.collections,
                  "checks": result.checks}
        if best is not None and counts != best[0]:
            issues.append(
                f"{config_name}: repeat {rep} counts {counts} != "
                f"repeat 0 counts {best[0]} — simulator nondeterminism")
        if best is None or wall_s < best[1]["wall_s"]:
            best = (counts, {
                "wall_s": round(wall_s, 4),
                "gc_pause_ns": _hist_stat(registry, "gc.pause_ns", "sum"),
                "gc_root_scan_ns": _hist_stat(registry, "gc.root_scan_ns",
                                              "sum"),
                "gc_mark_ns": _hist_stat(registry, "gc.mark_ns", "sum"),
                "gc_sweep_ns": _hist_stat(registry, "gc.sweep_ns", "sum"),
                "gc_max_pause_ns": _hist_stat(registry, "gc.pause_ns", "max"),
                "live_bytes_after": result.gc_stats.live_bytes,
            })
    assert best is not None
    return best[0], best[1], issues


def _hist_stat(registry: MetricsRegistry, name: str, stat: str) -> int:
    """``stat`` ("sum" or "max") of one histogram; 0 if never observed."""
    hist = registry.get(name)
    return getattr(hist, stat) if hist is not None else 0


# -- the sentinel -------------------------------------------------------------

def run_sentinel(workload: str = "cfrac", source: str | None = None,
                 stdin: str = "", model: str = "ss10",
                 configs: Sequence[str] = DEFAULT_CONFIGS,
                 repeats: int = DEFAULT_REPEATS, gc_interval: int = 0,
                 path: str = TRAJECTORY, append: bool = False,
                 label: str = "sentinel", quiet: bool = True,
                 ) -> dict[str, Any]:
    """Measure ``workload`` fresh and judge it against the trajectory.

    Returns the ``repro-obs-sentinel/1`` verdict envelope; ``ok`` is
    the gate CI keys on.  A trajectory file that does not exist yet is
    an empty history.  ``append=True`` appends one ``obs`` record per
    config when the verdict is green.
    """
    if source is None:
        from ..workloads import load_workload, WORKLOADS, AUX_WORKLOADS
        spec = WORKLOADS.get(workload) or AUX_WORKLOADS.get(workload)
        if spec is None:
            raise ValueError(f"unknown workload {workload!r}")
        source = load_workload(workload)
        stdin = stdin or spec.stdin

    committed, issues = (check_trajectory(path) if os.path.exists(path)
                         else ([], []))
    checks = [_failed("validate", issue) for issue in issues]

    # Fresh measurement under the sentinel's own metrics registry (the
    # caller's registry, if any, is restored afterwards).
    previous = runtime.get_metrics()
    registry = runtime.set_metrics(MetricsRegistry())
    try:
        fresh: list[dict] = []
        for config_name in configs:
            counts, metrics, problems = _measure(
                source, stdin, config_name, model, gc_interval, repeats)
            checks.extend(_failed("determinism", problem,
                                  config=config_name)
                          for problem in problems)
            record = make_record("obs", label, metrics, workload=workload,
                                 config=config_name, model=model,
                                 counts=counts)
            fresh.append(record)
            checks.extend({**check, "config": config_name} for check in
                          judge(record, same_cell(committed, record)))
            if not quiet:
                print(f"sentinel {workload}/{config_name}/{model}: "
                      f"cycles={counts['cycles']} "
                      f"wall={metrics['wall_s']:.2f}s "
                      f"gc_pause={metrics['gc_pause_ns'] / 1e6:.2f}ms "
                      f"collections={counts['collections']}", flush=True)
        snapshot = registry.snapshot()
    finally:
        runtime.set_metrics(previous)

    ok = exit_code(checks) == 0
    verdict: dict[str, Any] = {
        "schema": SCHEMA,
        "workload": workload, "model": model, "label": label,
        "repeats": repeats, "records": fresh,
        "checks": checks,
        "ok": ok,
        "wall_ok": all(c["ok"] for c in checks if c["advisory"]),
        "appended": 0,
        "metrics": snapshot,
    }
    if append and ok:
        for record in fresh:
            if exit_code(append_record(path, record)) == 0:
                verdict["appended"] += 1
        verdict["appended_to"] = path
    return verdict


def render_verdict(verdict: dict[str, Any]) -> str:
    lines = [f"sentinel verdict: {'OK' if verdict['ok'] else 'REGRESSION'} "
             f"({verdict['workload']}/{verdict['model']}, "
             f"min-of-{verdict['repeats']})"]
    for check in verdict["checks"]:
        mark = ("ok " if check["ok"]
                else "adv" if check["advisory"] else "FAIL")
        config = check.get("config") or "-"
        against = check.get("against") or "-"
        lines.append(f"  [{mark}] {check['rule']:<11s} {config:<10s} "
                     f"{against}: {check['detail']}")
    if not any(c["rule"] == "wall_s" for c in verdict["checks"]):
        lines.append("  (no wall history to compare)")
    if verdict.get("appended"):
        lines.append(f"  appended {verdict['appended']} record(s) to "
                     f"{verdict['appended_to']}")
    return "\n".join(lines)
