"""Trace summarization and report rendering.

Consumes events either live (``Tracer.events``) or from a JSONL file
(``tracer.load_jsonl``) and produces:

* a JSON-ready summary dict (``summarize``) — compile-phase wall times,
  per-optimizer-pass totals (time, rewrites, IR-size delta), GC pause
  totals/timeline, VM run totals;
* a human-readable text report (``render_text``) — the compile-pipeline
  table, the GC pause report with per-collection root-scan/mark/sweep
  breakdown, and (when a profile is supplied) the VM hot-spot table.

The summary schema is ``repro-obs-summary/1``.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..api import envelopes
from .metrics import Histogram, MetricsRegistry
from .tracer import TraceEvent
from .vmprof import VMProfile

SUMMARY_SCHEMA = envelopes.OBS_SUMMARY

# Pipeline phases in execution order (span names).
COMPILE_PHASES = (
    "cfront.cpp", "cfront.lex", "cfront.parse", "cfront.typecheck",
    "compile.annotate", "compile.lower", "compile.opt", "compile.codegen",
    "postproc.peephole", "postproc.sink",
)

# Histogram metrics surfaced in the percentile section, in render order.
PERCENTILE_METRICS = (
    "gc.pause_ns", "gc.root_scan_ns", "gc.mark_ns", "gc.sweep_ns",
    "vm.run_cycles", "vm.run_wall_ns",
    "exec.task_wall_ns", "exec.queue_wait_ns",
)

def _as_dict(event: TraceEvent | dict[str, Any]) -> dict[str, Any]:
    if isinstance(event, dict):
        return event
    return event.to_json()


def summarize(events: Iterable[TraceEvent | dict[str, Any]],
              profile: VMProfile | None = None,
              top: int = 10,
              metrics: "MetricsRegistry | dict[str, Any] | None" = None,
              ) -> dict[str, Any]:
    """Aggregate a trace into the ``repro-obs-summary/1`` dict.

    ``metrics`` (a registry or its ``to_dict`` payload), or else an
    ``obs.metrics`` instant embedded in the trace, adds a ``metrics``
    section and drives the ``percentiles`` section.  Every trace writer
    (``repro obs record``, ``--trace`` on ``repro`` and ``repro.fuzz``)
    embeds one.  The ``resil`` section comes from that snapshot and the
    ``cache.stats`` snapshot of the installed cache tiers
    (:func:`resil_counts`); no count is taken from instants.
    """
    evs = [_as_dict(e) for e in events]
    metrics_payload: dict[str, Any] | None = None

    phases: dict[str, dict[str, int]] = {}
    opt_passes: dict[str, dict[str, int]] = {}
    compiles = 0
    compile_ns = 0
    gc_timeline: list[dict[str, Any]] = []
    gc = {"collections": 0, "pause_ns_total": 0, "pause_ns_max": 0,
          "root_scan_ns": 0, "mark_ns": 0, "sweep_ns": 0,
          "live_bytes_last": 0, "live_objects_last": 0,
          "fragmentation_last": 0.0, "reclaimed_objects": 0}
    vm = {"runs": 0, "wall_ns": 0, "cycles": 0, "instructions": 0,
          "collections": 0, "checks": 0}
    gc_stats: dict[str, Any] = {}
    tiers: dict[str, dict[str, int]] = {}

    for e in evs:
        kind, name = e.get("kind"), e.get("name", "")
        args = e.get("args", {})
        if kind == "span":
            dur = e.get("dur", 0)
            if name in COMPILE_PHASES:
                cell = phases.setdefault(name, {"ns": 0, "count": 0})
                cell["ns"] += dur
                cell["count"] += 1
            elif name == "compile":
                compiles += 1
                compile_ns += dur
            elif name.startswith("opt.") and name != "opt.function":
                cell = opt_passes.setdefault(
                    name[4:], {"ns": 0, "runs": 0, "rewrites": 0,
                               "insts_delta": 0, "changed_runs": 0})
                cell["ns"] += dur
                cell["runs"] += 1
                cell["rewrites"] += args.get("rewrites", 0)
                cell["insts_delta"] += args.get("insts_delta", 0)
                cell["changed_runs"] += 1 if args.get("changed") else 0
            elif name == "gc.collect":
                pause = args.get("pause_ns", 0)
                gc["collections"] += 1
                gc["pause_ns_total"] += pause
                gc["pause_ns_max"] = max(gc["pause_ns_max"], pause)
                gc["root_scan_ns"] += args.get("root_scan_ns", 0)
                gc["mark_ns"] += args.get("mark_ns", 0)
                gc["sweep_ns"] += args.get("sweep_ns", 0)
                gc["reclaimed_objects"] += args.get("reclaimed_objects", 0)
                gc["live_bytes_last"] = args.get("live_bytes", 0)
                gc["live_objects_last"] = args.get("live_objects", 0)
                gc["fragmentation_last"] = args.get("fragmentation", 0.0)
                gc_timeline.append({
                    "t0": e.get("t0", 0), "number": args.get("number"),
                    "pause_ns": pause,
                    "root_scan_ns": args.get("root_scan_ns", 0),
                    "mark_ns": args.get("mark_ns", 0),
                    "sweep_ns": args.get("sweep_ns", 0),
                    "marked": args.get("marked", 0),
                    "reclaimed_objects": args.get("reclaimed_objects", 0),
                    "alloc_since_gc": args.get("alloc_since_gc", 0),
                    "live_bytes": args.get("live_bytes", 0),
                    "fragmentation": args.get("fragmentation", 0.0),
                })
            elif name == "vm.run":
                vm["runs"] += 1
                vm["wall_ns"] += dur
                for key in ("cycles", "instructions", "collections", "checks"):
                    vm[key] += args.get(key, 0)
        elif kind == "instant" and name == "gc.stats":
            gc_stats = dict(args)
        elif kind == "instant" and name == "obs.metrics":
            # A metrics snapshot embedded in the trace (repro obs record).
            metrics_payload = args.get("metrics") or metrics_payload
        elif kind == "instant" and name == "cache.stats":
            tiers = dict(args)

    avg = gc["pause_ns_total"] // gc["collections"] if gc["collections"] else 0
    gc["pause_ns_avg"] = avg

    # Percentile section: the metric histograms' exact bucket counts.
    if metrics is not None:
        metrics_payload = (metrics.to_dict()
                           if isinstance(metrics, MetricsRegistry)
                           else dict(metrics))
    reg = MetricsRegistry().merge(metrics_payload or {})
    percentiles: dict[str, dict[str, Any]] = {}
    for name in PERCENTILE_METRICS:
        hist = reg.get(name)
        if isinstance(hist, Histogram) and hist.count:
            percentiles[name] = {"count": hist.count,
                                 "p50": hist.percentile(50),
                                 "p95": hist.percentile(95),
                                 "p99": hist.percentile(99),
                                 "max": hist.max}

    summary: dict[str, Any] = {
        "schema": SUMMARY_SCHEMA,
        "compile": {"units": compiles, "total_ns": compile_ns,
                    "phases": phases, "opt_passes": opt_passes},
        "gc": {**gc, "timeline": gc_timeline, "stats": gc_stats},
        "vm": vm,
    }
    if percentiles:
        summary["percentiles"] = percentiles
    if metrics_payload:
        summary["metrics"] = metrics_payload
    resil = resil_counts(reg, tiers)
    if resil:
        summary["resil"] = resil
    if profile is not None:
        summary["profile"] = profile.to_dict(top=top)
    return summary


def resil_counts(metrics: MetricsRegistry,
                 tiers: dict[str, dict[str, int]]) -> dict[str, Any]:
    """The ``resil`` section: the engine's recovery totals (``exec.*``
    counters, which each forked run adds from its ``MergedRun``) and
    the cache tiers' breaker trips and write errors (their
    ``CacheStats`` dicts, by kind).  Empty when nothing fired."""
    def total(name: str) -> int:
        counter = metrics.get(f"exec.{name}")
        return counter.value if counter is not None else 0

    resil = {"retries": total("retries"),
             "worker_deaths": total("worker_deaths"),
             "quarantined": total("quarantined"),
             "dropped_messages": total("dropped_messages"),
             "degraded": bool(total("degraded")),
             "breaker_trips": sum(t.get("breaker_trips", 0)
                                  for t in tiers.values()),
             "cache_write_errors": sum(t.get("write_errors", 0)
                                       for t in tiers.values())}
    return resil if any(resil.values()) else {}


# -- text rendering ----------------------------------------------------------

def _ms(ns: int | float) -> str:
    return f"{ns / 1e6:.2f}ms"


def _pct(part: int | float, whole: int | float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    -"


def _bar(value: float, peak: float, width: int = 24) -> str:
    if peak <= 0:
        return ""
    n = max(1, round(width * value / peak)) if value > 0 else 0
    return "#" * n


def render_compile_report(summary: dict[str, Any]) -> str:
    comp = summary["compile"]
    lines = [f"Compile pipeline: {comp['units']} unit(s), "
             f"{_ms(comp['total_ns'])} total"]
    total = comp["total_ns"] or 1
    for phase in COMPILE_PHASES:
        cell = comp["phases"].get(phase)
        if not cell:
            continue
        lines.append(f"  {phase:<20s} {_ms(cell['ns']):>10s} "
                     f"{_pct(cell['ns'], total)}  x{cell['count']}")
    if comp["opt_passes"]:
        lines.append("  optimizer passes (per-pass totals):")
        lines.append(f"    {'pass':<12s} {'time':>10s} {'runs':>6s} "
                     f"{'changed':>8s} {'rewrites':>9s} {'ir-delta':>9s}")
        for name, cell in sorted(comp["opt_passes"].items(),
                                 key=lambda kv: -kv[1]["ns"]):
            lines.append(f"    {name:<12s} {_ms(cell['ns']):>10s} "
                         f"{cell['runs']:>6d} {cell['changed_runs']:>8d} "
                         f"{cell['rewrites']:>9d} {cell['insts_delta']:>+9d}")
    return "\n".join(lines)


def render_gc_report(summary: dict[str, Any], max_rows: int = 20) -> str:
    gc = summary["gc"]
    if not gc["collections"]:
        return "GC: no collections recorded"
    lines = [f"GC: {gc['collections']} collection(s), "
             f"total pause {_ms(gc['pause_ns_total'])} "
             f"(avg {_ms(gc['pause_ns_avg'])}, max {_ms(gc['pause_ns_max'])})"]
    tot = gc["pause_ns_total"] or 1
    lines.append(f"  pause breakdown: root-scan {_ms(gc['root_scan_ns'])} "
                 f"({_pct(gc['root_scan_ns'], tot).strip()})  "
                 f"mark {_ms(gc['mark_ns'])} "
                 f"({_pct(gc['mark_ns'], tot).strip()})  "
                 f"sweep {_ms(gc['sweep_ns'])} "
                 f"({_pct(gc['sweep_ns'], tot).strip()})")
    lines.append(f"  live after last sweep: {gc['live_bytes_last']} bytes / "
                 f"{gc['live_objects_last']} objects, fragmentation "
                 f"{gc['fragmentation_last']:.1%}")
    timeline = gc["timeline"]
    peak = max(c["pause_ns"] for c in timeline)
    shown = timeline[:max_rows]
    lines.append(f"  {'#':>4s} {'pause':>10s} {'root':>9s} {'mark':>9s} "
                 f"{'sweep':>9s} {'marked':>8s} {'freed':>8s} "
                 f"{'live KB':>8s}  timeline")
    for c in shown:
        lines.append(
            f"  {c['number'] or 0:>4d} {_ms(c['pause_ns']):>10s} "
            f"{_ms(c['root_scan_ns']):>9s} {_ms(c['mark_ns']):>9s} "
            f"{_ms(c['sweep_ns']):>9s} {c['marked']:>8d} "
            f"{c['reclaimed_objects']:>8d} {c['live_bytes'] // 1024:>8d}  "
            f"{_bar(c['pause_ns'], peak)}")
    if len(timeline) > max_rows:
        lines.append(f"  ... {len(timeline) - max_rows} more collection(s)")
    entry = summary.get("metrics", {}).get("gc.alloc_bytes")
    if entry:
        lines.append("  allocation-size histogram (bytes -> count):")
        bounds = entry["bounds"]
        buckets = sorted((int(i), n) for i, n in entry["buckets"].items())
        peak_n = max(n for _, n in buckets)
        for i, count in buckets:
            lo = bounds[i - 1] + 1 if i else 0
            if i == len(bounds):
                rng = f">{bounds[-1]}"
            else:
                rng = f"{lo}" if lo == bounds[i] else f"{lo}-{bounds[i]}"
            lines.append(f"    {rng:>12s} {count:>9d}  {_bar(count, peak_n)}")
    return "\n".join(lines)


def render_vm_report(summary: dict[str, Any]) -> str:
    vm = summary["vm"]
    if not vm["runs"]:
        return "VM: no runs recorded"
    return (f"VM: {vm['runs']} run(s), {vm['cycles']} cycles, "
            f"{vm['instructions']} instructions, "
            f"{vm['collections']} collection(s), {vm['checks']} check(s), "
            f"{_ms(vm['wall_ns'])} wall")


def render_percentiles_report(summary: dict[str, Any]) -> str:
    pct = summary.get("percentiles")
    if not pct:
        return "percentiles: no histogram data recorded"
    lines = ["latency percentiles (from deterministic fixed-bucket "
             "histograms):",
             f"  {'metric':<20s} {'n':>6s} {'p50':>10s} {'p95':>10s} "
             f"{'p99':>10s} {'max':>10s}"]

    def fmt(name: str, value: Any) -> str:
        if value is None:
            return "-"
        return _ms(value) if name.endswith("_ns") else str(value)

    for name in PERCENTILE_METRICS:
        cell = pct.get(name)
        if not cell:
            continue
        lines.append(f"  {name:<20s} {cell['count']:>6d} "
                     f"{fmt(name, cell['p50']):>10s} "
                     f"{fmt(name, cell['p95']):>10s} "
                     f"{fmt(name, cell['p99']):>10s} "
                     f"{fmt(name, cell['max']):>10s}")
    return "\n".join(lines)


def render_resil_report(summary: dict[str, Any]) -> str:
    r = summary.get("resil")
    if not r:
        return "resilience: no recovery events recorded"
    return (f"resilience: {r['retries']} retried task(s), "
            f"{r['worker_deaths']} worker(s) lost, "
            f"{r['quarantined']} quarantined, "
            f"{r['dropped_messages']} dropped message(s), "
            f"{r['breaker_trips']} breaker trip(s), "
            f"{r['cache_write_errors']} cache write error(s)"
            + (", DEGRADED (serial fallback)" if r["degraded"] else ""))


def render_text(summary: dict[str, Any],
                profile: VMProfile | None = None, top: int = 10) -> str:
    parts = [render_compile_report(summary), "", render_gc_report(summary),
             "", render_vm_report(summary)]
    if "percentiles" in summary:
        parts += ["", render_percentiles_report(summary)]
    if "resil" in summary:
        parts += ["", render_resil_report(summary)]
    if profile is not None:
        parts += ["", profile.render_report(top=top)]
    return "\n".join(parts)
