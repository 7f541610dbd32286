"""Spans around the calls into each layer's public functions.

The benchmark wraps toolchain functions from the outside -- nothing in
``src/`` changes.  A wrapper records ``(name, start_ns, end_ns, parent,
unit, value)``: the parent is the index of the enclosing span, the unit
names the cell, program or build source being worked on, and
``value`` is a count taken from the call's result (tokens lexed, IR
instructions lowered, ...).  Spans stay in memory until the run ends.

Two target sets exist.  :data:`PROBES` (compile, VM run and the
annotation pass) stays installed during untraced passes, because
end-to-end metrics need their latencies and simulated instruction
counts.  :data:`TARGETS` adds every layer for the traced passes.

A layer's self time is its spans' durations minus the part covered by
their direct children.  Time outside every top-level span is the
benchmark's and the harness's own glue, reported as unaccounted.
Durations are scaled to reference-host seconds by their unit's
host-speed factor (see ``workloads``), like the end-to-end metrics.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

OPT_PASSES = ("local", "licm", "strength", "addrfold", "deadcode")


class Recorder:
    """Holds every span of a run, in start order."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.unit = ""

    def wrap(self, fn, name: str, measure=None):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns
        rec = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, now(), parent, rec.unit, None)
                stack.pop()
                raise
            t1 = now()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, rec.unit,
                          None if measure is None else measure(args, result))
            return result

        traced.__wrapped__ = fn
        return traced


# -- what to wrap --------------------------------------------------------------

def _compile_key(args, result):
    config = result.config
    return (args[0], config.optimize, config.safe, config.checked,
            config.model.name, tuple(config.passes), config.run_cpp)


def _ir_insts(args, ir):
    return sum(len(fn.insts) for fn in ir.functions.values())


def _vm_counts(args, run):
    return (run.instructions, run.checks)


#: (span name, module, attribute, measure).  An attribute ``Class.meth``
#: wraps a method on the class; ``_PASS_FNS[key]`` wraps a registry entry.
PROBES = (
    ("compile", "repro.machine.driver", "compile_source", _compile_key),
    ("vm.run", "repro.machine.vm", "VM.run", _vm_counts),
    ("core.annotate", "repro.core.annotate", "Annotator.run",
     lambda args, result: result.stats.keep_lives),
)

TARGETS = PROBES + (
    ("cfront.cpp", "repro.cfront.cpp", "preprocess", None),
    ("cfront.lex", "repro.cfront.lexer", "tokenize",
     lambda args, tokens: len(tokens)),
    ("cfront.parse", "repro.cfront.parser", "parse",
     lambda args, unit: args[0]),
    ("cfront.typecheck", "repro.cfront.typecheck", "typecheck", None),
    ("core.sourcecheck", "repro.core.sourcecheck", "check_unit", None),
    ("lower", "repro.machine.lower", "lower_unit", _ir_insts),
    ("opt", "repro.machine.opt", "optimize", None),
    *((f"opt.{p}", "repro.machine.opt", f"_PASS_FNS[{p}]",
       lambda args, changed: bool(changed)) for p in OPT_PASSES),
    ("regalloc", "repro.machine.regalloc", "allocate", None),
    ("codegen", "repro.machine.codegen", "generate_program",
     lambda args, prog: prog.code_size()),
    ("postproc.peephole", "repro.postproc.peephole", "postprocess",
     lambda args, stats: stats.total),
    ("postproc.sink", "repro.postproc.sink", "sink_program", None),
    ("vm.init", "repro.machine.vm", "VM.__init__", None),
    ("gc.collect", "repro.gc.collector", "Collector.collect", None),
    ("fuzz.gen", "repro.fuzz.gen", "generate_program", None),
    ("fuzz.oracle", "repro.fuzz.oracle", "check_program", None),
    ("exec", "repro.exec.engine", "run_sharded", None),
)


class Patches:
    """Installs wrappers for a target set and takes them out again.

    A module-level function is replaced wherever a loaded ``repro``
    module holds it, since ``from x import f`` copies the binding into
    the importer.  Import every module that calls a target first."""

    def __init__(self, rec: Recorder, targets):
        self._undo: list[tuple] = []
        for name, module, attr, measure in targets:
            self._install(rec, name, importlib.import_module(module), attr,
                          measure)

    def _install(self, rec, name, module, attr, measure):
        if "[" in attr:
            table, key = attr[:-1].split("[")
            registry = getattr(module, table)
            self._set(registry.__setitem__, registry[key], key,
                      rec.wrap(registry[key], name, measure))
        elif "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((setattr, cls, meth, orig))
            setattr(cls, meth, rec.wrap(orig, name, measure))
        else:
            orig = getattr(module, attr)
            new = rec.wrap(orig, name, measure)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is orig:
                        self._set(namespace.__setitem__, orig, key, new)

    def _set(self, setitem, orig, key, new):
        self._undo.append((setitem, key, orig))
        setitem(key, new)

    def remove(self) -> None:
        for undo in reversed(self._undo):
            undo[0](*undo[1:])
        self._undo.clear()


# -- per-layer metrics ---------------------------------------------------------

#: Layer -> the spans whose self time it owns (shares of the traced wall).
LAYERS = {
    "cfront": ("cfront.cpp", "cfront.lex", "cfront.parse", "cfront.typecheck"),
    "core": ("core.annotate", "core.sourcecheck"),
    "machine.lower": ("lower",),
    "machine.opt": ("opt",) + tuple(f"opt.{p}" for p in OPT_PASSES),
    "machine.regalloc": ("regalloc",),
    "machine.codegen": ("codegen",),
    "machine.driver": ("compile",),
    "postproc": ("postproc.peephole", "postproc.sink"),
    "machine.vm": ("vm.init", "vm.run"),
    "gc": ("gc.collect",),
    "fuzz": ("fuzz.oracle",),
    "exec": ("exec",),
}


class Totals:
    """Self time, inclusive time, calls, durations and measured values
    per span name over span windows ``(first, end, unit -> factor)``.
    Spans of a unit missing from the factors count at host speed."""

    def __init__(self, spans: list, windows: list[tuple[int, int, dict]]):
        self.self_ns: dict[str, float] = defaultdict(float)
        self.incl_ns: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, list] = defaultdict(list)
        self.top_ns = 0.0
        for lo, hi, factors in windows:
            ns = [(t1 - t0) * factors.get(unit, 1.0)
                  for _, t0, t1, _, unit, _ in spans[lo:hi]]
            child = [0.0] * (hi - lo)
            for i in range(lo, hi):
                parent = spans[i][3]
                if parent >= lo:
                    child[parent - lo] += ns[i - lo]
                else:
                    self.top_ns += ns[i - lo]
            for i in range(lo, hi):
                name, value = spans[i][0], spans[i][5]
                self.self_ns[name] += ns[i - lo] - child[i - lo]
                self.incl_ns[name] += ns[i - lo]
                self.calls[name] += 1
                self.durations[name].append(ns[i - lo])
                if value is not None:
                    self.values[name].append(value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list, windows: list[tuple[int, int, dict]],
                  traced_walls: list[float],
                  untraced_walls: list[tuple[float, float]],
                  setup_window: tuple[int, int]) -> dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``, per traced
    pass.  Traced walls are the passes' reference-host seconds; untraced
    walls are (reference-host, host) second pairs."""
    t = Totals(spans, windows)
    n = len(windows)
    wall_ms = 1e3 * sum(traced_walls) / n

    def ms(name):
        return t.self_ns[name] / 1e6 / n

    def count(name, pick=lambda v: v):
        return sum(pick(v) for v in t.values[name]) / n

    out: dict[str, tuple] = {
        "cfront.cpp_ms": (ms("cfront.cpp"), "ms"),
        "cfront.lex_ms": (ms("cfront.lex"), "ms"),
        "cfront.parse_ms": (ms("cfront.parse"), "ms"),
        "cfront.typecheck_ms": (ms("cfront.typecheck"), "ms"),
        "cfront.tokens_per_s": (_ratio(sum(t.values["cfront.lex"]),
                                       t.incl_ns["cfront.lex"] / 1e9), "1/s"),
        "cfront.parse_unique_ratio": (
            _ratio(len(set(t.values["cfront.parse"])),
                   t.calls["cfront.parse"]), "ratio"),
        "compile.unique_ratio": (_ratio(len(set(t.values["compile"])),
                                        t.calls["compile"]), "ratio"),
        "compile.self_ms": (ms("compile"), "ms"),
        "core.annotate_ms": (ms("core.annotate"), "ms"),
        "core.sourcecheck_ms": (ms("core.sourcecheck"), "ms"),
        "core.keep_lives": (count("core.annotate"), "count"),
        "lower.ms": (ms("lower"), "ms"),
        "lower.ir_insts": (count("lower"), "count"),
        "opt.ms": (t.incl_ns["opt"] / 1e6 / n, "ms"),
    }
    for p in OPT_PASSES:
        name = f"opt.{p}"
        out[f"{name}.ms"] = (ms(name), "ms")
        out[f"{name}.changed_ratio"] = (
            _ratio(sum(t.values[name]), t.calls[name]), "ratio")
    vm_s = t.incl_ns["vm.run"] / 1e9
    minst = sum(v[0] for v in t.values["vm.run"]) / 1e6
    collect_us = [d / 1e3 for d in t.durations["gc.collect"]]
    setup = Totals(spans, [(*setup_window, {})])
    untraced_ms = 1e3 * statistics.median(w for w, _ in untraced_walls)
    host_walls = [raw for _, raw in untraced_walls]
    traced_ms = 1e3 * statistics.median(traced_walls)
    out.update({
        "regalloc.ms": (ms("regalloc"), "ms"),
        "codegen.self_ms": (ms("codegen"), "ms"),
        "codegen.code_size": (count("codegen"), "count"),
        "postproc.peephole_ms": (ms("postproc.peephole"), "ms"),
        "postproc.peephole_rewrites": (count("postproc.peephole"), "count"),
        "postproc.sink_ms": (ms("postproc.sink"), "ms"),
        "vm.init_ms": (ms("vm.init"), "ms"),
        "vm.run_self_ms": (ms("vm.run"), "ms"),
        "vm.minst": (minst / n, "Minst"),
        "vm.minst_per_s": (_ratio(minst, vm_s), "Minst/s"),
        "gc.collect_ms": (ms("gc.collect"), "ms"),
        "gc.collections": (t.calls["gc.collect"] / n, "count"),
        "gc.collect_us_p50": (_quantile(collect_us, 50), "us"),
        "gc.collect_us_p99": (_quantile(collect_us, 99), "us"),
        "gc.checks": (count("vm.run", lambda v: v[1]), "count"),
        "fuzz.gen_ms": (setup.self_ns["fuzz.gen"] / 1e6, "ms"),
        "fuzz.oracle_self_ms": (ms("fuzz.oracle"), "ms"),
        "exec.self_ms": (ms("exec"), "ms"),
        "trace.unaccounted_ms": (wall_ms - t.top_ns / 1e6 / n, "ms"),
        "trace.overhead_ms": (traced_ms - untraced_ms, "ms"),
        # The untraced passes in host seconds, unscaled, and the scaling
        # factor: a shift in the factor shows here, not in the results.
        "host.wall_s": (statistics.median(host_walls), "s"),
        "host.speed": (sum(w for w, _ in untraced_walls) / sum(host_walls),
                       "ratio"),
    })
    for layer, names in LAYERS.items():
        share = sum(t.self_ns[name] for name in names) / 1e6 / n
        out[f"share.{layer}"] = (100.0 * _ratio(share, wall_ms), "%")
    out["share.unaccounted"] = (
        100.0 * _ratio(out["trace.unaccounted_ms"][0], wall_ms), "%")
    return out
