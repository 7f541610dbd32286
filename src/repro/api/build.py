"""Envelope builders — the one serialization of every tool report.

Each function turns a toolchain result into the payload of its
registered envelope (:mod:`repro.api.envelopes`).  The CLI ``--json``
paths and the ``repro serve`` daemon both call these builders, so a
job submitted over the wire serializes byte-for-byte like the same job
run through ``python -m repro <cmd> --json`` — that identity is the
service's correctness gate.

Every builder is deterministic: no wall-clock numbers, no process
state, keys emitted in sorted order by :func:`dumps_canonical`.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Any

from . import envelopes

if TYPE_CHECKING:
    from ..bench.harness import WorkloadRow
    from ..cfront.errors import Diagnostic
    from ..core.api import AnnotatedSource
    from ..fuzz.campaign import CampaignResult
    from ..machine.vm import RunResult

#: bench table key per machine model (T1-T3 in the paper).
TABLE_KEYS = {"ss2": "t1_ss2", "ss10": "t2_ss10", "p90": "t3_p90"}


def dumps_canonical(doc: dict) -> str:
    """The one canonical rendering every producer prints — byte
    identity between serial, sharded, and served runs is defined over
    this string."""
    return json.dumps(doc, indent=2, sort_keys=True)


def _diag_rows(source: str, diags: "list[Diagnostic]") -> list[dict]:
    return [{"pos": d.pos, "line": source.count("\n", 0, d.pos) + 1,
             "category": d.category, "message": d.message}
            for d in diags]


def annotate_envelope(source: str, mode: str,
                      result: "AnnotatedSource") -> dict:
    """``repro-annotate/1`` — the annotated text plus stats."""
    return envelopes.make(envelopes.ANNOTATE, {
        "mode": mode,
        "text": result.text,
        "keep_lives": result.stats.keep_lives,
        "stats": dataclasses.asdict(result.stats),
        "diagnostics": _diag_rows(source, result.diagnostics),
    })


def check_envelope(source: str, diags: "list[Diagnostic]") -> dict:
    """``repro-check/1`` — source-safety diagnostics only."""
    return envelopes.make(envelopes.CHECK, {
        "ok": not diags,
        "count": len(diags),
        "diagnostics": _diag_rows(source, diags),
    })


def run_envelope(result: "RunResult", code_size: int, config: str,
                 model: str) -> dict:
    """``repro-run/1`` — one compile+execute observation."""
    return envelopes.make(envelopes.RUN, {
        "config": config,
        "model": model,
        "exit_code": result.exit_code,
        "output": result.output,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "collections": result.collections,
        "code_size": code_size,
    })


def bench_envelope(rows: "dict[str, WorkloadRow]", model: str) -> dict:
    """``repro-bench/1`` — the slowdown matrix: per-cell counts plus
    the rendered table (the same bytes ``repro bench`` prints)."""
    from ..bench.tables import render_slowdown_table
    from ..machine.models import MODELS
    cells: dict[str, dict[str, Any]] = {}
    for workload, row in rows.items():
        cells[workload] = {
            config: {"cycles": c.cycles, "instructions": c.instructions,
                     "code_size": c.code_size, "exit_code": c.exit_code,
                     "collections": c.collections}
            for config, c in row.cells.items()}
    table = render_slowdown_table(
        rows, TABLE_KEYS[model], f"Slowdowns on {MODELS[model].name}")
    return envelopes.make(envelopes.BENCH, {
        "model": model,
        "workloads": sorted(rows),
        "cells": cells,
        "table": table,
    })


def fuzz_envelope(result: "CampaignResult") -> dict:
    """``repro-fuzz/1`` — the campaign record with its simulated
    collector counts (wall-clock pause times stay in the obs layer)."""
    return envelopes.make(envelopes.FUZZ, {
        "seed": result.seed,
        "iterations": result.iterations,
        "cells": result.cells,
        "ok": result.ok,
        "findings": [f.describe() for f in result.findings],
        "gc_totals": result.gc_totals.to_dict(),
        "report": result.report(),
    })


__all__ = ["TABLE_KEYS", "dumps_canonical", "annotate_envelope",
           "check_envelope", "run_envelope", "bench_envelope",
           "fuzz_envelope"]
