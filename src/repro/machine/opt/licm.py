"""Loop-invariant code motion (constants and address materialization).

Conservative by construction: only single-definition ``const``/``la``/
``frame`` instructions are hoisted out of natural loops (a label with a
later backward branch to it).  Those instructions are pure, their
operands are immediate, and a single definition dominating all uses
stays dominating when moved to the loop preheader, so no dataflow
analysis is needed.

This keeps the ``-O`` baseline honest: without it, every pointer-scaling
constant would be re-materialized on each iteration and the KEEP_LIVE
overhead would look artificially small.
"""

from __future__ import annotations

from ..cfg import loop_regions
from ..ir import IRFunc, Vreg

_HOISTABLE = frozenset(("const", "la", "frame"))


def run(fn: IRFunc) -> bool:
    changed = False
    while _hoist_once(fn):
        changed = True
    return changed


def _hoist_once(fn: IRFunc) -> bool:
    regions = loop_regions(fn.insts)
    if not regions:
        return False

    def_counts: dict[Vreg, int] = {}
    for inst in fn.insts:
        if inst.dst is not None:
            def_counts[inst.dst] = def_counts.get(inst.dst, 0) + 1

    for start, end in regions:
        for k in range(start + 1, end + 1):
            inst = fn.insts[k]
            if (inst.op in _HOISTABLE and inst.dst is not None
                    and def_counts.get(inst.dst, 0) == 1):
                del fn.insts[k]
                fn.insts.insert(start, inst)
                return True
    return False
