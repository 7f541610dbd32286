"""Induction-variable strength reduction.

The paper's second named source of disguised pointers: "Similar problems
may occur as a result of induction variable optimizations".  This pass
turns per-iteration address computations

    loop:  t1 = shl i, k        ; or t1 = mul i, 2^k
           t2 = add a, t1
           ... [t2] ...
           i  = add i, c

into a walking pointer

    pre:   pv = a + (i << k)
    loop:  t2 = pv
           ... [t2] ...
           i  = add i, c
           pv = pv + (c << k)

With a collector that recognizes interior pointers (our default, and the
paper's framework), the walking pointer keeps the object reachable, so
the transformation is GC-safe by itself; its role here is to make the
``-O`` baseline more realistic.  Annotated address arithmetic is
rewritten too: the ``add`` whose result feeds a ``keep`` still matches
the pattern, so the walking pointer becomes the barrier's operand
(cfrac's O_safe code goes from 1,560 to 1,554 instructions, miniawk's
from 780 to 782).  That code stays GC-safe only because ``keep``'s base
operand keeps the base live on every iteration.

The pass is *not* in the default pipeline (the calibrated tables in
EXPERIMENTS.md were measured without it); enable it with
``CompileConfig(passes=(..., "indvar", ...))``.  The ablation benchmark
(``test_ablation_indvar`` in ``benchmarks/test_ablation_optimizations.py``)
measures its effect on the paper workloads at O and O_safe, and runs
cfrac's and miniawk's O_safe code with it under a collection at every
instruction with reclaimed objects poisoned.

Constraints (all conservative):
* natural loop = backward branch to a label, with no branches from
  outside the region targeting labels inside it;
* the induction variable has exactly one definition in the region:
  ``i = add i, c`` with ``c`` a loop-invariant constant;
* the address pattern's base ``a`` and scale are loop-invariant, the
  scaled temp is single-use, and the pattern sits in the region.
"""

from __future__ import annotations

from ..cfg import BRANCHES, loop_regions
from ..ir import Inst, IRFunc, Vreg


def run(fn: IRFunc) -> bool:
    changed = False
    while _reduce_one(fn):
        changed = True
    return changed


def _loop_regions(fn: IRFunc) -> list[tuple[int, int]]:
    """The natural loops no branch from outside enters sideways."""
    out = []
    for start, end in loop_regions(fn.insts):
        labels_inside = {fn.insts[k].symbol for k in range(start, end + 1)
                         if fn.insts[k].op == "label"}
        entered_sideways = any(
            inst.op in BRANCHES and inst.symbol in labels_inside
            for k, inst in enumerate(fn.insts)
            if k < start or k > end)
        if not entered_sideways:
            out.append((start, end))
    return out


def _single_defs(fn: IRFunc) -> dict[Vreg, Inst]:
    counts: dict[Vreg, int] = {}
    first: dict[Vreg, Inst] = {}
    for inst in fn.insts:
        if inst.dst is not None:
            counts[inst.dst] = counts.get(inst.dst, 0) + 1
            first.setdefault(inst.dst, inst)
    return {v: first[v] for v, n in counts.items() if n == 1}


def _reduce_one(fn: IRFunc) -> bool:
    single = _single_defs(fn)

    def const_of(v: Vreg) -> int | None:
        inst = single.get(v)
        if inst is not None and inst.op == "const":
            return inst.imm
        return None

    for start, end in _loop_regions(fn):
        region = range(start, end + 1)
        defs_in_region: dict[Vreg, list[int]] = {}
        for k in region:
            dst = fn.insts[k].dst
            if dst is not None:
                defs_in_region.setdefault(dst, []).append(k)

        def invariant(v: Vreg) -> bool:
            return v not in defs_in_region

        # Find basic induction variables: i defined once as i = add i, c.
        for iv, def_sites in defs_in_region.items():
            if len(def_sites) != 1:
                continue
            inc_idx = def_sites[0]
            inc = fn.insts[inc_idx]
            if inc.op != "bin" or inc.subop != "add" or iv not in inc.args:
                continue
            other = inc.args[1] if inc.args[0] == iv else inc.args[0]
            step = const_of(other)
            if step is None or not invariant(other):
                continue
            if _reduce_address_of(fn, start, end, iv, step, inc_idx,
                                  defs_in_region, single, const_of):
                return True
    return False


def _reduce_address_of(fn, start, end, iv, step, inc_idx, defs_in_region,
                       single, const_of) -> bool:
    """Find and rewrite one scaled-address pattern of ``iv``."""
    uses: dict[Vreg, int] = {}
    for inst in fn.insts:
        for a in inst.args:
            uses[a] = uses.get(a, 0) + 1

    for k in range(start, end + 1):
        scaled = fn.insts[k]
        if scaled.op != "bin" or scaled.subop not in ("shl", "mul"):
            continue
        if not scaled.args or scaled.args[0] != iv:
            continue
        factor_v = scaled.args[1]
        factor = const_of(factor_v)
        if factor is None:
            continue
        stride = (step << factor) if scaled.subop == "shl" else step * factor
        t1 = scaled.dst
        if t1 is None or uses.get(t1, 0) != 1 or len(defs_in_region.get(t1, [])) != 1:
            continue
        # The add that forms the address.
        addr_idx = None
        for m in range(k + 1, end + 1):
            inst = fn.insts[m]
            if inst.op == "bin" and inst.subop == "add" and t1 in inst.args:
                addr_idx = m
                break
            if inst.dst == t1:
                break
        if addr_idx is None:
            continue
        addr = fn.insts[addr_idx]
        base = addr.args[1] if addr.args[0] == t1 else addr.args[0]
        if base in defs_in_region or addr.dst is None:
            continue
        t2 = addr.dst
        if len(defs_in_region.get(t2, [])) != 1:
            continue
        # t2 must only be used inside the region (its value is not
        # maintained after the loop).
        for n, inst in enumerate(fn.insts):
            if t2 in inst.args and not (start <= n <= end):
                return False
        # The pattern must be computed on the same side of the increment
        # every iteration; require it strictly before the increment.
        if not (k < inc_idx and addr_idx < inc_idx):
            continue

        pv = fn.new_vreg("indvar")
        pre_t = fn.new_vreg()
        pre_f = fn.new_vreg()
        stride_v = fn.new_vreg()
        pre = [
            Inst("const", dst=pre_f, imm=factor),
            Inst("bin", dst=pre_t, subop=scaled.subop, args=(iv, pre_f)),
            Inst("bin", dst=pv, subop="add", args=(base, pre_t)),
            Inst("const", dst=stride_v, imm=stride & 0xFFFFFFFF),
        ]
        # Rewrite inside the region first (indices shift after insert).
        fn.insts[addr_idx] = Inst("mov", dst=t2, args=(pv,))
        fn.insts[k] = Inst("comment", text="indvar: scaled index removed")
        bump = Inst("bin", dst=pv, subop="add", args=(pv, stride_v))
        fn.insts.insert(inc_idx + 1, bump)
        fn.insts[start:start] = pre
        return True
    return False
