"""Address-arithmetic reassociation — the paper's motivating
"pointer-disguising" transformation.

For ``p[i - 1000]`` the lowered IR is::

    t1 = sub i, #1000
    t2 = add p, t1
    ... load [t2]

This pass reassociates the constant against the pointer::

    t3 = sub p, #1000      ; t3 points OUTSIDE the object!
    t2 = add t3, i

which is profitable when the constant-adjusted pointer is loop-invariant
or frees ``i``'s computation, and is precisely "a conventional C
compiler may replace a final reference p[i-1000] to the heap character
pointer p by the sequence p = p - 1000; ... p[i] ...".  If ``p`` is dead
afterwards, the register allocator reuses its register for ``t3`` and no
recognizable pointer to the object remains — the GC-safety failure the
paper opens with.

A KEEP_LIVE between the arithmetic and the dereference does not inhibit
this pass (the paper: the goal is "to convince the compiler to preserve
some values longer ... rather than to suppress specific optimizations");
it keeps the base register alive instead, which is what restores safety.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

from ..ir import Inst, IRFunc, Vreg, basic_blocks


def run(fn: IRFunc) -> bool:
    # Global use counts matter for "single use" safety.  The first
    # rewrite returns, so one count serves the whole call.
    global_uses: dict[Vreg, int] = {}
    for inst in fn.insts:
        for a in inst.args:
            global_uses[a] = global_uses.get(a, 0) + 1
    # Live-range ends let us overwrite a dead pointer in place — the
    # paper's literal "p = p - 1000".  Built on first use only: most
    # calls find no candidate.  (Import here to avoid a cycle.)
    from ..regalloc import build_intervals
    intervals = cache(lambda: build_intervals(fn)[0])
    for block in basic_blocks(fn):
        # Per-block maps: vreg -> defining inst index (latest), def counts.
        def_at: dict[Vreg, int] = {}
        def_count: dict[Vreg, int] = {}
        for idx in block:
            dst = fn.insts[idx].dst
            if dst is not None:
                def_at[dst] = idx
                def_count[dst] = def_count.get(dst, 0) + 1

        for idx in block:
            inst = fn.insts[idx]
            if inst.op != "bin" or inst.subop != "add" or len(inst.args) != 2:
                continue
            if inst.text == "reassoc":  # already rewritten; the transform
                continue                 # is its own inverse otherwise
            p, t1 = inst.args
            if (_try_reassoc(fn, idx, inst, p, t1, def_at, def_count,
                             global_uses, intervals)
                    or _try_reassoc(fn, idx, inst, t1, p, def_at, def_count,
                                    global_uses, intervals)):
                # The in-place variant invalidates the analysis maps;
                # restart (the pipeline iterates to a fixpoint anyway).
                return True
    return False


def _try_reassoc(fn: IRFunc, idx: int, inst: Inst, p: Vreg, t1: Vreg,
                 def_at: dict[Vreg, int], def_count: dict[Vreg, int],
                 global_uses: dict[Vreg, int],
                 intervals: Callable[[], dict]) -> bool:
    """Rewrite add(p, t1) where t1 = sub(i, c)/add(i, c) into
    add(sub/add(p, c), i), in place (two instructions)."""
    t1_def_idx = def_at.get(t1)
    if t1_def_idx is None or t1_def_idx >= idx:
        return False
    t1_def = fn.insts[t1_def_idx]
    if t1_def.op != "bin" or t1_def.subop not in ("sub", "add"):
        return False
    if global_uses.get(t1, 0) != 1 or def_count.get(t1, 0) != 1:
        return False
    i_val, c_val = t1_def.args
    c_def_idx = def_at.get(c_val)
    if c_def_idx is None or fn.insts[c_def_idx].op != "const":
        return False
    if global_uses.get(c_val, 0) != 1:
        return False
    # Don't reassociate additions with tiny constants: those fold into
    # addressing modes anyway, and rewriting them loses that.
    c_imm = fn.insts[c_def_idx].imm or 0
    if t1_def.subop == "add" and -64 <= _sig(c_imm) <= 64:
        return False
    # Check that i_val and p are not redefined between t1's def and the add.
    for k in range(t1_def_idx + 1, idx):
        dst = fn.insts[k].dst
        if dst is not None and dst in (i_val, p, c_val):
            return False
    # Rewrite:  t1 = sub(i, c)  ->  t1 = sub(p, c)   (pointer adjusted)
    #           t2 = add(p, t1) ->  t2 = add(t1, i)
    # The in-place variant overwrites p at t1's definition point, so it
    # is only sound when the index operand is a different register (for
    # p[p - c] both operands of the final add would read the adjusted
    # pointer) and nothing between the two instructions still reads the
    # original p.
    in_place_ok = (
        i_val != p
        and inst.dst != p
        and not any(p in fn.insts[k].args
                    for k in range(t1_def_idx + 1, idx)))
    p_iv = intervals().get(p) if in_place_ok else None
    if p_iv is not None and p_iv.end <= 2 * idx:
        # p is dead after this address computation: overwrite it in
        # place, the paper's literal "p = p - 1000; ... p[i]".  Between
        # the adjustment and the use, no register holds a pointer into
        # the object — the GC-safety failure.  (With KEEP_LIVE the base's
        # live range extends past this point, so this branch cannot
        # trigger on annotated code.)
        fn.insts[t1_def_idx] = Inst("bin", dst=p, subop=t1_def.subop,
                                    args=(p, c_val), text="reassoc")
        fn.insts[idx] = Inst("bin", dst=inst.dst, subop="add",
                             args=(p, i_val), text="reassoc")
        return True
    fn.insts[t1_def_idx] = Inst("bin", dst=t1, subop=t1_def.subop,
                                args=(p, c_val), text="reassoc")
    fn.insts[idx] = Inst("bin", dst=inst.dst, subop="add",
                         args=(t1, i_val), text="reassoc")
    return True


def _sig(x: int) -> int:
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x >= 1 << 31 else x
