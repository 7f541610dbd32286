"""Test-only hook: re-break the addrfold in-place aliasing fix.

PR 1 fixed a latent miscompile in :mod:`repro.machine.opt.addrfold`: the
in-place variant of address reassociation (``p = p - c; ... p[i]``) must
not fire when the index operand aliases the base (``x + (x - c)``) or
when the base is still read between the two rewritten instructions —
otherwise the adjustment clobbers the value the final add still needs.

This module deliberately reintroduces that bug behind a context manager
so the differential oracle and the delta-debugging reducer can be
validated end-to-end against a *known* miscompile: under
:func:`rebroken_addrfold`, ``x + (x - c)`` compiles (at ``-O``) to
``2*(x - c)`` instead of ``2*x - c``.

Never import this from production code paths; it exists for
``tests/test_fuzz`` and the ``--rebreak-addrfold`` CLI flag only.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..machine.cfg import basic_blocks
from ..machine.ir import Inst, IRFunc, Vreg
from ..machine import opt as opt_pipeline


def _broken_run(fn: IRFunc) -> bool:
    """addrfold's in-place rewrite with the PR 1 aliasing guard removed.

    Structure mirrors ``addrfold.run`` but *always* takes the in-place
    branch when the base's live range ends at the rewritten add — even
    if the index operand is the base itself or the base is still read in
    between.  That is exactly the pre-fix behavior.
    """
    from ..machine.regalloc import build_intervals
    intervals, _ = build_intervals(fn)
    global_uses: dict[Vreg, int] = {}
    for inst in fn.insts:
        for a in inst.args:
            global_uses[a] = global_uses.get(a, 0) + 1
    for block in basic_blocks(fn.insts):
        def_at: dict[Vreg, int] = {}
        for idx in block:
            inst = fn.insts[idx]
            if inst.dst is not None:
                def_at[inst.dst] = idx

        for idx in block:
            inst = fn.insts[idx]
            if inst.op != "bin" or inst.subop != "add" or len(inst.args) != 2:
                continue
            if inst.text == "reassoc":
                continue
            for p, t1 in (inst.args, inst.args[::-1]):
                t1_def_idx = def_at.get(t1)
                if t1_def_idx is None or t1_def_idx >= idx:
                    continue
                t1_def = fn.insts[t1_def_idx]
                if t1_def.op != "bin" or t1_def.subop not in ("sub", "add"):
                    continue
                if global_uses.get(t1, 0) != 1:
                    continue
                i_val, c_val = t1_def.args
                c_def_idx = def_at.get(c_val)
                if c_def_idx is None or fn.insts[c_def_idx].op != "const":
                    continue
                if global_uses.get(c_val, 0) != 1:
                    continue
                if any(fn.insts[k].dst in (i_val, p, c_val)
                       for k in range(t1_def_idx + 1, idx)
                       if fn.insts[k].dst is not None):
                    continue
                p_iv = intervals.get(p)
                if p_iv is None or p_iv.end > 2 * idx:
                    continue
                # The bug: no ``i_val != p`` / no intervening-read check.
                fn.insts[t1_def_idx] = Inst("bin", dst=p, subop=t1_def.subop,
                                            args=(p, c_val), text="reassoc")
                fn.insts[idx] = Inst("bin", dst=inst.dst, subop="add",
                                     args=(p, i_val), text="reassoc")
                return True
    return False


@contextmanager
def rebroken_addrfold():
    """Swap the registered addrfold pass for the pre-fix buggy variant
    for the duration of the ``with`` block.

    The pass swap changes pipeline *output* without changing any
    compile-cache key component, so the block also pushes an extra salt
    (:func:`repro.exec.cache.salt_context`) — otherwise a warm cache
    would serve correctly-compiled stale code and mask the bug the
    oracle is being validated against.
    """
    from ..exec.cache import salt_context

    original = opt_pipeline._PASS_FNS["addrfold"]
    opt_pipeline._PASS_FNS["addrfold"] = _broken_run
    try:
        with salt_context("rebroken-addrfold"):
            yield
    finally:
        opt_pipeline._PASS_FNS["addrfold"] = original
