"""Linear-scan register allocation.

The allocatable pool is split into caller-saved (``t*``) and
callee-saved (``s*``) halves; intervals that are live across a call must
take a callee-saved register or spill.  The split sizes come from the
machine model — the Pentium 90's six registers versus the SPARCs'
sixteen is how the paper's register-pressure observation (Analysis
section) becomes measurable here.

KEEP_LIVE interacts with allocation in two ways, both from the paper:
its base operand's live range extends to the barrier ("It may require
another register to preserve the original value of p, and thus
conceivably add register spill code"), and its destination is tied to
its source ("requests that the first argument be assigned the same
location as the result") via an allocation hint.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .cfg import basic_blocks, live_sets, successors
from .ir import Inst, IRFunc, Vreg
from .models import MachineModel


@dataclass
class Interval:
    vreg: Vreg
    start: int
    end: int
    crosses_call: bool = False
    hint: Vreg | None = None
    reg: str | None = None
    spill_slot: str | None = None


@dataclass
class Allocation:
    intervals: dict[Vreg, Interval]
    caller_regs: list[str]
    callee_regs: list[str]
    used_callee: list[str] = field(default_factory=list)
    # Spill slot names in allocation order (4 bytes each).  They live
    # here, not in the IR function's frame, so one optimized IR function
    # can be allocated for several machine models.
    spill_slots: list[str] = field(default_factory=list)

    @property
    def spill_count(self) -> int:
        return len(self.spill_slots)

    def loc(self, vreg: Vreg) -> Interval:
        return self.intervals[vreg]


def _liveness(fn: IRFunc) -> tuple[list[list[int]], list[set[Vreg]], list[set[Vreg]]]:
    blocks = basic_blocks(fn.insts)
    use: list[set[Vreg]] = []
    defs: list[set[Vreg]] = []
    for idxs in blocks:
        u: set[Vreg] = set()
        d: set[Vreg] = set()
        for i in idxs:
            inst = fn.insts[i]
            for a in inst.args:
                if a not in d:
                    u.add(a)
            if inst.dst is not None:
                d.add(inst.dst)
        use.append(u)
        defs.append(d)

    live_in, live_out = live_sets(successors(fn.insts, blocks), use, defs)
    return blocks, live_in, live_out


def build_intervals(fn: IRFunc) -> tuple[dict[Vreg, Interval], list[int]]:
    """Crude single-range intervals plus the list of call positions."""
    blocks, live_in, live_out = _liveness(fn)
    intervals: dict[Vreg, Interval] = {}
    call_positions: list[int] = []

    def touch(vreg: Vreg, pos: int) -> None:
        iv = intervals.get(vreg)
        if iv is None:
            intervals[vreg] = Interval(vreg, pos, pos)
        else:
            iv.start = min(iv.start, pos)
            iv.end = max(iv.end, pos)

    for p, param in enumerate(fn.params):
        touch(param, -1)

    for b, idxs in enumerate(blocks):
        if not idxs:
            continue
        bstart, bend = 2 * idxs[0], 2 * idxs[-1] + 1
        for vreg in live_in[b]:
            touch(vreg, bstart)
        for vreg in live_out[b]:
            touch(vreg, bend)
        for i in idxs:
            inst = fn.insts[i]
            if inst.op in ("call", "callr"):
                call_positions.append(2 * i)
            for a in inst.args:
                touch(a, 2 * i)
            if inst.dst is not None:
                touch(inst.dst, 2 * i + 1)
            if inst.op in ("keep", "mov") and inst.dst is not None and inst.args:
                iv = intervals.setdefault(
                    inst.dst, Interval(inst.dst, 2 * i + 1, 2 * i + 1))
                iv.hint = inst.args[0]
    for iv in intervals.values():  # call_positions is ascending
        k = bisect_right(call_positions, iv.start)
        iv.crosses_call = k < len(call_positions) and call_positions[k] < iv.end
    return intervals, call_positions


def allocate(fn: IRFunc, model: MachineModel) -> Allocation:
    """Assign machine registers (or spill slots) to every vreg."""
    n_caller = (model.num_regs + 1) // 2
    n_callee = model.num_regs - n_caller
    caller_regs = [f"t{i}" for i in range(n_caller)]
    callee_regs = [f"s{i}" for i in range(n_callee)]

    intervals, _ = build_intervals(fn)
    alloc = Allocation(intervals, caller_regs, callee_regs)
    order = sorted(intervals.values(), key=lambda iv: (iv.start, iv.end))
    active: list[Interval] = []
    free_caller = list(caller_regs)
    free_callee = list(callee_regs)

    def expire(pos: int) -> None:
        nonlocal active
        still = []
        for iv in active:
            if iv.end < pos:
                if iv.reg is not None:
                    (free_callee if iv.reg in callee_regs else free_caller).append(iv.reg)
            else:
                still.append(iv)
        active = still

    for iv in order:
        expire(iv.start)
        # Across a call, a caller-saved register would be clobbered.
        pools = ([free_callee] if iv.crosses_call
                 else [free_caller, free_callee])
        reg: str | None = None
        # Allocation hint (keep/mov ties).
        if iv.hint is not None:
            hinted = intervals.get(iv.hint)
            if hinted is not None and hinted.reg is not None:
                hreg = hinted.reg
                for pool in pools:
                    if hreg in pool:
                        pool.remove(hreg)
                        reg = hreg
                        break
        if reg is None:
            for pool in pools:
                if pool:
                    reg = pool.pop()
                    break
        if reg is None:
            # Spill: evict the compatible active interval ending last,
            # or spill this interval itself.
            candidates = [a for a in active
                          if a.reg is not None
                          and (a.reg in callee_regs) == iv.crosses_call]
            victim = max(candidates, key=lambda a: a.end, default=None)
            if victim is not None and victim.end > iv.end:
                reg = victim.reg
                victim.reg = None
                victim.spill_slot = f"spill.{victim.vreg.id}"
                alloc.spill_slots.append(victim.spill_slot)
            else:
                iv.spill_slot = f"spill.{iv.vreg.id}"
                alloc.spill_slots.append(iv.spill_slot)
                active.append(iv)
                continue
        iv.reg = reg
        if reg in callee_regs and reg not in alloc.used_callee:
            alloc.used_callee.append(reg)
        active.append(iv)
    return alloc
