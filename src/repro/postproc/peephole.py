"""The peephole postprocessor (paper, "A Postprocessor").

Looks for three patterns inside each basic block and rewrites them,
subject to KEEP_LIVE-aware safety constraints:

1.  ``add x,y,z ... ld [z]``    ==>  ``... ld [x+y]``
2.  ``mov x,z   ... z ...``     ==>  ``... x ...``
3.  ``add x,y,z; mov z,w``      ==>  ``add x,y,w``

Constraints (from the paper):
* "the register z should have no other uses" — checked via liveness and
  use scanning;
* a transformation "could not apply if z were originally mentioned as
  the second argument of a KEEP_LIVE" — the ``keepsafe`` markers
  codegen leaves behind carry exactly that information;
* the inputs (x, y) must not be redefined between definition and use.

The paper's correctness arguments carry over: the same values remain
live at all program points, so KEEP_LIVE semantics cannot be
invalidated.  We do not reassign registers or reschedule the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.asm import ALU_OPS, ARG_REGS, FP, MFunc, MInst, MProgram, RV, SCRATCH, SP
from ..machine.cfg import basic_blocks
from .liveness import Liveness, _writes

_SPECIAL_REGS = frozenset((SP, FP, RV) + ARG_REGS + SCRATCH)


@dataclass
class PeepholeStats:
    loads_folded: int = 0
    moves_eliminated: int = 0
    adds_retargeted: int = 0

    @property
    def total(self) -> int:
        return self.loads_folded + self.moves_eliminated + self.adds_retargeted


def _keepsafe_bases(fn: MFunc) -> set[str]:
    """Registers mentioned as the *base* (second) argument of a
    KEEP_LIVE — those must never lose their identity."""
    return {inst.rs2 for inst in fn.insts if inst.op == "keepsafe" and inst.rs2}


def postprocess_function(fn: MFunc, max_rounds: int = 4) -> PeepholeStats:
    stats = PeepholeStats()
    for _ in range(max_rounds):
        changed = (_pattern_fold_load(fn, stats)
                   | _pattern_eliminate_move(fn, stats)
                   | _pattern_retarget_add(fn, stats))
        if not changed:
            break
    return stats


def postprocess(prog: MProgram) -> PeepholeStats:
    """Run the postprocessor over every function; aggregate statistics."""
    total = PeepholeStats()
    for fn in prog.functions.values():
        s = postprocess_function(fn)
        total.loads_folded += s.loads_folded
        total.moves_eliminated += s.moves_eliminated
        total.adds_retargeted += s.adds_retargeted
    return total


# -- pattern 1: add + load/store fusion --------------------------------------


def _pattern_fold_load(fn: MFunc, stats: PeepholeStats) -> bool:
    live = Liveness(fn)
    changed = False
    for block in basic_blocks(fn.insts):
        for pos, idx in enumerate(block):
            inst = fn.insts[idx]
            if not _is_plain_addr_use(inst):
                continue
            z = inst.rs1
            if z is None:
                continue
            # The KEEP_LIVE base constraint is span-local (checked in
            # _span_clear): a marker naming z as base *between* the add
            # and this use blocks the fold; the same register holding an
            # unrelated value elsewhere does not.
            add_idx = _find_defining_add(fn, block, pos, z)
            if add_idx is None:
                continue
            add = fn.insts[add_idx]
            x, y, imm = add.rs1, add.rs2, add.imm
            if add.op == "sub":
                if imm is None:
                    continue  # register subtract cannot fold
                imm = -imm
            # The sum must be consumed here: either the load overwrites
            # z itself, or z is dead afterwards.  It must also not be
            # read between add and use except by keepsafe markers.
            consumed = (inst.op == "ld" and inst.rd == z) or live.dead_after(idx, z)
            if not consumed:
                continue
            if not _span_clear(fn, add_idx, idx, z, x, y):
                continue
            if y is not None:
                new = MInst(inst.op, rd=inst.rd, rs1=x, rs2=y,
                            width=inst.width, signed=inst.signed)
            else:
                new = MInst(inst.op, rd=inst.rd, rs1=x, imm=imm,
                            width=inst.width, signed=inst.signed)
            fn.insts[idx] = new
            fn.insts[add_idx] = MInst("nop")
            _retarget_markers(fn, add_idx, idx, z, x)
            stats.loads_folded += 1
            changed = True
            live = Liveness(fn)
    _drop_nops(fn)
    return changed


def _is_plain_addr_use(inst: MInst) -> bool:
    """A load or store addressed as [z+0] — a fusable address use."""
    if inst.op not in ("ld", "st"):
        return False
    return inst.rs2 is None and (inst.imm or 0) == 0


def _find_defining_add(fn: MFunc, block: list[int], pos: int, z: str) -> int | None:
    """Walk backward for ``add/sub ?, ?, z`` with no intervening write to z."""
    for back in range(pos - 1, -1, -1):
        idx = block[back]
        inst = fn.insts[idx]
        if inst.register_written() == z or (inst.op in ("call", "callr")
                                            and z in _writes(inst)):
            if inst.op in ("add", "sub") and inst.rd == z:
                # Operands may include z itself (in-place add): removing
                # the add leaves the *old* value in z, which is exactly
                # what the fused addressing mode then reads.
                return idx
            return None
    return None


def _span_clear(fn: MFunc, start: int, end: int, z: str, x: str | None,
                y: str | None) -> bool:
    """No reads of z and no writes to x/y/z strictly between start and end."""
    for k in range(start + 1, end):
        inst = fn.insts[k]
        if inst.op == "keepsafe":
            if inst.rs2 == z:
                return False  # z is a KEEP_LIVE base
            continue
        if z in inst.registers_read():
            return False
        written = _writes(inst)
        for reg in (x, y, z):
            if reg is not None and reg in written:
                return False
    return True


def _retarget_markers(fn: MFunc, start: int, end: int, old: str, new: str | None) -> None:
    for k in range(start, end):
        inst = fn.insts[k]
        if inst.op == "keepsafe" and inst.rs1 == old and new is not None:
            inst.rs1 = new


# -- pattern 2: move elimination ---------------------------------------------


def _pattern_eliminate_move(fn: MFunc, stats: PeepholeStats) -> bool:
    live = Liveness(fn)
    protected = _keepsafe_bases(fn)
    changed = False
    for block in basic_blocks(fn.insts):
        for pos, idx in enumerate(block):
            inst = fn.insts[idx]
            if inst.op != "mov" or inst.rd is None or inst.rs1 is None:
                continue
            x, z = inst.rs1, inst.rd
            if x == z:
                fn.insts[idx] = MInst("nop")
                changed = True
                continue
            if z in protected:
                continue
            if z in _SPECIAL_REGS:
                continue  # sp/fp/args/rv have implicit readers
            # Scan forward, planning to rewrite reads of z into x.  The
            # mov can go iff z's value is never needed once x stops
            # holding it (x redefined, z redefined, z dead, or block end
            # with z dead).
            ok = False
            rewrites: list[int] = []
            for later in block[pos + 1:]:
                linst = fn.insts[later]
                if z in linst.registers_read():
                    if linst.op in ("call", "callr", "ret"):
                        # Implicit read (argument register / rv): cannot
                        # be rewritten textually.
                        rewrites = None
                        break
                    rewrites.append(later)
                written = _writes(linst)
                if z in written:
                    ok = True  # copy fully consumed; z renewed
                    break
                if x in written:
                    # x no longer holds the value; z must die with it.
                    # (Reads of z at this same inst were rewritten above,
                    # and reads precede writes within one instruction.)
                    ok = live.dead_after(later, z)
                    break
                if live.dead_after(later, z):
                    ok = True
                    break
            else:
                last = block[-1]
                ok = live.dead_after(last, z)
            if not ok:
                continue
            for later in rewrites:
                _replace_reads(fn.insts[later], z, x)
            fn.insts[idx] = MInst("nop")
            stats.moves_eliminated += 1
            changed = True
            live = Liveness(fn)
    _drop_nops(fn)
    return changed


def _replace_reads(inst: MInst, old: str, new: str) -> None:
    if inst.op == "st" and inst.rd == old:
        inst.rd = new
    if inst.rs1 == old:
        inst.rs1 = new
    if inst.rs2 == old:
        inst.rs2 = new


# -- pattern 3: add/mov combining ----------------------------------------------


def _pattern_retarget_add(fn: MFunc, stats: PeepholeStats) -> bool:
    live = Liveness(fn)
    changed = False
    for block in basic_blocks(fn.insts):
        for pos, idx in enumerate(block):
            inst = fn.insts[idx]
            if inst.op != "mov" or inst.rs1 is None or inst.rd is None:
                continue
            z, w = inst.rs1, inst.rd
            if z == w:
                continue
            add_idx = _find_defining_add(fn, block, pos, z)
            if add_idx is None:
                continue
            add = fn.insts[add_idx]
            if add.rd == w or add.rs1 == w or (add.rs2 == w):
                continue
            if not live.dead_after(idx, z):
                continue
            if not _span_clear(fn, add_idx, idx, z, add.rs1, add.rs2):
                continue
            # w must not be read or written between the add and the mov.
            clear = True
            for k in range(add_idx + 1, idx):
                mid = fn.insts[k]
                if w in mid.registers_read() or w in _writes(mid):
                    clear = False
                    break
            if not clear:
                continue
            fn.insts[add_idx] = MInst(add.op, rd=w, rs1=add.rs1, rs2=add.rs2,
                                      imm=add.imm)
            fn.insts[idx] = MInst("nop")
            _retarget_markers(fn, add_idx, idx + 1, z, w)
            stats.adds_retargeted += 1
            changed = True
            live = Liveness(fn)
    _drop_nops(fn)
    return changed


def _drop_nops(fn: MFunc) -> None:
    fn.insts = [i for i in fn.insts if i.op != "nop"]
