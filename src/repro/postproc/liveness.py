"""Register-level liveness for machine code.

"A simple global, intraprocedural analysis that allows us to identify
possible uses of register values" — the prerequisite for the paper's
peephole postprocessor.  The machine-register reads and writes of
:class:`repro.machine.asm.MInst` over the control flow and the backward
fixpoint of :mod:`repro.machine.cfg`.
"""

from __future__ import annotations

from ..machine.asm import ARG_REGS, MFunc, MInst, RV, SCRATCH
from ..machine.cfg import basic_blocks, live_sets, successors

# Registers clobbered by a call: all caller-saved temporaries, argument
# registers, scratch, and the return value.
CALL_CLOBBERS = tuple(f"t{i}" for i in range(16)) + ARG_REGS + SCRATCH + (RV,)


def _writes(inst: MInst) -> list[str]:
    out = []
    w = inst.register_written()
    if w is not None:
        out.append(w)
    if inst.op in ("call", "callr"):
        out.extend(CALL_CLOBBERS)
    return out


class Liveness:
    """Per-instruction live-after register sets for one function, plus
    the blocks and successors they were solved over.  After a rewrite
    that keeps every index (what it removes becomes a ``nop``),
    :meth:`refresh` of the rewritten block brings the sets up to date."""

    def __init__(self, fn: MFunc):
        self.fn = fn
        self.blocks = basic_blocks(fn.insts)
        self.succs = successors(fn.insts, self.blocks)
        self.live_after: list[set[str]] = [set() for _ in fn.insts]
        self._solve()

    def _solve(self) -> None:
        insts = self.fn.insts
        self._reads = [set(inst.registers_read()) for inst in insts]
        self._writes = [set(_writes(inst)) for inst in insts]
        use: list[set[str]] = []
        defs: list[set[str]] = []
        for idxs in self.blocks:
            u: set[str] = set()
            d: set[str] = set()
            for i in idxs:
                u |= self._reads[i] - d
                d |= self._writes[i]
            use.append(u)
            defs.append(d)
        self.live_in, self.live_out = live_sets(self.succs, use, defs)
        for b in range(len(self.blocks)):
            self._walk(b)

    def _walk(self, b: int) -> set[str]:
        """Fill block ``b``'s live-after sets backward from its live-out
        set; return the set live on entry."""
        live = self.live_out[b]
        for i in reversed(self.blocks[b]):
            self.live_after[i] = live
            live = (live - self._writes[i]) | self._reads[i]
        return live

    def refresh(self, b: int) -> None:
        """Re-walk block ``b`` after a rewrite inside it.  A rewrite that
        changes what the block needs on entry (deleting a register's
        last read, say) re-solves the whole function."""
        insts = self.fn.insts
        for i in self.blocks[b]:
            self._reads[i] = set(insts[i].registers_read())
            self._writes[i] = set(_writes(insts[i]))
        if self._walk(b) != self.live_in[b]:
            self._solve()

    def dead_after(self, idx: int, reg: str) -> bool:
        return reg not in self.live_after[idx]
