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
    the blocks and successors they were solved over."""

    def __init__(self, fn: MFunc):
        self.fn = fn
        insts = fn.insts
        self.blocks = basic_blocks(insts)
        self.succs = successors(insts, self.blocks)
        reads = [set(inst.registers_read()) for inst in insts]
        writes = [set(_writes(inst)) for inst in insts]
        use: list[set[str]] = []
        defs: list[set[str]] = []
        for idxs in self.blocks:
            u: set[str] = set()
            d: set[str] = set()
            for i in idxs:
                u |= reads[i] - d
                d |= writes[i]
            use.append(u)
            defs.append(d)
        _, live_out = live_sets(self.succs, use, defs)
        self.live_after: list[set[str]] = [set() for _ in insts]
        for idxs, live in zip(self.blocks, live_out):
            for i in reversed(idxs):
                self.live_after[i] = live
                live = (live - writes[i]) | reads[i]

    def dead_after(self, idx: int, reg: str) -> bool:
        return reg not in self.live_after[idx]
