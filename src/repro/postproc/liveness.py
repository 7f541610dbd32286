"""Register-level liveness for machine code.

"A simple global, intraprocedural analysis that allows us to identify
possible uses of register values" — the prerequisite for the paper's
peephole postprocessor.  Standard backward dataflow over basic blocks of
:class:`repro.machine.asm.MInst`.
"""

from __future__ import annotations

from ..machine.asm import ARG_REGS, MFunc, MInst, RV, SCRATCH

# Registers clobbered by a call: all caller-saved temporaries, argument
# registers, scratch, and the return value.
CALL_CLOBBERS = tuple(f"t{i}" for i in range(16)) + ARG_REGS + SCRATCH + (RV,)


def basic_blocks(insts: list[MInst]) -> list[list[int]]:
    leaders = {0}
    label_at = {inst.symbol: i for i, inst in enumerate(insts) if inst.op == "label"}
    for i, inst in enumerate(insts):
        if inst.op in ("jmp", "bz", "bnz", "ret"):
            leaders.add(i + 1)
        if inst.op in ("jmp", "bz", "bnz") and inst.symbol in label_at:
            leaders.add(label_at[inst.symbol])
        if inst.op == "label":
            leaders.add(i)
    ordered = sorted(x for x in leaders if x < len(insts))
    return [list(range(start, (ordered[k + 1] if k + 1 < len(ordered) else len(insts))))
            for k, start in enumerate(ordered)]


def _reads(inst: MInst) -> list[str]:
    return inst.registers_read()


def _writes(inst: MInst) -> list[str]:
    out = []
    w = inst.register_written()
    if w is not None:
        out.append(w)
    if inst.op in ("call", "callr"):
        out.extend(CALL_CLOBBERS)
    return out


class Liveness:
    """Per-instruction live-after register sets for one function."""

    def __init__(self, fn: MFunc):
        self.fn = fn
        self.blocks = basic_blocks(fn.insts)
        self.live_after: list[set[str]] = [set() for _ in fn.insts]
        self._compute()

    def _compute(self) -> None:
        insts = self.fn.insts
        label_block: dict[str, int] = {}
        for b, idxs in enumerate(self.blocks):
            if idxs and insts[idxs[0]].op == "label":
                label_block[insts[idxs[0]].symbol] = b
        succs: list[list[int]] = []
        for b, idxs in enumerate(self.blocks):
            out: list[int] = []
            last = insts[idxs[-1]] if idxs else None
            if last is not None and last.op == "jmp":
                if last.symbol in label_block:
                    out.append(label_block[last.symbol])
            elif last is not None and last.op in ("bz", "bnz"):
                if last.symbol in label_block:
                    out.append(label_block[last.symbol])
                if b + 1 < len(self.blocks):
                    out.append(b + 1)
            elif last is not None and last.op == "ret":
                pass
            elif b + 1 < len(self.blocks):
                out.append(b + 1)
            succs.append(out)

        live_in: list[set[str]] = [set() for _ in self.blocks]
        changed = True
        while changed:
            changed = False
            for b in range(len(self.blocks) - 1, -1, -1):
                live: set[str] = set()
                for s in succs[b]:
                    live |= live_in[s]
                for i in reversed(self.blocks[b]):
                    self.live_after[i] = set(live)
                    live -= set(_writes(insts[i]))
                    live |= set(_reads(insts[i]))
                if live != live_in[b]:
                    live_in[b] = live
                    changed = True

    def dead_after(self, idx: int, reg: str) -> bool:
        return reg not in self.live_after[idx]
