"""A function's control flow, stated once for IR and machine code.

IR :class:`~repro.machine.ir.Inst` lists and machine
:class:`~repro.machine.asm.MInst` lists share their control-flow
vocabulary: ``label`` opens a block, ``jmp``/``bz``/``bnz``/``ret`` end
one, and a branch names its target by ``symbol``.  So basic blocks,
block successors, natural-loop regions and the backward liveness
fixpoint live here, and each caller brings only its own per-block reads
and writes (virtual registers in register allocation, machine registers
in :mod:`repro.postproc.liveness`).
"""

from __future__ import annotations

BRANCHES = ("jmp", "bz", "bnz")


def basic_blocks(insts: list) -> list[list[int]]:
    """Partition instruction indices into basic blocks: a block starts
    at the first instruction, at every label and after every branch or
    ``ret``."""
    leaders = {0}
    for n, inst in enumerate(insts):
        if inst.op == "label":
            leaders.add(n)
        elif inst.op in BRANCHES or inst.op == "ret":
            leaders.add(n + 1)
    ordered = sorted(x for x in leaders if x < len(insts))
    ordered.append(len(insts))
    return [list(range(start, end)) for start, end in zip(ordered, ordered[1:])]


def successors(insts: list, blocks: list[list[int]]) -> list[list[int]]:
    """Each block's successors: the block a branch names (when that
    label exists), then the next block unless the block ends in ``jmp``
    or ``ret``."""
    label_block = {insts[idxs[0]].symbol: b for b, idxs in enumerate(blocks)
                   if insts[idxs[0]].op == "label"}
    succs: list[list[int]] = []
    for b, idxs in enumerate(blocks):
        last = insts[idxs[-1]]
        out = []
        if last.op in BRANCHES and last.symbol in label_block:
            out.append(label_block[last.symbol])
        if last.op not in ("jmp", "ret") and b + 1 < len(blocks):
            out.append(b + 1)
        succs.append(out)
    return succs


def loop_regions(insts: list) -> list[tuple[int, int]]:
    """Natural loops as ``(label index, furthest backward branch to
    it)``, ordered by label index."""
    label_at = {inst.symbol: n for n, inst in enumerate(insts)
                if inst.op == "label"}
    regions: dict[int, int] = {}
    for j, inst in enumerate(insts):
        if inst.op in BRANCHES and label_at.get(inst.symbol, j) < j:
            regions[label_at[inst.symbol]] = j
    return sorted(regions.items())


def live_sets(succs: list[list[int]], use: list[set],
              defs: list[set]) -> tuple[list[set], list[set]]:
    """Backward liveness over blocks: ``(live_in, live_out)`` per block,
    the least solution of ``in = use | (out - defs)`` with ``out`` the
    union of the successors' ``in``."""
    live_in: list[set] = [set() for _ in succs]
    live_out: list[set] = [set() for _ in succs]
    changed = True
    while changed:
        changed = False
        for b in range(len(succs) - 1, -1, -1):
            out: set = set()
            for s in succs[b]:
                out |= live_in[s]
            live_out[b] = out
            inn = use[b] | (out - defs[b])
            if inn != live_in[b]:
                live_in[b] = inn
                changed = True
    return live_in, live_out
