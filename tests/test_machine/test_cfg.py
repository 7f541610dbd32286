"""The one control-flow module: blocks, successors and loop regions over
IR and machine instruction lists alike, and the block-level liveness
fixpoint that register allocation and machine-register liveness share,
checked against a per-instruction reference fixpoint."""

from pathlib import Path

import pytest

from repro.fuzz.gen import generate_program
from repro.machine.asm import MInst
from repro.machine.cfg import basic_blocks, live_sets, loop_regions, successors
from repro.machine.driver import CONFIGS, CompileConfig, compile_source
from repro.machine.ir import Inst, IRFunc
from repro.machine.opt import indvar
from repro.machine.regalloc import _liveness
from repro.postproc.liveness import CALL_CLOBBERS, Liveness

# Each shape is (op, branch target) pairs; ``mov`` stands for any
# instruction that does not transfer control.
UNDEFINED_TARGET = [("mov", ""), ("bz", "NOWHERE"), ("mov", ""),
                    ("jmp", "NOWHERE"), ("mov", ""), ("ret", "")]
RET_MID_FUNCTION = [("mov", ""), ("ret", ""), ("mov", ""), ("label", "L"),
                    ("ret", "")]
FALL_THROUGH_LABEL = [("mov", ""), ("label", "L"), ("mov", ""), ("ret", "")]
NESTED_LOOPS = [("mov", ""), ("label", "OUTER"), ("mov", ""),
                ("label", "INNER"), ("mov", ""), ("bnz", "INNER"),
                ("mov", ""), ("bnz", "OUTER"), ("ret", "")]
ENTERED_SIDEWAYS = [("bz", "INSIDE"), ("label", "TOP"), ("mov", ""),
                    ("label", "INSIDE"), ("mov", ""), ("bnz", "TOP"),
                    ("ret", "")]

# shape -> (blocks, successors, loop regions)
EXPECTED = {
    "undefined-target": (UNDEFINED_TARGET,
                         [[0, 1], [2, 3], [4, 5]], [[1], [], []], []),
    "ret-mid-function": (RET_MID_FUNCTION,
                         [[0, 1], [2], [3, 4]], [[], [2], []], []),
    "fall-through-label": (FALL_THROUGH_LABEL,
                           [[0], [1, 2, 3]], [[1], []], []),
    "nested-loops": (NESTED_LOOPS,
                     [[0], [1, 2], [3, 4, 5], [6, 7], [8]],
                     [[1], [2], [2, 3], [1, 4], []], [(1, 7), (3, 5)]),
    "entered-sideways": (ENTERED_SIDEWAYS,
                         [[0], [1, 2], [3, 4, 5], [6]],
                         [[2, 1], [2], [1, 3], []], [(1, 5)]),
}


@pytest.mark.parametrize("make", [Inst, MInst], ids=["ir", "machine"])
@pytest.mark.parametrize("shape", sorted(EXPECTED))
def test_blocks_successors_and_loops(shape, make):
    spec, blocks, succs, loops = EXPECTED[shape]
    insts = [make(op, symbol=target) for op, target in spec]
    assert basic_blocks(insts) == blocks
    assert successors(insts, blocks) == succs
    assert loop_regions(insts) == loops


def test_indvar_skips_a_loop_entered_sideways():
    nested = IRFunc("f", insts=[Inst(op, symbol=t) for op, t in NESTED_LOOPS])
    sideways = IRFunc("f", insts=[Inst(op, symbol=t)
                                  for op, t in ENTERED_SIDEWAYS])
    assert indvar._loop_regions(nested) == [(1, 7), (3, 5)]
    assert indvar._loop_regions(sideways) == []


def test_live_sets_carry_a_value_around_a_loop():
    # b0 defines x; b1, the loop, reads x and defines y; b2 exits.
    succs = [[1], [1, 2], []]
    use = [set(), {"x"}, set()]
    defs = [{"x"}, {"y"}, set()]
    live_in, live_out = live_sets(succs, use, defs)
    assert live_in == [set(), {"x"}, set()]
    assert live_out == [{"x"}, {"x"}, set()]
    assert live_sets([], [], []) == ([], [])


def test_an_empty_function_has_no_blocks():
    assert basic_blocks([]) == []
    assert successors([], []) == []


# -- differential: block-level solution vs a per-instruction fixpoint --------


def reference(insts, reads, writes):
    """Blocks, live-in/live-out per block and live-after per instruction
    by the per-instruction fixpoint: every sweep re-walks every
    instruction of every block, backward."""
    label_at = {inst.symbol: n for n, inst in enumerate(insts)
                if inst.op == "label"}
    leaders = {0}
    for n, inst in enumerate(insts):
        if inst.op in ("jmp", "bz", "bnz", "ret"):
            leaders.add(n + 1)
        if inst.op in ("jmp", "bz", "bnz") and inst.symbol in label_at:
            leaders.add(label_at[inst.symbol])
        if inst.op == "label":
            leaders.add(n)
    starts = sorted(x for x in leaders if x < len(insts))
    blocks = [list(range(s, e))
              for s, e in zip(starts, starts[1:] + [len(insts)])]
    label_block = {insts[idxs[0]].symbol: b for b, idxs in enumerate(blocks)
                   if insts[idxs[0]].op == "label"}
    succs = []
    for b, idxs in enumerate(blocks):
        last = insts[idxs[-1]]
        out = []
        if last.op in ("jmp", "bz", "bnz") and last.symbol in label_block:
            out.append(label_block[last.symbol])
        if last.op not in ("jmp", "ret") and b + 1 < len(blocks):
            out.append(b + 1)
        succs.append(out)
    live_in = [set() for _ in blocks]
    live_out = [set() for _ in blocks]
    live_after = [set() for _ in insts]
    changed = True
    while changed:
        changed = False
        for b in range(len(blocks) - 1, -1, -1):
            live = set().union(*(live_in[s] for s in succs[b]))
            live_out[b] = set(live)
            for i in reversed(blocks[b]):
                live_after[i] = set(live)
                live = (live - set(writes(insts[i]))) | set(reads(insts[i]))
            if live != live_in[b]:
                live_in[b] = live
                changed = True
    return blocks, live_in, live_out, live_after


def machine_writes(inst):
    written = inst.register_written()
    return (([written] if written is not None else [])
            + (list(CALL_CLOBBERS) if inst.op in ("call", "callr") else []))


CORPUS = sorted((Path(__file__).parent.parent / "test_fuzz" / "corpus")
                .glob("*.c"))
SOURCES = ([(path.stem, path) for path in CORPUS]
           + [(f"gen{seed}", seed) for seed in range(20)])


@pytest.mark.parametrize("name, origin", SOURCES, ids=[n for n, _ in SOURCES])
def test_liveness_matches_the_per_instruction_fixpoint(name, origin):
    source = (origin.read_text() if isinstance(origin, Path)
              else generate_program(origin))
    for config in CONFIGS:
        compiled = compile_source(source, CompileConfig.named(config))
        for fn in compiled.ir.functions.values():
            blocks, live_in, live_out, _ = reference(
                fn.insts, lambda inst: inst.args,
                lambda inst: [inst.dst] if inst.dst is not None else [])
            assert _liveness(fn) == (blocks, live_in, live_out), (
                config, fn.name)
        for fn in compiled.asm.functions.values():
            *_, live_after = reference(fn.insts, MInst.registers_read,
                                       machine_writes)
            assert Liveness(fn).live_after == live_after, (config, fn.name)
