"""Escape-analysis allocation sinking: rewrite heap allocations whose
references never escape into frame-local storage.

The paper's collector pays for every object twice — once at allocation
(``GC_malloc`` zeroes and threads free lists) and again at every
collection (mark + sweep traverse it, and allocation volume is what
*triggers* collections).  An allocation whose reference provably never
leaves the allocating frame needs none of that: the object can live in
the frame itself, and the collector never sees it.

This is a *postprocessor* pass in the same sense as ``peephole``: it
runs on generated machine code (:class:`~repro.machine.asm.MFunc`), as
the compile stage ``CompileConfig.sink`` names, and is opt-in — unlike
the peephole pass it deliberately changes observable counts (no
allocator call, fewer cycles, fewer collections), so it is never
applied inside the default bench matrix, only behind explicit ``sink``
flags.

A candidate is ``call GC_malloc/malloc/GC_malloc_atomic`` with a
constant size whose result is captured by a single ``mov z, rv``.  The
pass then runs a forward escape analysis over the function's CFG,
tracking the closure of registers that may hold a pointer into the
object (``mov``, ``add p, P, x`` and ``sub p, P, imm`` derive; loads
and stores *through* such pointers are fine).  The candidate is
rejected — conservatively, GC-safety first — if any of these is seen:

* the pointer is stored to memory as a *value* (``st P, [..]``), passed
  to any call, returned, or moved into a special register;
* any arithmetic on it other than offset derivation (comparisons would
  observe the address; both-operands-derived arithmetic could smuggle
  it out);
* a conditional branch tests it;
* a ``keepsafe`` marker mentions it: KEEP_LIVE/BASE annotations assert
  the register *must* remain a recognizable heap reference for the
  collector, so safety-checked builds are left untouched semantically;
* any member of the closure is live across a call — a potential
  collection point (the callee may allocate and collect);
* the object is large (> :data:`MAX_SINK_BYTES`) or the frame would
  outgrow :data:`MAX_FRAME_BYTES`.

Why the rewrite is GC-safe: the sunk object lives in the frame, and the
collector conservatively scans the whole live stack ``[sp, STACK_TOP]``
as a root range — heap pointers *stored into* the sunk object are
therefore still found, exactly as they were when the object was heap
allocated.  The stack slot is re-zeroed at the capture point on every
execution, matching ``heap.allocate``'s zeroing of the rounded size, so
loop iterations see the same fresh-object contents the heap version
provided.  An allocation inside a loop is only sunk if its pointer dies
before the next iteration's allocation call — that is forced by the
live-across-call rule — so slot reuse can never alias two objects that
were simultaneously live.

An allocation whose result is *never* captured (``rv`` dead after the
call) is simply deleted — same analysis, degenerate rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.asm import (
    ALU_OPS, ARG_REGS, FP, MFunc, MInst, MProgram, RV, SCRATCH, SP, UNARY_OPS,
)
from ..gc.heap import round_size
from .liveness import CALL_CLOBBERS, Liveness

# Allocation builtins eligible for sinking (single size argument,
# result in rv).  calloc computes its size from two arguments and
# realloc has copy semantics; neither is worth the pattern-match.
ALLOC_FUNCS = frozenset(("GC_malloc", "malloc", "GC_malloc_atomic"))

_SPECIAL_REGS = frozenset((SP, FP, RV) + ARG_REGS + SCRATCH)

# Objects larger than this stay on the heap: big scratch buffers would
# bloat every frame on the call path, and the collector amortizes them
# fine.  Frames are capped so ld/st offsets stay small and deep
# recursion cannot quietly multiply stack usage.
MAX_SINK_BYTES = 128
MAX_FRAME_BYTES = 2048

_ZERO_REG = SCRATCH[2]  # x2: dead between instructions by convention


@dataclass
class SinkStats:
    """What the pass did (and why it declined)."""

    sunk: int = 0            # allocations rewritten to frame storage
    eliminated: int = 0      # dead allocations deleted outright
    bytes_sunk: int = 0      # rounded object bytes moved to frames
    candidates: int = 0      # constant-size allocation sites examined
    blocked: dict = field(default_factory=dict)  # reason -> count

    @property
    def total(self) -> int:
        return self.sunk + self.eliminated

    def block(self, reason: str) -> None:
        self.blocked[reason] = self.blocked.get(reason, 0) + 1

    def merge(self, other: "SinkStats") -> None:
        self.sunk += other.sunk
        self.eliminated += other.eliminated
        self.bytes_sunk += other.bytes_sunk
        self.candidates += other.candidates
        for reason, n in other.blocked.items():
            self.blocked[reason] = self.blocked.get(reason, 0) + n


class _Escapes(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


# -- candidate discovery -----------------------------------------------------


@dataclass
class _Candidate:
    call_idx: int
    setup_idx: int | None   # the instruction defining a0 (removed too)
    cap_idx: int | None     # the `mov z, rv` capture; None = dead result
    reg: str | None         # z
    size: int


def _const_size(fn: MFunc, call_idx: int) -> tuple[int | None, int | None]:
    """Resolve the allocation size: find the in-block def of ``a0``
    before the call (``li a0, imm`` or ``mov a0, r`` with r's def a
    unique ``li r, imm``).  Returns (setup_idx, size) or (None, None)."""
    insts = fn.insts
    for j in range(call_idx - 1, -1, -1):
        inst = insts[j]
        if inst.op in ("label", "jmp", "bz", "bnz", "call", "callr"):
            return None, None
        if inst.register_written() != ARG_REGS[0]:
            continue
        if inst.op == "li":
            return j, inst.imm
        if inst.op == "mov" and inst.rs1 is not None:
            return j, _resolve_li(fn, j, inst.rs1)
        return None, None
    return None, None


def _resolve_li(fn: MFunc, use_idx: int, reg: str) -> int | None:
    """The constant ``reg`` holds at ``use_idx``: a same-block ``li``
    with no intervening call, or the register's unique def anywhere in
    the function being an ``li`` (LICM hoists loop-invariant constants
    out of the allocating block).  Epilogue callee-save restores are
    not counted as defs: only epilogue code sits between a restore and
    its ``ret``, so the restored value never reaches another use."""
    insts = fn.insts
    for j in range(use_idx - 1, -1, -1):
        inst = insts[j]
        if inst.op in ("label", "jmp", "bz", "bnz", "call", "callr"):
            break
        if inst.register_written() == reg:
            return inst.imm if inst.op == "li" else None
    defs = [j for j, inst in enumerate(insts)
            if inst.register_written() == reg
            and not _is_callee_restore(fn, j)]
    if len(defs) == 1 and insts[defs[0]].op == "li":
        return insts[defs[0]].imm
    return None


def _is_callee_restore(fn: MFunc, j: int) -> bool:
    """An epilogue ``ld reg, [fp+off]`` undoing a prologue save of the
    same register to the same slot."""
    inst = fn.insts[j]
    if inst.op != "ld" or inst.rs1 != FP or inst.rs2 is not None:
        return False
    return any(p.op == "st" and p.rd == inst.rd and p.rs1 == FP
               and p.rs2 is None and p.imm == inst.imm
               for p in fn.insts[:16])


def _find_candidates(fn: MFunc, live: Liveness) -> list[_Candidate]:
    out: list[_Candidate] = []
    insts = fn.insts
    for i, inst in enumerate(insts):
        if inst.op != "call" or inst.symbol not in ALLOC_FUNCS or inst.nargs != 1:
            continue
        setup_idx, size = _const_size(fn, i)
        if size is None or setup_idx is None:
            continue
        if live.dead_after(i, RV):
            out.append(_Candidate(i, setup_idx, None, None, size))
            continue
        # The capture must be the next rv access, before control flow.
        for j in range(i + 1, len(insts)):
            nxt = insts[j]
            if nxt.op in ("label", "jmp", "bz", "bnz", "call", "callr", "ret"):
                break
            reads_rv = RV in nxt.registers_read()
            if nxt.op == "mov" and nxt.rs1 == RV and nxt.rd is not None:
                if nxt.rd not in _SPECIAL_REGS and live.dead_after(j, RV):
                    out.append(_Candidate(i, setup_idx, j, nxt.rd, size))
                break
            if reads_rv or nxt.register_written() == RV:
                break
        # (no capture found: rv used some other way — not a candidate)
    return out


# -- escape analysis ---------------------------------------------------------


def _transfer(inst: MInst, pointers: set[str], live: Liveness,
              idx: int) -> None:
    """Advance the may-hold-the-pointer register set across one
    instruction; raise :class:`_Escapes` on any disqualifying use."""
    op = inst.op
    if op == "keepsafe":
        if inst.rs1 in pointers or inst.rs2 in pointers:
            raise _Escapes("keepsafe")
        return
    if op in ("bz", "bnz"):
        if inst.rs1 in pointers:
            raise _Escapes("branch-on-pointer")
        return
    if op in ("jmp", "label", "nop"):
        return
    if op in ("call", "callr"):
        if op == "callr" and inst.rs1 in pointers:
            raise _Escapes("indirect-call-target")
        if any(a in pointers for a in ARG_REGS[: inst.nargs]):
            raise _Escapes("passed-to-call")
        if pointers & live.live_after[idx]:
            raise _Escapes("live-across-call")
        pointers -= set(CALL_CLOBBERS)
        return
    if op == "ret":
        # rv can never be in the set (special registers are barred), so
        # returning cannot leak the pointer.
        return
    if op == "st":
        if inst.rd in pointers:
            raise _Escapes("stored-as-value")
        return  # address uses (rs1/rs2) are reads *through* the pointer
    if op == "ld":
        pointers.discard(inst.rd)
        return
    if op == "mov":
        if inst.rs1 in pointers:
            if inst.rd in _SPECIAL_REGS:
                raise _Escapes("moved-to-special")
            pointers.add(inst.rd)
        else:
            pointers.discard(inst.rd)
        return
    if op in ALU_OPS:
        in1 = inst.rs1 in pointers
        in2 = inst.rs2 is not None and inst.rs2 in pointers
        if not in1 and not in2:
            pointers.discard(inst.rd)
            return
        derived = (op == "add" and not (in1 and in2)) or \
                  (op == "sub" and in1 and not in2)
        if not derived:
            raise _Escapes("pointer-arithmetic")
        if inst.rd in _SPECIAL_REGS:
            raise _Escapes("moved-to-special")
        pointers.add(inst.rd)
        return
    if op in UNARY_OPS:
        if inst.rs1 in pointers:
            raise _Escapes("pointer-arithmetic")
        pointers.discard(inst.rd)
        return
    # li, la, or anything else that writes a fresh value.
    w = inst.register_written()
    if w is not None:
        pointers.discard(w)


def _escape_reason(fn: MFunc, live: Liveness, cand: _Candidate) -> str | None:
    """Run the forward escape analysis from the capture point; return a
    block reason, or None when the object provably never escapes."""
    if cand.cap_idx is None:
        return None  # dead result: nothing to track
    insts = fn.insts
    blocks, succs = live.blocks, live.succs
    b0 = next(b for b, idxs in enumerate(blocks) if cand.cap_idx <= idxs[-1])

    in_state: list[set[str]] = [set() for _ in blocks]

    def run(idxs: list[int], state: set[str], frm: int = 0) -> set[str]:
        for i in idxs[frm:]:
            _transfer(insts[i], state, live, i)
        return state

    try:
        seed = run(blocks[b0], {cand.reg}, frm=cand.cap_idx - blocks[b0][0] + 1)
        work = [(s, seed) for s in succs[b0]]
        while work:
            b, state = work.pop()
            if state <= in_state[b]:
                continue
            in_state[b] |= state
            out = run(blocks[b], set(in_state[b]))
            for s in succs[b]:
                work.append((s, out))
    except _Escapes as e:
        return e.reason
    return None


# -- rewriting ---------------------------------------------------------------


def _prologue_sub(fn: MFunc) -> int | None:
    """Index of the prologue's ``sub sp, sp, frame_size``."""
    for i, inst in enumerate(fn.insts[:6]):
        if (inst.op == "sub" and inst.rd == SP and inst.rs1 == SP
                and inst.rs2 is None and inst.imm == fn.frame_size):
            return i
    return None


def _sink_one(fn: MFunc, live: Liveness, cand: _Candidate,
              stats: SinkStats) -> bool:
    insts = fn.insts
    if cand.cap_idx is None:
        # Dead allocation: delete the call and its size setup.
        insts[cand.call_idx] = MInst("nop")
        insts[cand.setup_idx] = MInst("nop")
        stats.eliminated += 1
        _drop_nops(fn)
        return True
    rounded = round_size(cand.size)
    sub_idx = _prologue_sub(fn)
    if sub_idx is None:
        stats.block("no-prologue")
        return False
    new_frame = fn.frame_size + rounded
    if new_frame > MAX_FRAME_BYTES:
        stats.block("frame-too-large")
        return False
    if _ZERO_REG in live.live_after[cand.cap_idx]:
        stats.block("scratch-live")
        return False
    insts[sub_idx] = MInst("sub", rd=SP, rs1=SP, imm=new_frame)
    fn.frame_size = new_frame
    base = -new_frame
    seq = [MInst("li", rd=_ZERO_REG, imm=0)]
    seq.extend(MInst("st", rd=_ZERO_REG, rs1=FP, imm=base + off)
               for off in range(0, rounded, 4))
    seq.append(MInst("add", rd=cand.reg, rs1=FP, imm=base))
    insts[cand.cap_idx: cand.cap_idx + 1] = seq
    insts[cand.call_idx] = MInst("nop")
    insts[cand.setup_idx] = MInst("nop")
    stats.sunk += 1
    stats.bytes_sunk += rounded
    _drop_nops(fn)
    return True


def _drop_nops(fn: MFunc) -> None:
    fn.insts = [i for i in fn.insts if i.op != "nop"]


# -- entry points ------------------------------------------------------------


def sink_function(fn: MFunc, max_rounds: int = 16) -> SinkStats:
    """Sink every provably non-escaping constant-size allocation in one
    function.  Each successful rewrite invalidates indices and
    liveness, so the scan restarts until a fixpoint (bounded)."""
    stats = SinkStats()
    rejected: set[tuple] = set()  # (call position fingerprint) -> skip
    for _ in range(max_rounds):
        live = Liveness(fn)
        progress = False
        for cand in _find_candidates(fn, live):
            fp = (cand.call_idx, cand.size, cand.reg)
            if fp in rejected:
                continue
            stats.candidates += 1
            if cand.size is None or cand.size <= 0 or cand.size > MAX_SINK_BYTES:
                stats.block("size")
                rejected.add(fp)
                continue
            reason = _escape_reason(fn, live, cand)
            if reason is not None:
                stats.block(reason)
                rejected.add(fp)
                continue
            if _sink_one(fn, live, cand, stats):
                progress = True
                rejected = set()  # indices shifted; fingerprints stale
                break
            rejected.add(fp)
        if not progress:
            break
    return stats


def sink_program(prog: MProgram) -> SinkStats:
    """Run allocation sinking over every function; aggregate stats."""
    total = SinkStats()
    for fn in prog.functions.values():
        total.merge(sink_function(fn))
    return total
