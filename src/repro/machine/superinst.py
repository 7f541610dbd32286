"""Superinstructions: fuse hot straight-line MInst sequences into
single dispatched closures.

The threaded-code interpreter (``vm.py``) pays a fixed per-instruction
toll: one dict-free loop iteration (count, budget check, dispatch) plus
one closure call per MInst.  In hot inner blocks that toll dominates —
the arithmetic inside the closures is cheap compared to the dispatch
around them.  A *superinstruction* collapses a straight-line run of
fusable instructions into a single ``exec``-compiled closure: registers
are cached in Python locals across the run, every straight-line op is
its ``vm.statement`` rendered over those locals (the plain closures
render the same statements), loads and stores read and write the page
in place through ``struct`` codecs, and the loop dispatches once for
the whole run.

A run may contain conditional branches as *early exits*: the fused
closure evaluates the condition inline, and on a taken branch writes
back the registers cached so far, settles the instruction/cycle
counters for exactly the constituents that executed (branch taken-cost
included), and returns the branch target.  A trailing ``jmp`` or
``ret`` fuses the same way.  A call to one of the pointer checks of a
checked build (``vm.CHECK_EXPRS``) is a straight-line op like any
other: it allocates, collects and prints nothing, reads only its
argument registers and writes only ``rv``.  Every other call (compiled,
indirect or builtin) never fuses: a collection can run inside it, and
the collector must see the true register file — locals cached in a
fused closure would be invisible roots.

Counts stay bit-identical by construction:

* every fusable op has a static model cost, and branch taken/not-taken
  costs are settled on the path actually executed, so instruction and
  cycle totals equal the unfused sums exactly;
* the instruction budget is checked once per *segment* (the
  unconditional stretch up to and including the next possible exit or
  check): a segment's constituents execute unconditionally once it is
  entered, so the unfused loop raises within the segment iff the fused
  check trips; the counter is left at ``budget + 1`` either way and the
  same :class:`~repro.machine.vm.VMError` escapes.  A check ends its
  segment because its count is observable: the unfused loop runs every
  check before the budget fault, so a guard may not raise ahead of one
  the budget still covers.  A check that fails raises its
  ``GCCheckError`` after the same checks as the unfused loop;
* runs never span branch landing sites (the instruction after a
  *targeted* label — one some branch actually names), so control can
  never jump into the middle of a fused region; branches land past
  their label, so a run may end with a targeted label.
  Fall-through-only labels are crossed freely as zero-cost
  constituents, which is what lets a whole loop (header test, body,
  step block, backward jump) fuse into one closure whose backward
  branch iterates *inside* the closure with registers still cached in
  locals;
* fusion is disabled entirely when ``gc_interval`` is nonzero: the
  asynchronous-collection trigger must observe every instruction
  boundary, and batching counter updates would shift which instructions
  collections land on.

Selection is by entry count: every fusable run starts as its plain
closures behind a counting leader (:func:`install_leaders`), and the
run's :data:`FUSE_AFTER`-th entry compiles it, installs the fused
closure in the leader's slot and dispatches it at the same pc.  Cold
code never pays for a compile, and no profile is needed.  Fusion is
also off while a :class:`~repro.obs.vmprof.VMProfile` is attached: the
profile's per-instruction shims are a diagnostic mode, and a fused run
would report the same counts anyway.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from .asm import BRANCH_OPS, MInst, RV
from .vm import (STRAIGHT_OPS, VMError, _OP_HELPERS, _RET_PC, is_check,
                 op_cycles, operands, shape, statement)

# Runs shorter than this are not worth a fused closure: the single
# saved dispatch would not cover the writeback bookkeeping.
MIN_RUN = 2

# A run fuses on its FUSE_AFTER-th entry; 0 turns fusion off.  Most
# code is cold and a compile is dear (0.7-1 ms a run on a Xeon under
# CPython 3.11), so the count must keep cold runs plain.  Census of
# fuzz-oracle passes: seed 1's 288 VMs without forced collections hold
# 10,289 runs, 9,020 of them entered at least once; over seeds 1-3,
# 18-21 runs are entered 48 times and none 64 times.  So at 64 the
# fuzz oracle compiles nothing, while on cfrac@O 92 runs fuse and the
# execution loop dispatches 257k times instead of 1,570k (618k at 1024).
FUSE_AFTER = 64


# Straight-line ops (``vm.STRAIGHT_OPS``, the pointer checks and the
# zero-cost markers) fuse and never end a run, except an ``la`` of an
# undefined symbol, which keeps its raise-on-execute closure.  Other
# calls never fuse (a collection may run inside them).  ``_find_runs``
# decides the rest: a targeted label's successor is a branch landing
# site; conditional branches fuse as early exits and jmp/ret end a run,
# a branch only when its label resolves.
_NO_CODE_OPS = frozenset(("nop", "keepsafe"))
_EXIT_OPS = frozenset(("bz", "bnz", "jmp", "ret"))
_STRAIGHT_OPS = _NO_CODE_OPS | STRAIGHT_OPS

# The fused tier's in-page access: little-endian ``struct`` codecs, named
# entries of the fused environment.  ``unpack_from`` reads the page in
# place: a word load costs 91 ns against 232 ns for slicing the page and
# calling ``int.from_bytes`` (CPython 3.11 on a Xeon).
_CODECS = {
    "_u1": struct.Struct("<B").unpack_from,
    "_s1": struct.Struct("<b").unpack_from,
    "_u2": struct.Struct("<H").unpack_from,
    "_s2": struct.Struct("<h").unpack_from,
    "_u4": struct.Struct("<I").unpack_from,
    "_w1": struct.Struct("<B").pack_into,
    "_w2": struct.Struct("<H").pack_into,
    "_w4": struct.Struct("<I").pack_into,
}


def _struct_access(width: int, signed: bool, page: str, off: str,
                   value: str | None = None) -> str:
    """The fused tier's in-page access (see ``vm.statement``)."""
    if value is None:
        return f"_{'s' if signed else 'u'}{width}({page}, {off})[0]"
    return f"_w{width}({page}, {off}, {value})"


def _find_runs(vm, insts: list[MInst],
               labels: dict[str, int]) -> dict[int, int]:
    """Maximal fusable runs of one function, as ``{start: end}``:
    straight-line code (checks included) plus conditional-branch early
    exits, terminated by other calls, jmp, ret, or anything unfusable —
    and never containing a branch-entry point strictly inside.

    Only *targeted* labels (those some branch names) are entry points;
    a fall-through-only label is reachable solely from the instruction
    above it, so a run may safely cross it.  That is what lets a whole
    loop — header test, body, step block, backward jump — fuse into a
    single closure: the header's label is targeted (the backward jump
    names it), so the run starts right after it, and the backward jump
    then targets the run's own start and loops in place."""
    targeted = {inst.symbol for inst in insts if inst.op in BRANCH_OPS}
    runs: dict[int, int] = {}
    start = -1
    for i, inst in enumerate(insts):
        op = inst.op
        if (op in _STRAIGHT_OPS and (op != "la"
                                     or vm._immediate(inst) is not None)
                or is_check(inst)):
            if start < 0:
                start = i
            continue
        if op == "label":
            # Untargeted labels fuse as zero-cost constituents.  After a
            # targeted one (a landing site) the next instruction is an
            # entry point, so no run may cross it; but branches land
            # past the label, so a run may end with it.
            if inst.symbol in targeted:
                if start >= 0 and i + 1 - start >= MIN_RUN:
                    runs[start] = i
                start = -1
            continue
        if op == "ret" or (op in BRANCH_OPS and inst.symbol in labels):
            if start < 0:
                start = i
            elif op == "jmp" or op == "ret":
                # Control unconditionally leaves: close the run here
                # (anything up to the next label is unreachable).
                if i + 1 - start >= MIN_RUN:
                    runs[start] = i
                start = -1
            continue
        if start >= 0 and i - start >= MIN_RUN:
            runs[start] = i - 1
        start = -1
    if start >= 0 and len(insts) - start >= MIN_RUN:
        runs[start] = len(insts) - 1
    return runs


def install_leaders(vm, insts: list[MInst], labels: dict[str, int],
                    ops: list) -> None:
    """Put a counting leader in front of every fusable run of one
    function's closure list ``ops``.  The run executes as its plain
    closures until its :data:`FUSE_AFTER`-th entry, which compiles it,
    installs the fused closure at ``ops[start]`` and dispatches it
    there (the execution loop has already counted that instruction,
    as it does before every dispatch)."""
    runs = _find_runs(vm, insts, labels)
    if not runs:
        return
    plain = ops[:]
    entries = [0] * len(ops)

    def leader(pc):
        n = entries[pc] + 1
        if n < FUSE_AFTER:
            entries[pc] = n
            return plain[pc](pc)
        fused = ops[pc] = _compile_run(vm, insts, pc, runs[pc], labels)
        vm.fused_runs += 1
        return fused(pc)

    for start in runs:
        ops[start] = leader


def _compile_run(vm, insts: list[MInst], start: int, end: int,
                 labels: dict[str, int]) -> Callable[[int], int]:
    """exec-compile insts[start..end] into one closure."""
    model = vm.model
    env: dict[str, Any] = {
        "_R": vm.regs,
        "_ST": vm._st,
        "_PG": vm.memory._pages,
        "_ERR": VMError,
        "_LD": vm._load,
        "_STO": vm._store,
        "_GC": vm.gc,
        **_OP_HELPERS,
        **_CODECS,
    }

    # All register loads are hoisted to a preamble before the run body
    # (the register dict cannot change while the closure runs — only
    # its own exits write it — so loading early reads the same values).
    # This lets a backward branch targeting the run's own start loop
    # *inside* the closure with registers still cached in locals.
    #
    # A run with such a backward branch preloads every touched register
    # and writes the full set back at every exit (after iteration one,
    # anything may be dirty; identity writes of preloaded locals are
    # harmless).  A straight-line run is cheaper: execution reaching
    # constituent ``i`` has unconditionally executed every write before
    # ``i`` (non-exit constituents assign on all paths), so each exit
    # writes back exactly the prefix of registers written so far, and
    # write-only registers need no preload at all.
    has_self = any(
        insts[i].op in ("bz", "bnz", "jmp")
        and insts[i].symbol in labels
        and labels[insts[i].symbol] + 1 == start
        for i in range(start, end + 1))
    body: list[str] = []
    loads: list[str] = []
    known: dict[str, str] = {}

    def rd(reg: str) -> str:
        v = known.get(reg)
        if v is None:
            v = known[reg] = "_r_" + reg
            loads.append(f"    {v} = _R[{reg!r}]")
        return v

    def wr(reg: str) -> str:
        if has_self:
            return rd(reg)
        v = known.get(reg)
        if v is None:
            v = known[reg] = "_r_" + reg
        written.add(reg)
        return v

    written: set[str] = set()

    # Every register the run writes, known up front so any exit — even
    # one before the write in iteration one of an in-closure loop — can
    # write back the full set (identity writes are harmless: the local
    # was preloaded from the dict).
    full_written = sorted({RV if is_check(insts[i])
                           else insts[i].register_written()
                           for i in range(start, end + 1)} - {None})
    if has_self:
        for reg in full_written:
            rd(reg)

    budget = vm.max_instructions
    # Additional-instruction count already budget-checked.  The leader
    # itself is checked before every entry: by the execution loop, or
    # by a self-loop's backward branch.
    guarded = 0

    # Self-loop runs keep the instruction/cycle counters in locals for
    # the closure's lifetime and settle ``_ST`` only when leaving: the
    # only calls inside a run are checks, which do not read them, so
    # nothing else observes the shared counters while the closure
    # iterates.  (At a budget raise the counter is settled to
    # ``budget + 1``; the cycle counter's partial state is unobservable
    # — no RunResult is built on a VMError.)
    ic = "_ic" if has_self else "_ST[0]"
    if has_self:
        loads.append("    _ic = _ST[0]")
        loads.append("    _cy = _ST[1]")

    def emit_check(through: int) -> None:
        """Guard the unconditional segment ending at index ``through``:
        once entered, everything up to there executes, so one check
        against the segment's final count raises iff the per-
        instruction loop would have raised inside it (leaving the
        counter at budget + 1 either way)."""
        nonlocal guarded
        e = through - start
        if e <= guarded:
            return
        guarded = e
        body.append(f"    if {ic} + {e} > {budget}:")
        body.append(f"        _ST[0] = {budget + 1}")
        body.append("        raise _ERR('instruction budget exceeded "
                    "(runaway program?)')")

    def seg_end(frm: int) -> int:
        """The end of the segment from ``frm``: its next exit or check."""
        for j in range(frm, end + 1):
            if insts[j].op in _EXIT_OPS or is_check(insts[j]):
                return j
        return end

    def emit_exit(i: int, extra_cycles: int, target: int,
                  indent: str) -> None:
        """Settle counters, then leave the run (or, for a branch back
        to the run's own start, loop in place with locals intact)."""
        if target == start:
            # Self-loop: count and budget-check the next iteration's
            # leader (the external loop would have done both), keep
            # the register cache, and restart the body.
            body.append(f"{indent}_ic += {i - start + 1}")
            body.append(f"{indent}if _ic > {budget}:")
            body.append(f"{indent}    _ST[0] = {budget + 1}")
            body.append(f"{indent}    raise _ERR('instruction budget "
                        "exceeded (runaway program?)')")
            body.append(f"{indent}_cy += {cost + extra_cycles}")
            body.append(f"{indent}continue")
            return
        for reg in (full_written if has_self else sorted(written)):
            body.append(f"{indent}_R[{reg!r}] = {known[reg]}")
        if has_self:
            body.append(f"{indent}_ST[0] = _ic + {i - start}")
            body.append(f"{indent}_ST[1] = _cy + {cost + extra_cycles}")
        else:
            if i > start:
                body.append(f"{indent}_ST[0] += {i - start}")
            body.append(f"{indent}_ST[1] += {cost + extra_cycles}")
        body.append(f"{indent}return {target}")

    cost = 0  # static cost of the fall-through path so far
    for i in range(start, end + 1):
        inst = insts[i]
        op = inst.op
        # Guard the whole segment ahead (through its terminating exit);
        # an exit op itself only needs to be guarded through i.
        emit_check(i if op in _EXIT_OPS else seg_end(i))
        if op == "bz" or op == "bnz":
            cond = rd(inst.rs1)
            taken = model.cycles_for(op, taken=True)
            target = labels[inst.symbol] + 1
            rel = "==" if op == "bz" else "!="
            body.append(f"    if {cond} {rel} 0:")
            emit_exit(i, taken, target, " " * 8)
            cost += model.cycles_for(op)
            continue
        if op == "jmp":
            taken = model.cycles_for(op, taken=True)
            emit_exit(i, taken, labels[inst.symbol] + 1, " " * 4)
            cost += taken
            continue
        if op == "ret":
            emit_exit(i, model.cycles_for(op), _RET_PC, " " * 4)
            cost += model.cycles_for(op)
            continue
        cost += op_cycles(model, inst)
        if op in _NO_CODE_OPS or op == "label":
            # Zero cycles, no code; counts one instruction by position
            # (the unfused loop dispatches its op_skip closure once).
            continue
        s = shape(inst)
        dst, src1, src2 = operands(inst)
        a = rd(src1) if s[1] != "i" else ""
        b = rd(src2) if s[1] == "rr" else str(vm._immediate(inst))
        d = rd(dst) if op == "st" else wr(dst)
        body.extend("    " + line
                    for line in statement(s, a, b, d, str(i), _struct_access))

    if insts[end].op != "jmp" and insts[end].op != "ret":
        emit_exit(end, 0, end + 1, " " * 4)
    lines = ["def _super(pc):"]
    lines.extend(loads)
    lines.append("    while True:")
    lines.extend("    " + line for line in body)
    code = compile("\n".join(lines), f"<superinst:{start}-{end}>", "exec")
    ns = dict(env)
    exec(code, ns)
    # Take the function out of its own globals: left there, the pair is
    # a reference cycle that only Python's cyclic collector frees.
    return ns.pop("_super")

