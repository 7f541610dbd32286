"""IR -> machine code generation.

Includes the addressing-mode folding a real -O compiler does: an ``add``
feeding a single load/store folds into ``ld [x+y]`` / ``ld [x+imm]``
("indexed loads ... which is profitable on some machines that allow a
free addition in the load instruction").  A ``keep`` between the
arithmetic and the memory access makes the address flow through the
barrier, so the fold cannot apply — this is the paper's primary source
of KEEP_LIVE overhead, later recovered by the postprocessor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asm import ARG_REGS, FP, MFunc, MInst, MProgram, RV, SCRATCH, SP
from .cfg import basic_blocks
from .ir import Inst, IRFunc, IRProgram, Vreg
from .models import MachineModel
from .regalloc import Allocation, allocate

_BIN_TO_M = {
    "add": "add", "sub": "sub", "mul": "mul", "div": "div", "mod": "mod",
    "divu": "divu", "modu": "modu",
    "and": "and", "or": "or", "xor": "xor", "shl": "shl", "shr": "shr",
    "shru": "srl",
    "eq": "seq", "ne": "sne", "lt": "slt", "le": "sle", "gt": "sgt",
    "ge": "sge", "ult": "sltu", "ule": "sleu", "ugt": "sgtu", "uge": "sgeu",
}

_IMM_LIMIT = 4096  # simple signed-displacement field limit


class CodegenError(Exception):
    pass


class FuncCodegen:
    def __init__(self, fn: IRFunc, model: MachineModel, alloc: Allocation):
        self.fn = fn
        self.model = model
        self.alloc = alloc
        self.out: list[MInst] = []
        self.slot_offset: dict[str, int] = {}
        self.frame_size = 0
        self._fused: set[int] = set()
        self._fold_for: dict[int, tuple] = {}

    # -- frame ------------------------------------------------------------

    def _layout(self) -> None:
        offset = 4  # [fp-4] holds the saved fp
        self._callee_save_offsets: dict[str, int] = {}
        for reg in self.alloc.used_callee:
            offset += 4
            self._callee_save_offsets[reg] = -offset
        for slot in self.fn.slots.values():
            align = max(slot.align, 1)
            offset = (offset + slot.size + align - 1) // align * align
            self.slot_offset[slot.name] = -offset
        for name in self.alloc.spill_slots:  # 4-byte, 4-aligned words
            offset = (offset + 7) // 4 * 4
            self.slot_offset[name] = -offset
        self.frame_size = (offset + 7) // 8 * 8

    # -- register access ---------------------------------------------------

    def _src(self, vreg: Vreg, scratch: str) -> str:
        iv = self.alloc.intervals.get(vreg)
        if iv is None:
            raise CodegenError(f"use of unallocated vreg {vreg!r} in {self.fn.name}")
        if iv.reg is not None:
            return iv.reg
        assert iv.spill_slot is not None
        self.out.append(MInst("ld", rd=scratch, rs1=FP,
                              imm=self.slot_offset[iv.spill_slot]))
        return scratch

    def _dst_reg(self, vreg: Vreg) -> tuple[str, str | None]:
        """Return (register to compute into, spill slot name or None)."""
        iv = self.alloc.intervals.get(vreg)
        if iv is None:
            return SCRATCH[2], None  # dead destination; compute and drop
        if iv.reg is not None:
            return iv.reg, None
        return SCRATCH[2], iv.spill_slot

    def _finish_dst(self, spill_slot: str | None, reg: str) -> None:
        if spill_slot is not None:
            self.out.append(MInst("st", rd=reg, rs1=FP,
                                  imm=self.slot_offset[spill_slot]))

    # -- fold analysis -------------------------------------------------------

    def _analyze_folds(self) -> None:
        """Identify add instructions fusable into a following load/store
        address within the same block."""
        uses: dict[Vreg, int] = {}
        for inst in self.fn.insts:
            for a in inst.args:
                uses[a] = uses.get(a, 0) + 1
        for block in basic_blocks(self.fn.insts):
            def_at: dict[Vreg, int] = {}
            redefined_after: dict[Vreg, int] = {}
            for idx in block:
                inst = self.fn.insts[idx]
                if inst.dst is not None:
                    def_at[inst.dst] = idx
            for idx in block:
                inst = self.fn.insts[idx]
                if inst.op not in ("load", "store"):
                    continue
                addr = inst.args[0] if inst.op == "load" else inst.args[1]
                d = def_at.get(addr)
                if d is None or d >= idx:
                    continue
                add = self.fn.insts[d]
                if add.op != "bin" or add.subop != "add" or uses.get(addr, 0) != 1:
                    continue
                x, y = add.args
                # x and y must not be redefined between the add and here.
                clobbered = False
                for k in range(d + 1, idx):
                    dk = self.fn.insts[k].dst
                    if dk is not None and dk in (x, y, addr):
                        clobbered = True
                        break
                if clobbered:
                    continue
                # Immediate form when y is a single-use const in range.
                y_def = def_at.get(y)
                imm = None
                if (y_def is not None and y_def < idx
                        and self.fn.insts[y_def].op == "const"
                        and uses.get(y, 0) == 1):
                    value = self.fn.insts[y_def].imm or 0
                    signed = value - (1 << 32) if value >= 1 << 31 else value
                    if -_IMM_LIMIT <= signed < _IMM_LIMIT:
                        imm = signed
                        self._fused.add(y_def)
                self._fused.add(d)
                self._fold_for[idx] = (x, y, imm)

    # -- main ---------------------------------------------------------------

    def generate(self) -> MFunc:
        self._analyze_folds()
        self._layout()
        self._prologue()
        for idx, inst in enumerate(self.fn.insts):
            if idx in self._fused:
                continue
            self._emit(idx, inst)
        # Safety net: function falls off the end.
        if not self.out or self.out[-1].op != "ret":
            self._epilogue()
            self.out.append(MInst("ret"))
        mf = MFunc(self.fn.name, self.out, self.frame_size)
        return mf

    def _prologue(self) -> None:
        self.out.append(MInst("st", rd=FP, rs1=SP, imm=-4))
        self.out.append(MInst("mov", rd=FP, rs1=SP))
        self.out.append(MInst("sub", rd=SP, rs1=SP, imm=self.frame_size))
        for reg, off in self._callee_save_offsets.items():
            self.out.append(MInst("st", rd=reg, rs1=FP, imm=off))
        for i, param in enumerate(self.fn.params):
            iv = self.alloc.intervals.get(param)
            if iv is None:
                continue  # unused parameter
            if iv.reg is not None:
                self.out.append(MInst("mov", rd=iv.reg, rs1=ARG_REGS[i]))
            else:
                assert iv.spill_slot is not None
                self.out.append(MInst("st", rd=ARG_REGS[i], rs1=FP,
                                      imm=self.slot_offset[iv.spill_slot]))

    def _epilogue(self) -> None:
        for reg, off in self._callee_save_offsets.items():
            self.out.append(MInst("ld", rd=reg, rs1=FP, imm=off))
        self.out.append(MInst("mov", rd=SP, rs1=FP))
        self.out.append(MInst("ld", rd=FP, rs1=FP, imm=-4))

    def _emit(self, idx: int, inst: Inst) -> None:
        op = inst.op
        if op == "label":
            self.out.append(MInst("label", symbol=inst.symbol))
        elif op == "comment":
            pass
        elif op == "const":
            reg, spill = self._dst_reg(inst.dst)
            self.out.append(MInst("li", rd=reg, imm=inst.imm or 0))
            self._finish_dst(spill, reg)
        elif op == "la":
            reg, spill = self._dst_reg(inst.dst)
            self.out.append(MInst("la", rd=reg, symbol=inst.symbol))
            self._finish_dst(spill, reg)
        elif op == "frame":
            reg, spill = self._dst_reg(inst.dst)
            off = self.slot_offset[inst.symbol]
            self.out.append(MInst("add", rd=reg, rs1=FP, imm=off))
            self._finish_dst(spill, reg)
        elif op == "mov":
            src = self._src(inst.args[0], SCRATCH[0])
            reg, spill = self._dst_reg(inst.dst)
            if src != reg:
                self.out.append(MInst("mov", rd=reg, rs1=src))
            self._finish_dst(spill, reg)
        elif op == "un":
            src = self._src(inst.args[0], SCRATCH[0])
            reg, spill = self._dst_reg(inst.dst)
            self.out.append(MInst(inst.subop, rd=reg, rs1=src))
            self._finish_dst(spill, reg)
        elif op == "bin":
            a = self._src(inst.args[0], SCRATCH[0])
            b = self._src(inst.args[1], SCRATCH[1])
            reg, spill = self._dst_reg(inst.dst)
            self.out.append(MInst(_BIN_TO_M[inst.subop], rd=reg, rs1=a, rs2=b))
            self._finish_dst(spill, reg)
        elif op == "load":
            self._emit_load(idx, inst)
        elif op == "store":
            self._emit_store(idx, inst)
        elif op == "jmp":
            self.out.append(MInst("jmp", symbol=inst.symbol))
        elif op in ("bz", "bnz"):
            src = self._src(inst.args[0], SCRATCH[0])
            self.out.append(MInst(op, rs1=src, symbol=inst.symbol))
        elif op == "call":
            self._emit_call(inst, target_symbol=inst.symbol)
        elif op == "callr":
            target = self._src(inst.args[0], SCRATCH[2])
            self._emit_call(inst, target_reg=target, skip_first_arg=True)
        elif op == "ret":
            if inst.args:
                src = self._src(inst.args[0], SCRATCH[0])
                if src != RV:
                    self.out.append(MInst("mov", rd=RV, rs1=src))
            self._epilogue()
            self.out.append(MInst("ret"))
        elif op == "keep":
            self._emit_keep(inst)
        else:
            raise CodegenError(f"cannot emit IR op {op!r}")

    def _emit_load(self, idx: int, inst: Inst) -> None:
        reg, spill = self._dst_reg(inst.dst)
        fold = self._fold_for.get(idx)
        if fold is not None:
            x, y, imm = fold
            rx = self._src(x, SCRATCH[0])
            if imm is not None:
                self.out.append(MInst("ld", rd=reg, rs1=rx, imm=imm,
                                      width=inst.width, signed=inst.signed))
            else:
                ry = self._src(y, SCRATCH[1])
                self.out.append(MInst("ld", rd=reg, rs1=rx, rs2=ry,
                                      width=inst.width, signed=inst.signed))
        else:
            addr = self._src(inst.args[0], SCRATCH[0])
            self.out.append(MInst("ld", rd=reg, rs1=addr, imm=0,
                                  width=inst.width, signed=inst.signed))
        self._finish_dst(spill, reg)

    def _emit_store(self, idx: int, inst: Inst) -> None:
        value = self._src(inst.args[0], SCRATCH[2])
        fold = self._fold_for.get(idx)
        if fold is not None:
            x, y, imm = fold
            rx = self._src(x, SCRATCH[0])
            if imm is not None:
                self.out.append(MInst("st", rd=value, rs1=rx, imm=imm,
                                      width=inst.width))
            else:
                ry = self._src(y, SCRATCH[1])
                self.out.append(MInst("st", rd=value, rs1=rx, rs2=ry,
                                      width=inst.width))
        else:
            addr = self._src(inst.args[1], SCRATCH[0])
            self.out.append(MInst("st", rd=value, rs1=addr, imm=0,
                                  width=inst.width))

    def _emit_call(self, inst: Inst, target_symbol: str = "",
                   target_reg: str | None = None, skip_first_arg: bool = False) -> None:
        args = inst.args[1:] if skip_first_arg else inst.args
        if len(args) > len(ARG_REGS):
            raise CodegenError("too many call arguments")
        for i, arg in enumerate(args):
            src = self._src(arg, ARG_REGS[i])
            if src != ARG_REGS[i]:
                self.out.append(MInst("mov", rd=ARG_REGS[i], rs1=src))
        if target_reg is not None:
            self.out.append(MInst("callr", rs1=target_reg, nargs=len(args)))
        else:
            self.out.append(MInst("call", symbol=target_symbol, nargs=len(args)))
        if inst.dst is not None and inst.dst in self.alloc.intervals:
            reg, spill = self._dst_reg(inst.dst)
            if reg != RV:
                self.out.append(MInst("mov", rd=reg, rs1=RV))
                self._finish_dst(spill, reg)
            else:
                self._finish_dst(spill, reg)

    def _emit_keep(self, inst: Inst) -> None:
        """KEEP_LIVE: zero machine instructions, but the value must sit
        in the destination's location and the base must have stayed live
        to this point (the allocator guaranteed that).  Emits the marker
        the postprocessor understands, plus a mov when the tie could not
        be coalesced."""
        src = self._src(inst.args[0], SCRATCH[0])
        base = self._src(inst.args[1], SCRATCH[1])
        self.out.append(MInst("keepsafe", rs1=src, rs2=base))
        reg, spill = self._dst_reg(inst.dst)
        if src != reg:
            self.out.append(MInst("mov", rd=reg, rs1=src))
        self._finish_dst(spill, reg)


def generate_program(ir: IRProgram, model: MachineModel) -> MProgram:
    """Allocate registers and emit machine code for a whole program.
    Reads ``ir`` without changing it, so one (optimized) IR program can
    be generated for several machine models."""
    prog = MProgram(globals=dict(ir.globals))
    for fn in ir.functions.values():
        alloc = allocate(fn, model)
        prog.functions[fn.name] = FuncCodegen(fn, model, alloc).generate()
    return prog
