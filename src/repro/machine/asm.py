"""RISC-style target instruction set.

A load-store, three-operand machine in the SPARC mold (the paper's
primary target).  Loads support register+immediate and register+register
addressing — ``ld [%o0+1]`` style index arithmetic folded into the load
is exactly the optimization KEEP_LIVE suppresses and the postprocessor
recovers ("a free addition in the load instruction").

``keepsafe rs1, rs2`` is the zero-cost marker the compiler leaves for
the peephole postprocessor: rs1 holds a KEEP_LIVE result, rs2 its base
("It generated a special comment understood by the peephole
optimizer.").
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Special registers (not allocatable).
SP = "sp"  # stack pointer
FP = "fp"  # frame pointer
RV = "rv"  # return value
ARG_REGS = tuple(f"a{i}" for i in range(6))
SCRATCH = ("x0", "x1", "x2")  # reserved for spill reloads

ALU_OPS = frozenset(
    "add sub mul div mod divu modu and or xor shl shr srl "
    "seq sne slt sle sgt sge sltu sleu sgtu sgeu".split()
)
UNARY_OPS = frozenset("neg not bnot sext8 zext8 sext16 zext16".split())
BRANCH_OPS = frozenset("jmp bz bnz".split())


@dataclass
class MInst:
    """One machine instruction.

    ops: li, la, mov, <alu>, <unary>, ld, st, jmp, bz, bnz,
         call, callr, ret, keepsafe, label, nop
    ``ld``/``st`` use rs1 + (rs2 or imm) addressing.
    """

    op: str
    rd: str | None = None
    rs1: str | None = None
    rs2: str | None = None
    imm: int | None = None
    symbol: str = ""
    width: int = 4
    signed: bool = True
    nargs: int = 0

    def registers_read(self) -> list[str]:
        regs = []
        if self.op == "st":
            # st rd(value) -> [rs1 + rs2/imm]; the "destination" is memory.
            if self.rd:
                regs.append(self.rd)
        if self.rs1:
            regs.append(self.rs1)
        if self.rs2:
            regs.append(self.rs2)
        if self.op == "keepsafe":
            pass  # rs1/rs2 already included
        if self.op in ("call", "callr"):
            regs.extend(ARG_REGS[: self.nargs])
        if self.op == "ret":
            regs.append(RV)
        return regs

    def register_written(self) -> str | None:
        if self.op in ("st", "jmp", "bz", "bnz", "ret", "label", "nop", "keepsafe"):
            return None
        return self.rd

    def render(self) -> str:
        op = self.op
        if op == "label":
            return f"{self.symbol}:"
        if op == "li":
            return f"    li {self.rd}, {self.imm}"
        if op == "la":
            return f"    la {self.rd}, {self.symbol}"
        if op == "mov":
            return f"    mov {self.rd}, {self.rs1}"
        if op in ALU_OPS:
            src2 = self.rs2 if self.rs2 is not None else self.imm
            return f"    {op} {self.rd}, {self.rs1}, {src2}"
        if op in UNARY_OPS:
            return f"    {op} {self.rd}, {self.rs1}"
        if op == "ld":
            suffix = {1: "b", 2: "h", 4: "w"}[self.width]
            if not self.signed and self.width < 4:
                suffix += "u"
            addr = f"[{self.rs1}+{self.rs2}]" if self.rs2 else f"[{self.rs1}+{self.imm or 0}]"
            return f"    ld{suffix} {self.rd}, {addr}"
        if op == "st":
            suffix = {1: "b", 2: "h", 4: "w"}[self.width]
            addr = f"[{self.rs1}+{self.rs2}]" if self.rs2 else f"[{self.rs1}+{self.imm or 0}]"
            return f"    st{suffix} {self.rd}, {addr}"
        if op in ("jmp",):
            return f"    jmp {self.symbol}"
        if op in ("bz", "bnz"):
            return f"    {op} {self.rs1}, {self.symbol}"
        if op == "call":
            return f"    call {self.symbol}, {self.nargs}"
        if op == "callr":
            return f"    callr {self.rs1}, {self.nargs}"
        if op == "ret":
            return "    ret"
        if op == "keepsafe":
            return f"    !keepsafe {self.rs1}, {self.rs2}"
        if op == "nop":
            return "    nop"
        raise ValueError(f"cannot render {self.op}")


@dataclass
class MFunc:
    name: str
    insts: list[MInst] = field(default_factory=list)
    frame_size: int = 0

    def code_size(self) -> int:
        """Static size in instructions, excluding labels and zero-size
        markers (the paper's object-code expansion metric)."""
        return sum(1 for i in self.insts
                   if i.op not in ("label", "keepsafe", "nop"))

    def render(self) -> str:
        lines = [f"{self.name}:  ! frame={self.frame_size}"]
        lines.extend(i.render() for i in self.insts)
        return "\n".join(lines)


@dataclass
class MProgram:
    functions: dict[str, MFunc] = field(default_factory=dict)
    globals: dict = field(default_factory=dict)  # name -> GlobalVar

    def code_size(self) -> int:
        return sum(f.code_size() for f in self.functions.values())

    def render(self) -> str:
        return "\n\n".join(f.render() for f in self.functions.values())
