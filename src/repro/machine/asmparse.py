"""Assembly text parser: the inverse of ``MInst.render``.

The paper's postprocessor "operates on the SPARC assembly code level" —
a standalone filter between compiler and assembler.  This module lets
ours be used the same way: render a program to text, hand the text to
any tool (or a person), parse it back, postprocess, re-render.

Grammar is exactly what :meth:`repro.machine.asm.MInst.render` emits::

    name:  ! frame=N          function header
    label:                    label line
        op operands...        one instruction
        !keepsafe r1, r2      KEEP_LIVE marker
"""

from __future__ import annotations

import re

from .asm import ALU_OPS, MFunc, MInst, MProgram, UNARY_OPS

_FUNC_RE = re.compile(r"^(\w+):\s*!\s*frame=(\d+)\s*$")
_LABEL_RE = re.compile(r"^([.\w][\w.$]*):\s*$")
_MEM_RE = re.compile(r"^\[(\w+)\+(-?\w+)\]$")

_LD_SUFFIX = {"b": (1, True), "bu": (1, False), "h": (2, True),
              "hu": (2, False), "w": (4, True)}


class AsmParseError(Exception):
    def __init__(self, message: str, line_no: int, line: str):
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no


def _split_operands(rest: str) -> list[str]:
    return [part.strip() for part in rest.split(",")] if rest.strip() else []


def _reg_or_imm(token: str) -> tuple[str | None, int | None]:
    """Classify an operand as a register name or immediate."""
    try:
        return None, int(token, 0)
    except ValueError:
        return token, None


def parse_instruction(line: str, line_no: int = 0) -> MInst:
    text = line.strip()
    label = _LABEL_RE.match(text)
    if label is not None:
        return MInst("label", symbol=label.group(1))
    if text.startswith("!keepsafe"):
        ops = _split_operands(text[len("!keepsafe"):])
        if len(ops) != 2:
            raise AsmParseError("keepsafe needs two registers", line_no, line)
        return MInst("keepsafe", rs1=ops[0], rs2=ops[1])
    parts = text.split(None, 1)
    op = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    ops = _split_operands(rest)

    if op == "nop":
        return MInst("nop")
    if op == "ret":
        return MInst("ret")
    if op == "li":
        return MInst("li", rd=ops[0], imm=int(ops[1], 0))
    if op == "la":
        return MInst("la", rd=ops[0], symbol=ops[1])
    if op == "mov":
        return MInst("mov", rd=ops[0], rs1=ops[1])
    if op in ALU_OPS:
        reg, imm = _reg_or_imm(ops[2])
        return MInst(op, rd=ops[0], rs1=ops[1], rs2=reg, imm=imm)
    if op in UNARY_OPS:
        return MInst(op, rd=ops[0], rs1=ops[1])
    if op.startswith("ld") or op.startswith("st"):
        kind = op[:2]
        suffix = op[2:]
        if suffix not in _LD_SUFFIX:
            raise AsmParseError(f"bad width suffix {suffix!r}", line_no, line)
        width, signed = _LD_SUFFIX[suffix]
        mem = _MEM_RE.match(ops[1])
        if mem is None:
            raise AsmParseError("bad memory operand", line_no, line)
        base, offset = mem.group(1), mem.group(2)
        reg, imm = _reg_or_imm(offset)
        return MInst(kind, rd=ops[0], rs1=base, rs2=reg, imm=imm,
                     width=width, signed=signed)
    if op == "jmp":
        return MInst("jmp", symbol=ops[0])
    if op in ("bz", "bnz"):
        return MInst(op, rs1=ops[0], symbol=ops[1])
    if op == "call":
        return MInst("call", symbol=ops[0], nargs=int(ops[1]))
    if op == "callr":
        return MInst("callr", rs1=ops[0], nargs=int(ops[1]))
    raise AsmParseError(f"unknown mnemonic {op!r}", line_no, line)


def parse_program_text(text: str) -> MProgram:
    """Parse rendered assembly back into an MProgram (code only; globals
    are carried separately)."""
    prog = MProgram()
    current: MFunc | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        header = _FUNC_RE.match(line.strip())
        if header is not None:
            current = MFunc(header.group(1), [], int(header.group(2)))
            prog.functions[current.name] = current
            continue
        if current is None:
            raise AsmParseError("instruction before function header",
                                line_no, line)
        current.insts.append(parse_instruction(line, line_no))
    return prog


def round_trip(prog: MProgram) -> MProgram:
    """render -> parse; the result must execute identically (tested)."""
    parsed = parse_program_text(prog.render())
    parsed.globals = dict(prog.globals)
    return parsed
