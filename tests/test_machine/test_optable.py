"""One instruction table: for every ALU and unary op, in every operand
form, the plain closures, a fused run and constant folding compute the
same value, and that value is the one an independent reference gives;
every load and store leaves the same registers, memory and counters in
both tiers, or raises the same fault."""

import math

import pytest

from repro.gc.memory import PAGE_SIZE, STATIC_BASE
from repro.machine import superinst
from repro.machine.asm import ALU_OPS, MFunc, MInst, MProgram, UNARY_OPS
from repro.machine.codegen import _BIN_TO_M
from repro.machine.ir import GlobalVar
from repro.machine.opt.local import eval_bin, eval_un
from repro.machine.vm import VM, VMError, _slice_access, statement

MASK = 0xFFFFFFFF
OPERANDS = (0, 1, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
            0x80, 0xFF, 0x8000, 0xFFFF)
IR_SUBOP = {m: ir for ir, m in _BIN_TO_M.items()}


def s32(x):
    return x - (1 << 32) if x & 0x80000000 else x


def sx(x, bits):
    sign = 1 << (bits - 1)
    return ((x & (2 * sign - 1)) ^ sign) - sign


# C semantics written independently of the machine's table: float
# truncation for / (exact for 32-bit operands) and fmod for %.
REFERENCE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: int(s32(a) / s32(b)),
    "mod": lambda a, b: int(math.fmod(s32(a), s32(b))),
    "divu": lambda a, b: int(a / b),
    "modu": lambda a, b: int(math.fmod(a, b)),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b % 32,
    "shr": lambda a, b: s32(a) >> b % 32,
    "srl": lambda a, b: a >> b % 32,
    "seq": lambda a, b: a == b,
    "sne": lambda a, b: a != b,
    "slt": lambda a, b: s32(a) < s32(b),
    "sle": lambda a, b: s32(a) <= s32(b),
    "sgt": lambda a, b: s32(a) > s32(b),
    "sge": lambda a, b: s32(a) >= s32(b),
    "sltu": lambda a, b: a < b,
    "sleu": lambda a, b: a <= b,
    "sgtu": lambda a, b: a > b,
    "sgeu": lambda a, b: a >= b,
    "neg": lambda a, _: -a,
    "not": lambda a, _: a == 0,
    "bnot": lambda a, _: ~a,
    "sext8": lambda a, _: sx(a, 8),
    "zext8": lambda a, _: a & 0xFF,
    "sext16": lambda a, _: sx(a, 16),
    "zext16": lambda a, _: a & 0xFFFF,
}

CASES = ([(op, form) for op in sorted(ALU_OPS) for form in ("rr", "ri")]
         + [(op, "r") for op in sorted(UNARY_OPS)])


def program(op, form, pairs):
    """``main`` applies ``op`` to each (a, b) and stores it to out[k]."""
    insts = [MInst("la", rd="t3", symbol="out")]
    for k, (a, b) in enumerate(pairs):
        insts.append(MInst("li", rd="t0", imm=a))
        if form == "r":
            insts.append(MInst(op, rd="t2", rs1="t0"))
        elif form == "rr":
            insts.append(MInst("li", rd="t1", imm=b))
            insts.append(MInst(op, rd="t2", rs1="t0", rs2="t1"))
        else:
            insts.append(MInst(op, rd="t2", rs1="t0", imm=b))
        insts.append(MInst("st", rd="t2", rs1="t3", imm=4 * k))
    insts.append(MInst("ret"))
    return MProgram({"main": MFunc("main", insts)},
                    {"out": GlobalVar("out", 4 * len(pairs))})


def run(prog, fused, monkeypatch):
    """Run ``main`` plain or as one fused run; return the VM."""
    monkeypatch.setattr(superinst, "FUSE_AFTER", 1 if fused else 0)
    vm = VM(prog)
    try:
        vm.run()
    finally:
        assert vm.fused_runs == int(fused)
    return vm


def results(vm, n):
    base = vm.global_addr["out"]
    return [vm.memory.load(base + 4 * k, 4, False) for k in range(n)]


@pytest.mark.parametrize("op, form", CASES)
def test_tiers_and_folding_agree(op, form, monkeypatch):
    if form == "r":
        pairs = [(a, 0) for a in OPERANDS]
    else:
        pairs = [(a, b) for a in OPERANDS for b in OPERANDS
                 if b or op not in ("div", "mod", "divu", "modu")]
    prog = program(op, form, pairs)
    plain = results(run(prog, False, monkeypatch), len(pairs))
    fused = results(run(prog, True, monkeypatch), len(pairs))
    if form == "r":
        folded = [eval_un(op, a) for a, _ in pairs]
    else:
        folded = [eval_bin(IR_SUBOP[op], a, b) for a, b in pairs]
    expected = [int(REFERENCE[op](a, b)) & MASK for a, b in pairs]
    assert plain == expected
    assert fused == expected
    assert folded == expected


@pytest.mark.parametrize("op", ["div", "mod", "divu", "modu"])
@pytest.mark.parametrize("form", ["rr", "ri"])
def test_division_by_zero_traps_alike_and_does_not_fold(op, form,
                                                        monkeypatch):
    prog = program(op, form, [(7, 0)])
    for fused in (False, True):
        with pytest.raises(VMError) as exc:
            run(prog, fused, monkeypatch)
        assert str(exc.value) == f"integer division by zero in {op}"
    assert eval_bin(IR_SUBOP[op], 7, 0) is None


# -- loads and stores ---------------------------------------------------------

BUF = STATIC_BASE  # where ``buf``, the program's only global, is linked
# Every byte has its sign bit set, so sign and zero extension differ.
PATTERN = bytes(0x80 | (37 * k & 0x7F) for k in range(2 * PAGE_SIZE))
VALUE = 0x89ABCDEF
UNMAPPED = 0x10


def addresses(width):
    """Where an access of ``width`` bytes lands: inside a page, at the
    page's last offset that holds all of it, across into the next page
    (the slow path) and on an unmapped page."""
    where = {"in-page": BUF + 0x123, "last": BUF + PAGE_SIZE - width}
    if width > 1:
        where["across"] = BUF + PAGE_SIZE - width + 1
    where["unmapped"] = UNMAPPED
    return where


MEM_CASES = [(op, width, signed, form, where)
             for op, signs in (("ld", (False, True)), ("st", (False,)))
             for width in (1, 2, 4) for signed in signs
             for form in ("rr", "ri") for where in addresses(width)]


def mem_program(op, width, signed, form, addr):
    """``main`` loads ``addr`` into t2, or stores VALUE from t2 there,
    addressed as a base register plus 8 in ``form``."""
    insts = [MInst("li", rd="t3", imm=addr - 8)]
    if form == "rr":
        insts.append(MInst("li", rd="t4", imm=8))
        index = {"rs2": "t4"}
    else:
        index = {"imm": 8}
    if op == "st":
        insts.append(MInst("li", rd="t2", imm=VALUE))
    insts.append(MInst(op, rd="t2", rs1="t3", width=width, signed=signed,
                       **index))
    insts.append(MInst("ret"))
    buf = GlobalVar("buf", len(PATTERN), init_bytes=PATTERN)
    return MProgram({"main": MFunc("main", insts)}, {"buf": buf})


@pytest.mark.parametrize("op, width, signed, form, where", MEM_CASES)
def test_loads_and_stores_agree_across_tiers(op, width, signed, form, where,
                                             monkeypatch):
    addr = addresses(width)[where]
    prog = mem_program(op, width, signed, form, addr)
    if where == "unmapped":
        kind = "load" if op == "ld" else "store"
        for fused in (False, True):
            with pytest.raises(VMError) as exc:
                run(prog, fused, monkeypatch)
            assert str(exc.value) == f"{kind} fault at 0x{addr:08x}"
        return
    plain = run(prog, False, monkeypatch)
    fused = run(prog, True, monkeypatch)
    assert plain.global_addr["buf"] == BUF
    off = addr - BUF
    memory = bytearray(PATTERN)
    if op == "ld":
        t2 = int.from_bytes(PATTERN[off:off + width], "little",
                            signed=signed) & MASK
    else:
        t2 = VALUE
        memory[off:off + width] = (VALUE % (1 << 8 * width)).to_bytes(
            width, "little")
    for vm in (plain, fused):
        assert vm.regs["t2"] == t2
        assert vm.memory.read_bytes(BUF, len(PATTERN)) == memory
    assert plain.regs == fused.regs
    assert (plain.instructions, plain.cycles) == (fused.instructions,
                                                  fused.cycles)


@pytest.mark.parametrize("op", ["ld", "st"])
def test_only_wider_accesses_test_for_a_page_cross(op):
    """A byte at any offset lies inside its page: the width-1 statement
    tests only for an unmapped page."""
    for width in (1, 2, 4):
        lines = statement((op, "ri", width, False), "a", "b", "d", "",
                          _slice_access)
        assert any("_o >" in line for line in lines) == (width > 1), width
