"""Three-address intermediate representation.

The IR is a flat instruction list per function with labels; optimizer
passes build basic blocks on demand (:mod:`repro.machine.cfg`).  Values live in virtual registers
(:class:`Vreg`); memory-resident locals (address-taken, aggregates, or
everything in ``-g`` mode) live in named frame slots.

``keep`` is the KEEP_LIVE pseudo-instruction, the IR analogue of the
paper's empty gcc ``asm``: it ties ``dst`` to ``src`` (same location),
keeps ``base`` live until this point, and is opaque to every optimizer
pass — no forwarding, no folding, no dead-code elimination across it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

BIN_OPS = frozenset(
    "add sub mul div mod and or xor shl shr shru "
    "eq ne lt le gt ge ult ule ugt uge".split()
)
UN_OPS = frozenset("neg not bnot".split())

COMMUTATIVE = frozenset("add mul and or xor eq ne".split())


@dataclass(frozen=True)
class Vreg:
    """A virtual register.  ``hint`` is a human-readable origin tag."""

    id: int
    hint: str = ""

    def __hash__(self) -> int:
        # Equal vregs share an id, and register allocation's sets and
        # dicts of vregs then hash one int instead of an (id, hint) tuple.
        return self.id

    def __repr__(self) -> str:
        return f"%{self.id}" + (f"({self.hint})" if self.hint else "")


@dataclass
class Inst:
    """One IR instruction.

    op: const | mov | un | bin | load | store | la | frame | label |
        jmp | bz | bnz | call | callr | ret | keep | comment
    """

    op: str
    dst: Vreg | None = None
    args: tuple = ()
    # op-specific payload:
    imm: int | None = None  # const
    subop: str = ""  # bin/un operation name
    width: int = 4  # load/store width
    signed: bool = True  # load sign extension
    symbol: str = ""  # la/frame/call/jmp/bz/bnz target
    text: str = ""  # comment payload

    def uses(self) -> tuple[Vreg, ...]:
        return self.args

    def replace_args(self, mapping: dict[Vreg, Vreg]) -> None:
        self.args = tuple(mapping.get(a, a) for a in self.args)

    def __repr__(self) -> str:
        parts = [self.op]
        if self.subop:
            parts.append(self.subop)
        if self.dst is not None:
            parts.append(f"{self.dst!r} <-")
        parts.extend(repr(a) for a in self.args)
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.symbol:
            parts.append(self.symbol)
        return " ".join(parts)


@dataclass
class FrameSlot:
    name: str
    size: int
    align: int = 4
    offset: int = 0  # assigned at frame layout time (negative from fp)


@dataclass
class IRFunc:
    name: str
    params: list[Vreg] = field(default_factory=list)
    insts: list[Inst] = field(default_factory=list)
    slots: dict[str, FrameSlot] = field(default_factory=dict)
    frame_size: int = 0
    _vreg_counter: itertools.count = field(default_factory=itertools.count)
    _label_counter: itertools.count = field(default_factory=itertools.count)

    # -- builders ---------------------------------------------------------

    def new_vreg(self, hint: str = "") -> Vreg:
        return Vreg(next(self._vreg_counter), hint)

    def new_label(self, hint: str = "L") -> str:
        return f".{self.name}_{hint}{next(self._label_counter)}"

    def emit(self, inst: Inst) -> Inst:
        self.insts.append(inst)
        return inst

    def add_slot(self, name: str, size: int, align: int = 4) -> FrameSlot:
        slot = FrameSlot(name, size, align)
        self.slots[name] = slot
        return slot

    def layout_frame(self) -> int:
        """Assign slot offsets (negative, fp-relative); return frame size."""
        offset = 0
        for slot in self.slots.values():
            offset = (offset + slot.size + slot.align - 1) // slot.align * slot.align
            slot.offset = -offset
        self.frame_size = (offset + 7) // 8 * 8
        return self.frame_size

    def __repr__(self) -> str:
        body = "\n".join(f"  {i!r}" for i in self.insts)
        return f"func {self.name}({', '.join(map(repr, self.params))}):\n{body}"


@dataclass
class GlobalVar:
    name: str
    size: int
    align: int = 4
    init_bytes: bytes = b""


@dataclass
class IRProgram:
    functions: dict[str, IRFunc] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    string_pool: dict[str, str] = field(default_factory=dict)  # text -> symbol

    def intern_string(self, text: str) -> str:
        symbol = self.string_pool.get(text)
        if symbol is None:
            symbol = f"__str{len(self.string_pool)}"
            self.string_pool[text] = symbol
            data = text.encode("latin-1") + b"\0"
            self.globals[symbol] = GlobalVar(symbol, len(data), 1, data)
        return symbol

