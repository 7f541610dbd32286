"""Block-local optimizations: constant folding/propagation, copy
propagation, algebraic simplification and common-subexpression
elimination by local value numbering.

The ``keep`` barrier is opaque: its result gets a fresh, unknowable
value number, so the optimizer can never "lose all information about how
the resulting value was computed ... discarding the value and
subsequently recomputing it" — the paper's condition (2).
"""

from __future__ import annotations

from ..codegen import _BIN_TO_M
from ..cfg import basic_blocks
from ..ir import COMMUTATIVE, Inst, IRFunc, Vreg
from ..vm import ALU_FUNCS, UNARY_FUNCS, VMError

_MASK = 0xFFFFFFFF


def eval_bin(subop: str, a: int, b: int) -> int | None:
    """Evaluate a binary IR subop on 32-bit values with the machine's
    own table (None: division by zero, which must trap at run time)."""
    try:
        return ALU_FUNCS[_BIN_TO_M[subop]](a & _MASK, b & _MASK)
    except VMError:
        return None


def eval_un(subop: str, a: int) -> int:
    """Evaluate a unary IR subop (named as its machine op) on a 32-bit
    value with the machine's own table."""
    return UNARY_FUNCS[subop](a & _MASK)


class _BlockState:
    """Value-numbering state, reset at each basic block."""

    def __init__(self):
        self.version: dict[Vreg, int] = {}
        self.consts: dict[tuple[Vreg, int], int] = {}
        self.copies: dict[tuple[Vreg, int], tuple[Vreg, int]] = {}
        self.exprs: dict[tuple, tuple[Vreg, int]] = {}

    def ver(self, v: Vreg) -> int:
        return self.version.get(v, 0)

    def bump(self, v: Vreg) -> None:
        self.version[v] = self.ver(v) + 1

    def const_of(self, v: Vreg) -> int | None:
        return self.consts.get((v, self.ver(v)))

    def resolve_copy(self, v: Vreg) -> Vreg:
        """Follow the copy chain while the sources are still current."""
        seen = set()
        while True:
            entry = self.copies.get((v, self.ver(v)))
            if entry is None or v in seen:
                return v
            src, src_ver = entry
            if self.ver(src) != src_ver:
                return v
            seen.add(v)
            v = src


def run(fn: IRFunc) -> bool:
    """Apply local optimizations in place; return True if changed."""
    changed = False
    for block in basic_blocks(fn.insts):
        state = _BlockState()
        for idx in block:
            inst = fn.insts[idx]
            changed |= _visit(fn, idx, inst, state)
    return changed


def _visit(fn: IRFunc, idx: int, inst: Inst, state: _BlockState) -> bool:
    changed = False
    # Copy-propagate all register arguments first (not through keep dst).
    if inst.op not in ("label", "jmp"):
        new_args = tuple(state.resolve_copy(a) for a in inst.args)
        if new_args != inst.args:
            inst.args = new_args
            changed = True

    if inst.op == "const":
        if inst.dst is not None:
            state.bump(inst.dst)
            state.consts[(inst.dst, state.ver(inst.dst))] = inst.imm or 0
        return changed

    if inst.op == "mov":
        src = inst.args[0]
        cval = state.const_of(src)
        assert inst.dst is not None
        state.bump(inst.dst)
        if cval is not None:
            fn.insts[idx] = Inst("const", dst=inst.dst, imm=cval)
            state.consts[(inst.dst, state.ver(inst.dst))] = cval
            return True
        state.copies[(inst.dst, state.ver(inst.dst))] = (src, state.ver(src))
        return changed

    if inst.op == "un":
        a = inst.args[0]
        ca = state.const_of(a)
        assert inst.dst is not None
        if ca is not None:
            value = eval_un(inst.subop, ca)
            state.bump(inst.dst)
            fn.insts[idx] = Inst("const", dst=inst.dst, imm=value)
            state.consts[(inst.dst, state.ver(inst.dst))] = value
            return True
        changed |= _try_cse(fn, idx, inst, state, ("un", inst.subop, a, state.ver(a)))
        return changed

    if inst.op == "bin":
        return _visit_bin(fn, idx, inst, state) or changed

    if inst.op in ("la", "frame"):
        # Pure functions of their symbol: CSE-able.
        assert inst.dst is not None
        return _try_cse(fn, idx, inst, state, (inst.op, inst.symbol)) or changed

    # Everything else defines an unknowable value (loads, calls, keep)
    # or has no destination.
    if inst.dst is not None:
        state.bump(inst.dst)
    return changed


def _visit_bin(fn: IRFunc, idx: int, inst: Inst, state: _BlockState) -> bool:
    a, b = inst.args
    ca, cb = state.const_of(a), state.const_of(b)
    assert inst.dst is not None
    if ca is not None and cb is not None:
        value = eval_bin(inst.subop, ca, cb)
        if value is not None:
            state.bump(inst.dst)
            fn.insts[idx] = Inst("const", dst=inst.dst, imm=value)
            state.consts[(inst.dst, state.ver(inst.dst))] = value
            return True
    # Algebraic identities.
    simplified = _algebraic(fn, idx, inst, state, a, b, ca, cb)
    if simplified:
        return True
    key_a = (a, state.ver(a)) if ca is None else ("c", ca)
    key_b = (b, state.ver(b)) if cb is None else ("c", cb)
    if inst.subop in COMMUTATIVE and repr(key_b) < repr(key_a):
        key_a, key_b = key_b, key_a
    return _try_cse(fn, idx, inst, state, ("bin", inst.subop, key_a, key_b))


def _algebraic(fn: IRFunc, idx: int, inst: Inst, state: _BlockState,
               a, b, ca, cb) -> bool:
    subop = inst.subop
    dst = inst.dst
    assert dst is not None

    def as_mov(src) -> bool:
        state.bump(dst)
        fn.insts[idx] = Inst("mov", dst=dst, args=(src,))
        state.copies[(dst, state.ver(dst))] = (src, state.ver(src))
        return True

    def as_const(value: int) -> bool:
        state.bump(dst)
        fn.insts[idx] = Inst("const", dst=dst, imm=value & _MASK)
        state.consts[(dst, state.ver(dst))] = value & _MASK
        return True

    if subop == "add":
        if cb == 0:
            return as_mov(a)
        if ca == 0:
            return as_mov(b)
    elif subop == "sub":
        if cb == 0:
            return as_mov(a)
        if a == b and state.ver(a) == state.ver(b):
            return as_const(0)
    elif subop == "mul":
        if cb == 1:
            return as_mov(a)
        if ca == 1:
            return as_mov(b)
        if cb == 0 or ca == 0:
            return as_const(0)
        # mul-by-power-of-two becomes a shift in opt/strength.py, which
        # can insert the shift-amount constant it needs.
    elif subop in ("div", "divu") and cb == 1:
        return as_mov(a)
    return False


def _try_cse(fn: IRFunc, idx: int, inst: Inst, state: _BlockState, key) -> bool:
    assert inst.dst is not None
    prev = state.exprs.get(key)
    if prev is not None:
        src, src_ver = prev
        if state.ver(src) == src_ver and src != inst.dst:
            state.bump(inst.dst)
            fn.insts[idx] = Inst("mov", dst=inst.dst, args=(src,))
            state.copies[(inst.dst, state.ver(inst.dst))] = (src, state.ver(src))
            return True
    state.bump(inst.dst)
    state.exprs[key] = (inst.dst, state.ver(inst.dst))
    return False
