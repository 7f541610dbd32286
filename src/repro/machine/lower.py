"""Typed AST -> IR lowering.

Two compilation styles, matching the paper's measured configurations:

* optimized (``debug=False``): scalar locals whose address is never taken
  live in virtual registers; the optimizer pipeline then runs over the
  IR.
* debuggable (``debug=True``, the ``-g`` column): *every* local lives in
  a frame slot and every use goes through memory — "If the values of all
  logically visible variables are explicitly stored ... they will also
  be available for the garbage collector."  No optimizer runs.

KeepLive AST nodes lower to the ``keep`` IR barrier (safe mode) or to a
real ``GC_same_obj`` call (checked mode).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfront import cast as A
from ..cfront.ctypes import (
    Array, CType, Function, INT, IntType, Pointer, Struct, VOID, WORD_SIZE,
)
from ..cfront.errors import CFrontError
from ..cfront.symbols import Symbol, SymbolTable
from .ir import FrameSlot, GlobalVar, Inst, IRFunc, IRProgram, Vreg
from .opt.local import eval_bin, eval_un

MAX_REG_ARGS = 6


class LowerError(CFrontError):
    """A program the frontend accepts but the backend cannot lower; a
    typed diagnostic like every frontend error."""


@dataclass
class MemLoc:
    """An addressable location: frame slot, global, or computed address."""

    kind: str  # 'frame' | 'global' | 'addr'
    name: str = ""
    addr: Vreg | None = None
    width: int = 4
    signed: bool = True


class Lowerer:
    def __init__(self, unit: A.TranslationUnit, symbols: SymbolTable,
                 debug: bool = False, naive_keep_live: bool = False):
        self.unit = unit
        self.symbols = symbols
        self.debug = debug
        self.naive_keep_live = naive_keep_live
        self.program = IRProgram()
        self.fn: IRFunc = None  # type: ignore[assignment]
        self._scopes: list[dict[str, object]] = [{}]
        self._break_stack: list[str] = []
        self._continue_stack: list[str] = []
        self._slot_counter = 0

    # -- entry --------------------------------------------------------------

    def lower(self) -> IRProgram:
        for item in self.unit.items:
            if isinstance(item, A.Decl) and item.storage != "typedef":
                self._lower_global_decl(item)
        for item in self.unit.items:
            if isinstance(item, A.FuncDef):
                self._lower_function(item)
        return self.program

    # -- globals --------------------------------------------------------------

    def _lower_global_decl(self, decl: A.Decl) -> None:
        for d in decl.declarators:
            ctype = d.ctype
            if ctype.is_function or decl.storage == "extern":
                continue
            size = max(ctype.size, 1)
            gvar = GlobalVar(d.name, size, max(ctype.align, 1))
            gvar.relocs = []  # type: ignore[attr-defined]
            data = bytearray(size)
            if d.init is not None:
                self._encode_init(d.init, ctype, data, 0, gvar)
            gvar.init_bytes = bytes(data)
            self.program.globals[d.name] = gvar
            self._scopes[0][d.name] = gvar

    def _encode_init(self, init: A.Node, ctype: CType, out: bytearray,
                     offset: int, gvar: GlobalVar) -> None:
        if isinstance(init, A.InitList):
            if isinstance(ctype, Array):
                for i, item in enumerate(init.items):
                    self._encode_init(item, ctype.element, out,
                                      offset + i * ctype.element.size, gvar)
            elif isinstance(ctype, Struct):
                for item, fld in zip(init.items, ctype.fields):
                    self._encode_init(item, fld.ctype, out,
                                      offset + fld.offset, gvar)
            else:
                raise LowerError(f"brace initializer for scalar global {gvar.name}")
            return
        assert isinstance(init, A.Expr)
        if isinstance(init, A.StringLit):
            if isinstance(ctype, Array):
                raw = init.value.encode("latin-1") + b"\0"
                out[offset : offset + len(raw)] = raw
                return
            symbol = self.program.intern_string(init.value)
            gvar.relocs.append((offset, symbol))  # type: ignore[attr-defined]
            return
        value = _const_value(init)
        if value is None:
            raise LowerError(
                f"global initializer for {gvar.name} is not a supported constant")
        width = max(ctype.size, 1) if ctype.size in (1, 2, 4) else 4
        out[offset : offset + width] = (value % (1 << (8 * width))).to_bytes(width, "little")

    # -- functions --------------------------------------------------------------

    def _lower_function(self, fndef: A.FuncDef) -> None:
        assert isinstance(fndef.ctype, Function)
        self.fn = IRFunc(fndef.name)
        self._labels: set[str] = set()
        self._gotos: set[str] = set()
        self._scopes.append({})
        taken = _address_taken_names(fndef)
        if len(fndef.params) > MAX_REG_ARGS:
            raise LowerError(f"{fndef.name}: more than {MAX_REG_ARGS} parameters")
        for param in fndef.params:
            vreg = self.fn.new_vreg(param.name)
            self.fn.params.append(vreg)
            if self.debug or param.name in taken or not param.ctype.decay().is_scalar:
                slot = self._new_slot(param.name, max(param.ctype.decay().size, 4),
                                      param.ctype.align)
                self._scopes[-1][param.name] = (slot, param.ctype.decay())
                addr = self._slot_addr(slot)
                self.fn.emit(Inst("store", args=(vreg, addr),
                                  width=min(param.ctype.decay().size or 4, 4)))
            else:
                self._scopes[-1][param.name] = (vreg, param.ctype.decay())
        self._lower_stmt(fndef.body, taken)
        undefined = self._gotos - self._labels
        if undefined:
            raise LowerError(f"{fndef.name}: goto to undefined label "
                             f"{min(undefined)!r}")
        if not self.fn.insts or self.fn.insts[-1].op != "ret":
            self.fn.emit(Inst("ret"))
        self.fn.layout_frame()
        self.program.functions[fndef.name] = self.fn
        self._scopes.pop()

    def _new_slot(self, name: str, size: int, align: int = 4) -> FrameSlot:
        self._slot_counter += 1
        return self.fn.add_slot(f"{name}.{self._slot_counter}", size, max(align, 1))

    def _slot_addr(self, slot: FrameSlot) -> Vreg:
        dst = self.fn.new_vreg(f"&{slot.name}")
        self.fn.emit(Inst("frame", dst=dst, symbol=slot.name))
        return dst

    # -- scope helpers --------------------------------------------------------------

    def _bind_local(self, name: str, ctype: CType, taken: set[str]) -> None:
        memory_resident = (
            self.debug or name in taken
            or isinstance(ctype, (Array, Struct))
            or not ctype.is_scalar
        )
        if memory_resident:
            slot = self._new_slot(name, max(ctype.size, 4), ctype.align)
            self._scopes[-1][name] = (slot, ctype)
        else:
            self._scopes[-1][name] = (self.fn.new_vreg(name), ctype)

    def _bind_static_local(self, d: A.Declarator) -> None:
        self._slot_counter += 1
        mangled = f"{self.fn.name}.{d.name}.{self._slot_counter}"
        size = max(d.ctype.size, 1)
        gvar = GlobalVar(mangled, size, max(d.ctype.align, 1))
        gvar.relocs = []  # type: ignore[attr-defined]
        data = bytearray(size)
        if d.init is not None:
            self._encode_init(d.init, d.ctype, data, 0, gvar)
        gvar.init_bytes = bytes(data)
        self.program.globals[mangled] = gvar
        self._scopes[-1][d.name] = gvar

    def _lookup(self, name: str):
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    # -- statements ---------------------------------------------------------------

    def _lower_stmt(self, stmt: A.Node, taken: set[str]) -> None:
        fn = self.fn
        if isinstance(stmt, A.Block):
            self._scopes.append({})
            for item in stmt.items:
                self._lower_stmt(item, taken)
            self._scopes.pop()
        elif isinstance(stmt, A.Decl):
            if stmt.storage == "typedef":
                return
            for d in stmt.declarators:
                if d.ctype.is_function:
                    continue
                if stmt.storage == "static":
                    # Block-scope statics live in static storage under a
                    # mangled name, initialized at link time.
                    self._bind_static_local(d)
                    continue
                self._bind_local(d.name, d.ctype, taken)
                if d.init is not None:
                    self._lower_local_init(d, taken)
        elif isinstance(stmt, A.ExprStmt):
            if stmt.expr is not None:
                self._expr(stmt.expr, want_value=False)
        elif isinstance(stmt, A.If):
            else_l = fn.new_label("else")
            end_l = fn.new_label("endif")
            cond = self._expr(stmt.cond)
            fn.emit(Inst("bz", args=(cond,), symbol=else_l))
            self._lower_stmt(stmt.then, taken)
            if stmt.otherwise is not None:
                fn.emit(Inst("jmp", symbol=end_l))
                fn.emit(Inst("label", symbol=else_l))
                self._lower_stmt(stmt.otherwise, taken)
                fn.emit(Inst("label", symbol=end_l))
            else:
                fn.emit(Inst("label", symbol=else_l))
        elif isinstance(stmt, A.While):
            top = fn.new_label("while")
            end = fn.new_label("wend")
            fn.emit(Inst("label", symbol=top))
            cond = self._expr(stmt.cond)
            fn.emit(Inst("bz", args=(cond,), symbol=end))
            self._break_stack.append(end)
            self._continue_stack.append(top)
            self._lower_stmt(stmt.body, taken)
            self._break_stack.pop()
            self._continue_stack.pop()
            fn.emit(Inst("jmp", symbol=top))
            fn.emit(Inst("label", symbol=end))
        elif isinstance(stmt, A.DoWhile):
            top = fn.new_label("do")
            cont = fn.new_label("docond")
            end = fn.new_label("dend")
            fn.emit(Inst("label", symbol=top))
            self._break_stack.append(end)
            self._continue_stack.append(cont)
            self._lower_stmt(stmt.body, taken)
            self._break_stack.pop()
            self._continue_stack.pop()
            fn.emit(Inst("label", symbol=cont))
            cond = self._expr(stmt.cond)
            fn.emit(Inst("bnz", args=(cond,), symbol=top))
            fn.emit(Inst("label", symbol=end))
        elif isinstance(stmt, A.For):
            self._scopes.append({})
            if stmt.init is not None:
                self._lower_stmt(stmt.init, taken)
            top = fn.new_label("for")
            cont = fn.new_label("fstep")
            end = fn.new_label("fend")
            fn.emit(Inst("label", symbol=top))
            if stmt.cond is not None:
                cond = self._expr(stmt.cond)
                fn.emit(Inst("bz", args=(cond,), symbol=end))
            self._break_stack.append(end)
            self._continue_stack.append(cont)
            self._lower_stmt(stmt.body, taken)
            self._break_stack.pop()
            self._continue_stack.pop()
            fn.emit(Inst("label", symbol=cont))
            if stmt.step is not None:
                self._expr(stmt.step, want_value=False)
            fn.emit(Inst("jmp", symbol=top))
            fn.emit(Inst("label", symbol=end))
            self._scopes.pop()
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                value = self._expr(stmt.value)
                self.fn.emit(Inst("ret", args=(value,)))
            else:
                self.fn.emit(Inst("ret"))
        elif isinstance(stmt, A.Break):
            if not self._break_stack:
                raise LowerError("break outside loop/switch")
            fn.emit(Inst("jmp", symbol=self._break_stack[-1]))
        elif isinstance(stmt, A.Continue):
            if not self._continue_stack:
                raise LowerError("continue outside loop")
            fn.emit(Inst("jmp", symbol=self._continue_stack[-1]))
        elif isinstance(stmt, A.Switch):
            self._lower_switch(stmt, taken)
        elif isinstance(stmt, A.Goto):
            self._gotos.add(stmt.label)
            fn.emit(Inst("jmp", symbol=f".{fn.name}_user_{stmt.label}"))
        elif isinstance(stmt, A.Label):
            if stmt.name in self._labels:
                raise LowerError(f"{fn.name}: label {stmt.name!r} defined "
                                 "twice")
            self._labels.add(stmt.name)
            fn.emit(Inst("label", symbol=f".{fn.name}_user_{stmt.name}"))
            if stmt.body is not None:
                self._lower_stmt(stmt.body, taken)
        elif isinstance(stmt, (A.Case, A.Default)):
            raise LowerError("case/default outside switch")
        else:
            raise LowerError(f"cannot lower statement {type(stmt).__name__}")

    def _lower_local_init(self, d: A.Declarator, taken: set[str]) -> None:
        binding = self._lookup(d.name)
        assert binding is not None
        loc, ctype = binding
        if isinstance(d.init, A.InitList):
            assert isinstance(loc, FrameSlot)
            base = self._slot_addr(loc)
            self._lower_initlist(d.init, ctype, base, 0)
            return
        assert isinstance(d.init, A.Expr)
        if isinstance(ctype, Array) and isinstance(d.init, A.StringLit):
            assert isinstance(loc, FrameSlot)
            base = self._slot_addr(loc)
            for i, ch in enumerate(d.init.value + "\0"):
                v = self._const(ord(ch))
                off = self._add_imm(base, i)
                self.fn.emit(Inst("store", args=(v, off), width=1))
            return
        value = self._expr(d.init)
        if isinstance(loc, Vreg):
            # Register-resident narrow locals must hold normalized values
            # (memory-resident ones are truncated by the store width).
            value = self._coerce(value, d.init.ctype, ctype)
        self._store_to(loc, ctype, value)

    def _lower_initlist(self, init: A.InitList, ctype: CType, base: Vreg,
                        offset: int) -> None:
        if isinstance(ctype, Array):
            for i, item in enumerate(init.items):
                off = offset + i * ctype.element.size
                if isinstance(item, A.InitList):
                    self._lower_initlist(item, ctype.element, base, off)
                else:
                    value = self._expr(item)  # type: ignore[arg-type]
                    addr = self._add_imm(base, off)
                    self.fn.emit(Inst("store", args=(value, addr),
                                      width=min(ctype.element.size, 4)))
        elif isinstance(ctype, Struct):
            for item, fld in zip(init.items, ctype.fields):
                off = offset + fld.offset
                if isinstance(item, A.InitList):
                    self._lower_initlist(item, fld.ctype, base, off)
                else:
                    value = self._expr(item)  # type: ignore[arg-type]
                    addr = self._add_imm(base, off)
                    self.fn.emit(Inst("store", args=(value, addr),
                                      width=min(fld.ctype.size, 4)))
        else:
            raise LowerError("initializer list for scalar local")

    def _lower_switch(self, stmt: A.Switch, taken: set[str]) -> None:
        fn = self.fn
        cond = self._expr(stmt.cond)
        end = fn.new_label("swend")
        cases: list[tuple[int, str]] = []
        default_label: str | None = None
        body_items = stmt.body.items if isinstance(stmt.body, A.Block) else [stmt.body]
        # First pass: assign labels to case arms.
        labeled: list[tuple[str | None, A.Node]] = []
        for item in body_items:
            node: A.Node | None = item
            while isinstance(node, (A.Case, A.Default)):
                label = fn.new_label("case")
                if isinstance(node, A.Case):
                    value = _const_value(node.value)
                    if value is None:
                        raise LowerError("non-constant case label")
                    cases.append((value, label))
                else:
                    default_label = label
                labeled.append((label, node))
                node = node.body
            if node is not None and not isinstance(node, (A.Case, A.Default)):
                labeled.append((None, node))
        for value, label in cases:
            v = self._const(value)
            t = fn.new_vreg("case_cmp")
            fn.emit(Inst("bin", dst=t, subop="eq", args=(cond, v)))
            fn.emit(Inst("bnz", args=(t,), symbol=label))
        fn.emit(Inst("jmp", symbol=default_label or end))
        self._break_stack.append(end)
        for label, node in labeled:
            if label is not None:
                fn.emit(Inst("label", symbol=label))
            if isinstance(node, (A.Case, A.Default)):
                continue
            self._lower_stmt(node, taken)
        self._break_stack.pop()
        fn.emit(Inst("label", symbol=end))

    # -- expressions ---------------------------------------------------------------

    def _const(self, value: int) -> Vreg:
        dst = self.fn.new_vreg()
        self.fn.emit(Inst("const", dst=dst, imm=value & 0xFFFFFFFF))
        return dst

    def _add_imm(self, base: Vreg, imm: int) -> Vreg:
        if imm == 0:
            return base
        off = self._const(imm)
        dst = self.fn.new_vreg()
        self.fn.emit(Inst("bin", dst=dst, subop="add", args=(base, off)))
        return dst

    def _expr(self, e: A.Expr, want_value: bool = True) -> Vreg:
        """Lower an expression; return the vreg holding its value."""
        fn = self.fn
        if isinstance(e, A.IntLit):
            return self._const(e.value)
        if isinstance(e, A.CharLit):
            return self._const(e.value)
        if isinstance(e, A.FloatLit):
            raise LowerError("floating point is not supported by the backend")
        if isinstance(e, A.StringLit):
            symbol = self.program.intern_string(e.value)
            dst = fn.new_vreg("str")
            fn.emit(Inst("la", dst=dst, symbol=symbol))
            return dst
        if isinstance(e, A.Ident):
            return self._load_ident(e)
        if isinstance(e, A.KeepLive):
            return self._lower_keep_live(e)
        if isinstance(e, A.Assign):
            return self._lower_assign(e, want_value)
        if isinstance(e, (A.Unary, A.Postfix)) and e.op in ("++", "--"):
            return self._lower_incdec(e, want_value)
        if isinstance(e, A.Unary):
            return self._lower_unary(e)
        if isinstance(e, A.Binary):
            return self._lower_binary(e)
        if isinstance(e, A.Cond):
            return self._lower_cond(e, want_value)
        if isinstance(e, A.Comma):
            result = self._const(0)
            for i, item in enumerate(e.items):
                last = i == len(e.items) - 1
                value = self._expr(item, want_value=last and want_value)
                if last:
                    result = value
            return result
        if isinstance(e, A.Call):
            return self._lower_call(e)
        if isinstance(e, (A.Index, A.Member)):
            loc = self._lvalue(e)
            return self._load_loc(loc, e.ctype)
        if isinstance(e, A.Cast):
            return self._lower_cast(e)
        if isinstance(e, A.SizeofExpr):
            assert e.operand.ctype is not None
            return self._const(e.operand.ctype.size)
        if isinstance(e, A.SizeofType):
            return self._const(e.of_type.size)
        raise LowerError(f"cannot lower expression {type(e).__name__}")

    # -- identifiers & lvalues ----------------------------------------------------

    def _load_ident(self, e: A.Ident) -> Vreg:
        binding = self._lookup(e.name)
        if binding is None:
            sym = self.symbols.lookup(e.name)
            if sym is not None and sym.ctype.is_function:
                dst = self.fn.new_vreg(e.name)
                self.fn.emit(Inst("la", dst=dst, symbol=e.name))
                return dst
            raise LowerError(f"undefined identifier {e.name!r}")
        if isinstance(binding, GlobalVar):
            return self._load_loc(self._global_loc(binding, e.ctype), e.ctype)
        loc, ctype = binding
        if isinstance(loc, Vreg):
            return loc
        return self._load_loc(self._frame_loc(loc, ctype), e.ctype)

    def _global_loc(self, gvar: GlobalVar, ctype: CType | None) -> MemLoc:
        addr = self.fn.new_vreg(f"&{gvar.name}")
        self.fn.emit(Inst("la", dst=addr, symbol=gvar.name))
        width, signed = _access_shape(ctype)
        return MemLoc("addr", addr=addr, width=width, signed=signed)

    def _frame_loc(self, slot: FrameSlot, ctype: CType | None) -> MemLoc:
        addr = self._slot_addr(slot)
        width, signed = _access_shape(ctype)
        return MemLoc("addr", addr=addr, width=width, signed=signed)

    def _load_loc(self, loc: MemLoc, ctype: CType | None) -> Vreg:
        if ctype is not None and isinstance(ctype, (Array, Struct, Function)):
            # Arrays/structs "load" as their address (decay).
            assert loc.addr is not None
            return loc.addr
        dst = self.fn.new_vreg()
        assert loc.addr is not None
        self.fn.emit(Inst("load", dst=dst, args=(loc.addr,),
                          width=loc.width, signed=loc.signed))
        return dst

    def _lvalue(self, e: A.Expr) -> MemLoc:
        """Lower an lvalue to an addressable location (never a register:
        register lvalues are handled by the assignment fast path)."""
        fn = self.fn
        if isinstance(e, A.Ident):
            binding = self._lookup(e.name)
            if binding is None:
                raise LowerError(f"undefined identifier {e.name!r}")
            if isinstance(binding, GlobalVar):
                return self._global_loc(binding, e.ctype)
            loc, ctype = binding
            if isinstance(loc, Vreg):
                raise LowerError(
                    f"cannot take the address of register variable {e.name!r}")
            return self._frame_loc(loc, e.ctype)
        if isinstance(e, A.Unary) and e.op == "*":
            addr = self._expr(e.operand)
            width, signed = _access_shape(e.ctype)
            return MemLoc("addr", addr=addr, width=width, signed=signed)
        if isinstance(e, A.Index):
            base = self._expr(e.base)
            index = self._expr(e.index)
            base_t = e.base.ctype.decay() if e.base.ctype is not None else None
            if base_t is not None and not base_t.is_pointer:
                base, index = index, base
                base_t = e.index.ctype.decay() if e.index.ctype is not None else None
            assert isinstance(base_t, Pointer)
            scaled = self._scale(index, base_t.target.size)
            addr = fn.new_vreg("elem")
            fn.emit(Inst("bin", dst=addr, subop="add", args=(base, scaled)))
            width, signed = _access_shape(e.ctype)
            return MemLoc("addr", addr=addr, width=width, signed=signed)
        if isinstance(e, A.Member):
            if e.arrow:
                base = self._expr(e.base)
                struct = e.base.ctype.decay().target  # type: ignore[union-attr]
            else:
                base_loc = self._lvalue(e.base)
                assert base_loc.addr is not None
                base = base_loc.addr
                struct = e.base.ctype
            assert isinstance(struct, Struct)
            fld = struct.field(e.name)
            assert fld is not None
            addr = self._add_imm(base, fld.offset)
            width, signed = _access_shape(e.ctype)
            return MemLoc("addr", addr=addr, width=width, signed=signed)
        if isinstance(e, A.KeepLive):
            # KEEP_LIVE of an lvalue is not an lvalue in C; handled as value.
            raise LowerError("KEEP_LIVE result is not an lvalue")
        raise LowerError(f"not an lvalue: {type(e).__name__}")

    def _scale(self, index: Vreg, elem_size: int) -> Vreg:
        if elem_size == 1:
            return index
        size = self._const(elem_size)
        dst = self.fn.new_vreg()
        self.fn.emit(Inst("bin", dst=dst, subop="mul", args=(index, size)))
        return dst

    def _store_to(self, loc, ctype: CType, value: Vreg) -> None:
        if isinstance(loc, Vreg):
            self.fn.emit(Inst("mov", dst=loc, args=(value,)))
            return
        if isinstance(loc, FrameSlot):
            addr = self._slot_addr(loc)
            width, _ = _access_shape(ctype)
            self.fn.emit(Inst("store", args=(value, addr), width=width))
            return
        if isinstance(loc, GlobalVar):
            mem = self._global_loc(loc, ctype)
            assert mem.addr is not None
            self.fn.emit(Inst("store", args=(value, mem.addr), width=mem.width))
            return
        assert isinstance(loc, MemLoc) and loc.addr is not None
        self.fn.emit(Inst("store", args=(value, loc.addr), width=loc.width))

    # -- assignment ------------------------------------------------------------------

    def _lower_assign(self, e: A.Assign, want_value: bool) -> Vreg:
        target_t = e.target.ctype
        if isinstance(target_t, Struct) and e.op == "=":
            return self._lower_struct_copy(e)
        if e.op == "=":
            value = self._expr(e.value)
            value = self._coerce(value, e.value.ctype, target_t)
            binding = self._binding_for_simple(e.target)
            if isinstance(binding, Vreg):
                self.fn.emit(Inst("mov", dst=binding, args=(value,)))
                return binding
            loc = self._lvalue(e.target)
            self.fn.emit(Inst("store", args=(value, loc.addr), width=loc.width))
            return value
        # Compound assignment: evaluate target address once.
        op = _bin_subop(e.op[:-1], _operand_type(e.target),
                        _operand_type(e.value))
        binding = self._binding_for_simple(e.target)
        rhs = self._expr(e.value)
        if target_t is not None and target_t.is_pointer and op in ("add", "sub"):
            rhs = self._scale(rhs, target_t.target.size)  # type: ignore[union-attr]
        if isinstance(binding, Vreg):
            dst = binding
            self.fn.emit(Inst("bin", dst=dst, subop=op, args=(binding, rhs)))
            self._normalize_narrow(binding, target_t)
            return dst
        loc = self._lvalue(e.target)
        old = self._load_loc(loc, e.target.ctype)
        new = self.fn.new_vreg()
        self.fn.emit(Inst("bin", dst=new, subop=op, args=(old, rhs)))
        self.fn.emit(Inst("store", args=(new, loc.addr), width=loc.width))
        return new

    def _binding_for_simple(self, target: A.Expr) -> Vreg | None:
        if isinstance(target, A.Ident):
            binding = self._lookup(target.name)
            if binding is not None and not isinstance(binding, GlobalVar):
                loc, _ = binding
                if isinstance(loc, Vreg):
                    return loc
        return None

    def _lower_struct_copy(self, e: A.Assign) -> Vreg:
        assert isinstance(e.target.ctype, Struct)
        size = e.target.ctype.size
        dst_loc = self._lvalue(e.target)
        src_loc = self._lvalue(e.value)
        assert dst_loc.addr is not None and src_loc.addr is not None
        for off in range(0, size, WORD_SIZE):
            width = min(WORD_SIZE, size - off)
            tmp = self.fn.new_vreg()
            self.fn.emit(Inst("load", dst=tmp,
                              args=(self._add_imm(src_loc.addr, off),), width=width))
            self.fn.emit(Inst("store",
                              args=(tmp, self._add_imm(dst_loc.addr, off)), width=width))
        return dst_loc.addr

    # -- inc/dec (unannotated path) ----------------------------------------------------

    def _lower_incdec(self, e: A.Expr, want_value: bool) -> Vreg:
        assert isinstance(e, (A.Unary, A.Postfix))
        prefix = isinstance(e, A.Unary)
        target = e.operand
        step = 1
        if target.ctype is not None and target.ctype.is_pointer:
            step = target.ctype.target.size  # type: ignore[union-attr]
        delta = step if e.op == "++" else -step
        binding = self._binding_for_simple(target)
        amount = self._const(delta & 0xFFFFFFFF)
        if isinstance(binding, Vreg):
            if prefix or not want_value:
                self.fn.emit(Inst("bin", dst=binding, subop="add",
                                  args=(binding, amount)))
                self._normalize_narrow(binding, target.ctype)
                return binding
            old = self.fn.new_vreg("postfix")
            self.fn.emit(Inst("mov", dst=old, args=(binding,)))
            self.fn.emit(Inst("bin", dst=binding, subop="add",
                              args=(binding, amount)))
            self._normalize_narrow(binding, target.ctype)
            return old
        loc = self._lvalue(target)
        old = self._load_loc(loc, target.ctype)
        new = self.fn.new_vreg()
        self.fn.emit(Inst("bin", dst=new, subop="add", args=(old, amount)))
        self.fn.emit(Inst("store", args=(new, loc.addr), width=loc.width))
        return new if prefix else old

    # -- unary / binary ---------------------------------------------------------------

    def _lower_unary(self, e: A.Unary) -> Vreg:
        fn = self.fn
        if e.op == "*":
            loc = self._lvalue(e)
            return self._load_loc(loc, e.ctype)
        if e.op == "&":
            loc = self._lvalue(e.operand)
            assert loc.addr is not None
            return loc.addr
        value = self._expr(e.operand)
        if e.op == "+":
            return value
        if e.op == "-":
            dst = fn.new_vreg()
            fn.emit(Inst("un", dst=dst, subop="neg", args=(value,)))
            return dst
        if e.op == "~":
            dst = fn.new_vreg()
            fn.emit(Inst("un", dst=dst, subop="bnot", args=(value,)))
            return dst
        if e.op == "!":
            zero = self._const(0)
            dst = fn.new_vreg()
            fn.emit(Inst("bin", dst=dst, subop="eq", args=(value, zero)))
            return dst
        raise LowerError(f"unary operator {e.op!r}")

    def _lower_binary(self, e: A.Binary) -> Vreg:
        fn = self.fn
        if e.op in ("&&", "||"):
            return self._lower_logical(e)
        left_t, right_t = _operand_type(e.left), _operand_type(e.right)
        left = self._expr(e.left)
        right = self._expr(e.right)
        if e.op in ("+", "-"):
            if left_t.is_pointer and right_t.is_pointer:
                diff = fn.new_vreg()
                fn.emit(Inst("bin", dst=diff, subop="sub", args=(left, right)))
                elem = left_t.target.size  # type: ignore[union-attr]
                if elem > 1:
                    size = self._const(elem)
                    out = fn.new_vreg()
                    fn.emit(Inst("bin", dst=out, subop="div", args=(diff, size)))
                    return out
                return diff
            if left_t.is_pointer:
                right = self._scale(right, left_t.target.size)  # type: ignore[union-attr]
            elif right_t.is_pointer:
                left = self._scale(left, right_t.target.size)  # type: ignore[union-attr]
        dst = fn.new_vreg()
        fn.emit(Inst("bin", dst=dst, subop=_bin_subop(e.op, left_t, right_t),
                     args=(left, right)))
        return dst

    def _lower_logical(self, e: A.Binary) -> Vreg:
        fn = self.fn
        result = fn.new_vreg("logic")
        short = fn.new_label("sc")
        end = fn.new_label("scend")
        left = self._expr(e.left)
        zero = self._const(0)
        lbool = fn.new_vreg()
        fn.emit(Inst("bin", dst=lbool, subop="ne", args=(left, zero)))
        fn.emit(Inst("mov", dst=result, args=(lbool,)))
        if e.op == "&&":
            fn.emit(Inst("bz", args=(lbool,), symbol=end))
        else:
            fn.emit(Inst("bnz", args=(lbool,), symbol=end))
        right = self._expr(e.right)
        zero2 = self._const(0)
        rbool = fn.new_vreg()
        fn.emit(Inst("bin", dst=rbool, subop="ne", args=(right, zero2)))
        fn.emit(Inst("mov", dst=result, args=(rbool,)))
        fn.emit(Inst("label", symbol=end))
        return result

    def _lower_cond(self, e: A.Cond, want_value: bool) -> Vreg:
        fn = self.fn
        result = fn.new_vreg("cond")
        else_l = fn.new_label("celse")
        end_l = fn.new_label("cend")
        cond = self._expr(e.cond)
        fn.emit(Inst("bz", args=(cond,), symbol=else_l))
        then = self._expr(e.then, want_value)
        fn.emit(Inst("mov", dst=result, args=(then,)))
        fn.emit(Inst("jmp", symbol=end_l))
        fn.emit(Inst("label", symbol=else_l))
        other = self._expr(e.otherwise, want_value)
        fn.emit(Inst("mov", dst=result, args=(other,)))
        fn.emit(Inst("label", symbol=end_l))
        return result

    # -- calls, casts, KEEP_LIVE ----------------------------------------------------

    def _lower_call(self, e: A.Call) -> Vreg:
        fn = self.fn
        args = [self._expr(a) for a in e.args]
        if len(args) > MAX_REG_ARGS:
            raise LowerError(f"call with more than {MAX_REG_ARGS} arguments")
        dst = fn.new_vreg("ret")
        if isinstance(e.func, A.Ident) and self._lookup(e.func.name) is None:
            fn.emit(Inst("call", dst=dst, symbol=e.func.name, args=tuple(args)))
        else:
            target = self._expr(e.func)
            fn.emit(Inst("callr", dst=dst, args=(target, *args)))
        return dst

    def _lower_cast(self, e: A.Cast) -> Vreg:
        value = self._expr(e.operand)
        return self._coerce(value, e.operand.ctype, e.to_type)

    def _normalize_narrow(self, binding: Vreg, ctype: CType | None) -> None:
        """Re-normalize a register-resident char/short after in-place
        arithmetic (wraparound semantics of the narrow type)."""
        subop = _narrow_subop(ctype)
        if subop is not None:
            self.fn.emit(Inst("un", dst=binding, subop=subop, args=(binding,)))

    def _coerce(self, value: Vreg, src: CType | None, dst: CType | None) -> Vreg:
        """Integer narrowing/sign-extension on explicit conversions."""
        subop = _narrow_subop(dst)
        if subop is None or src is None:
            return value
        out = self.fn.new_vreg()
        self.fn.emit(Inst("un", dst=out, subop=subop, args=(value,)))
        return out

    def _lower_keep_live(self, e: A.KeepLive) -> Vreg:
        value = self._expr(e.value)
        base = self._expr(e.base)
        dst = self.fn.new_vreg("kl")
        if e.checked:
            self.fn.emit(Inst("call", dst=dst, symbol="GC_same_obj",
                              args=(value, base)))
        elif self.naive_keep_live:
            # The paper's strawman: an opaque identity function call.
            self.fn.emit(Inst("call", dst=dst, symbol="KEEP_LIVE",
                              args=(value, base)))
        else:
            self.fn.emit(Inst("keep", dst=dst, args=(value, base)))
        return dst


def _access_shape(ctype: CType | None) -> tuple[int, bool]:
    if ctype is None:
        return 4, True
    decayed = ctype
    if isinstance(decayed, IntType):
        return decayed.size, decayed.signed
    return 4, True


# C binary operators and their IR subops; _bin_subop picks the
# unsigned variants.
_BIN_MAP = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
            "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
            "==": "eq", "!=": "ne", "<": "lt", "<=": "le",
            ">": "gt", ">=": "ge"}


def _bin_subop(op: str, left_t: CType, right_t: CType) -> str:
    """The IR subop of C operator ``op`` on operands of these types: a
    compare with a pointer operand, or whose operands convert to
    ``unsigned int``, compares unsigned; ``/`` and ``%`` divide unsigned
    when the operands convert to ``unsigned int``; and ``>>`` of an
    unsigned left operand shifts logically.  An unsigned char or short
    promotes to ``int``."""
    subop = _BIN_MAP[op]
    if op in ("/", "%"):
        if _is_uint(left_t) or _is_uint(right_t):
            return subop + "u"
    elif op in ("<", "<=", ">", ">="):
        if (left_t.is_pointer or right_t.is_pointer
                or _is_uint(left_t) or _is_uint(right_t)):
            return "u" + subop
    elif op == ">>" and isinstance(left_t, IntType) and not left_t.signed:
        return "shru"
    return subop


def _is_uint(t: CType) -> bool:
    return isinstance(t, IntType) and not t.signed and t.size == 4


def _operand_type(e: A.Expr) -> CType:
    return e.ctype.decay() if e.ctype is not None else INT


def _narrow_subop(ctype: CType | None) -> str | None:
    """The extension that keeps a char or short in range, if any."""
    if isinstance(ctype, IntType) and ctype.size < 4:
        return ("sext" if ctype.signed else "zext") + str(ctype.size * 8)
    return None


def _const_value(e: A.Expr) -> int | None:
    """Fold a global initializer or ``case`` label to the masked 32-bit
    value the same expression computes in a function body (the machine's
    operator table, with the subops lowering emits); None if it is not
    a supported constant, such as pointer arithmetic or a zero divisor."""
    if isinstance(e, (A.IntLit, A.CharLit)):
        return e.value & 0xFFFFFFFF
    if isinstance(e, A.Unary) and e.op == "-":
        inner = _const_value(e.operand)
        return None if inner is None else eval_un("neg", inner)
    if isinstance(e, A.Cast):
        inner = _const_value(e.operand)
        subop = _narrow_subop(e.to_type)
        return inner if inner is None or subop is None else eval_un(subop, inner)
    if isinstance(e, A.SizeofType):
        return e.of_type.size
    if isinstance(e, A.Binary) and e.op in _BIN_MAP:
        left_t, right_t = _operand_type(e.left), _operand_type(e.right)
        a, b = _const_value(e.left), _const_value(e.right)
        if a is None or b is None or left_t.is_pointer or right_t.is_pointer:
            return None
        return eval_bin(_bin_subop(e.op, left_t, right_t), a, b)
    return None


def _address_taken_names(fndef: A.FuncDef) -> set[str]:
    """Names of locals/params whose address is taken anywhere in the body."""
    taken: set[str] = set()
    for node in A.walk(fndef.body):
        if isinstance(node, A.Unary) and node.op == "&":
            root = node.operand
            while isinstance(root, (A.Member, A.Index)):
                if isinstance(root, A.Member) and root.arrow:
                    root = None  # address is inside the heap, not a local
                    break
                if isinstance(root, A.Index):
                    base_t = root.base.ctype
                    if base_t is not None and base_t.is_pointer:
                        root = None  # &p[i] reads p's value, not its address
                        break
                root = root.base
            if isinstance(root, A.Ident):
                taken.add(root.name)
    return taken


def lower_unit(unit: A.TranslationUnit, symbols: SymbolTable,
               debug: bool = False, naive_keep_live: bool = False) -> IRProgram:
    """Lower a typechecked translation unit to IR."""
    return Lowerer(unit, symbols, debug, naive_keep_live).lower()
