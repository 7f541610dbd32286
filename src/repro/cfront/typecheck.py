"""Type annotation of parsed translation units.

Fills in ``ctype`` and ``is_lvalue`` on every :class:`repro.cfront.cast.Expr`.
The annotator (``repro.core``) depends on these to decide which
expressions are pointer-valued, and the compiler depends on them for
address arithmetic scaling.

The checker is deliberately permissive where ANSI C is lenient in
practice (implicit function declarations get ``int()``, any pointer
converts to any other pointer with at most a diagnostic) — the paper's
tool partially type-checks, and its interesting diagnostics live in
:mod:`repro.core.sourcecheck`.
"""

from __future__ import annotations

from . import cast as A
from .ctypes import (
    Array, CHAR, CHAR_PTR, CType, DOUBLE, Function, INT, IntType, Pointer,
    Struct, UINT, ULONG, VOID, VOID_PTR, FloatType,
)
from .errors import TypeError_
from .symbols import Symbol, SymbolTable


# Known library prototypes, pre-declared like a system header would.
# (The paper's tool sees gc.h and the C library headers; without these,
# allocator results would type as int and every cast of them would be
# flagged as an int-to-pointer conversion.)
_LIBRARY_PROTOTYPES: dict[str, Function] = {
    "GC_malloc": Function(VOID_PTR, (UINT,)),
    "GC_malloc_atomic": Function(VOID_PTR, (UINT,)),
    "GC_realloc": Function(VOID_PTR, (VOID_PTR, UINT)),
    "GC_base": Function(VOID_PTR, (VOID_PTR,)),
    "GC_same_obj": Function(VOID_PTR, (VOID_PTR, VOID_PTR)),
    "malloc": Function(VOID_PTR, (UINT,)),
    "calloc": Function(VOID_PTR, (UINT, UINT)),
    "realloc": Function(VOID_PTR, (VOID_PTR, UINT)),
    "strcpy": Function(CHAR_PTR, (CHAR_PTR, CHAR_PTR)),
    "strcat": Function(CHAR_PTR, (CHAR_PTR, CHAR_PTR)),
    "strchr": Function(CHAR_PTR, (CHAR_PTR, INT)),
    "memcpy": Function(VOID_PTR, (VOID_PTR, VOID_PTR, UINT)),
    "memmove": Function(VOID_PTR, (VOID_PTR, VOID_PTR, UINT)),
    "memset": Function(VOID_PTR, (VOID_PTR, INT, UINT)),
}


class TypeChecker:
    def __init__(self, unit: A.TranslationUnit):
        self.unit = unit
        self.source = unit.source
        self.symbols = SymbolTable()
        self.current_function: A.FuncDef | None = None
        for name, proto in _LIBRARY_PROTOTYPES.items():
            self.symbols.define(Symbol(name, proto, "func"))

    # -- entry --------------------------------------------------------------

    def check(self) -> SymbolTable:
        for item in self.unit.items:
            if isinstance(item, A.Decl):
                self._check_decl(item, is_global=True)
            elif isinstance(item, A.FuncDef):
                self._check_funcdef(item)
        return self.symbols

    # -- declarations ---------------------------------------------------------

    def _check_decl(self, decl: A.Decl, is_global: bool) -> None:
        if decl.storage == "typedef":
            return
        for d in decl.declarators:
            kind = "global" if is_global else "var"
            if d.ctype.is_function:
                kind = "func"
            self.symbols.define(Symbol(d.name, d.ctype, kind, decl.storage))
            if d.init is not None:
                self._check_init(d.init, d.ctype)

    def _check_init(self, init: A.Node, target: CType) -> None:
        if isinstance(init, A.InitList):
            if isinstance(target, Array):
                for item in init.items:
                    self._check_init(item, target.element)
            elif isinstance(target, Struct):
                for item, fld in zip(init.items, target.fields):
                    self._check_init(item, fld.ctype)
            else:
                for item in init.items:
                    self._check_init(item, target)
            return
        assert isinstance(init, A.Expr)
        self.expr(init)

    def _check_funcdef(self, fn: A.FuncDef) -> None:
        assert isinstance(fn.ctype, Function)
        self.symbols.define(Symbol(fn.name, fn.ctype, "func", fn.storage))
        self.symbols.push()
        for param in fn.params:
            self.symbols.define(Symbol(param.name, param.ctype, "param"))
        self.current_function = fn
        self._stmt(fn.body)
        self.current_function = None
        self.symbols.pop()

    # -- statements -------------------------------------------------------------

    def _stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Block):
            self.symbols.push()
            for item in stmt.items:
                if isinstance(item, A.Decl):
                    self._check_decl(item, is_global=False)
                else:
                    self._stmt(item)  # type: ignore[arg-type]
            self.symbols.pop()
        elif isinstance(stmt, A.ExprStmt):
            if stmt.expr is not None:
                self.expr(stmt.expr)
        elif isinstance(stmt, A.If):
            self.expr(stmt.cond)
            self._stmt(stmt.then)
            if stmt.otherwise is not None:
                self._stmt(stmt.otherwise)
        elif isinstance(stmt, A.While):
            self.expr(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, A.DoWhile):
            self._stmt(stmt.body)
            self.expr(stmt.cond)
        elif isinstance(stmt, A.For):
            self.symbols.push()
            if isinstance(stmt.init, A.Decl):
                self._check_decl(stmt.init, is_global=False)
            elif isinstance(stmt.init, A.ExprStmt) and stmt.init.expr is not None:
                self.expr(stmt.init.expr)
            if stmt.cond is not None:
                self.expr(stmt.cond)
            if stmt.step is not None:
                self.expr(stmt.step)
            self._stmt(stmt.body)
            self.symbols.pop()
        elif isinstance(stmt, A.Return):
            if stmt.value is not None:
                self.expr(stmt.value)
        elif isinstance(stmt, A.Switch):
            self.expr(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, (A.Case, A.Default)):
            if isinstance(stmt, A.Case):
                self.expr(stmt.value)
            if stmt.body is not None:
                self._stmt(stmt.body)
        elif isinstance(stmt, A.Label):
            if stmt.body is not None:
                self._stmt(stmt.body)
        elif isinstance(stmt, (A.Break, A.Continue, A.Goto, A.Decl)):
            if isinstance(stmt, A.Decl):
                self._check_decl(stmt, is_global=False)
        else:
            raise TypeError_(f"unhandled statement {type(stmt).__name__}",
                             stmt.span.start, self.source)

    # -- expressions ------------------------------------------------------------

    def expr(self, e: A.Expr) -> CType:
        """Annotate ``e`` (recursively) and return its type."""
        ctype = self._expr(e)
        e.ctype = ctype
        return ctype

    def _rvalue(self, e: A.Expr) -> CType:
        """Type of ``e`` as used in a value context (arrays decay)."""
        return self.expr(e).decay()

    def _expr(self, e: A.Expr) -> CType:
        if isinstance(e, A.IntLit):
            # C89 with a 32-bit long: a u suffix, or a value too big for
            # int, makes the literal unsigned int.
            return UINT if e.unsigned or e.value > 0x7FFFFFFF else INT
        if isinstance(e, A.FloatLit):
            return DOUBLE
        if isinstance(e, A.CharLit):
            return INT  # C: character constants have type int
        if isinstance(e, A.StringLit):
            e.is_lvalue = True
            return Array(CHAR, len(e.value) + 1)
        if isinstance(e, A.Ident):
            return self._ident(e)
        if isinstance(e, A.Unary):
            return self._unary(e)
        if isinstance(e, A.Postfix):
            t = self._rvalue(e.operand)
            self._require_lvalue(e.operand)
            return t
        if isinstance(e, A.Binary):
            return self._binary(e)
        if isinstance(e, A.Assign):
            return self._assign(e)
        if isinstance(e, A.Cond):
            self._rvalue(e.cond)
            then = self._rvalue(e.then)
            other = self._rvalue(e.otherwise)
            if then.is_pointer:
                return then
            if other.is_pointer:
                return other
            return self._usual(then, other)
        if isinstance(e, A.Comma):
            result: CType = VOID
            for item in e.items:
                result = self._rvalue(item)
            return result
        if isinstance(e, A.Call):
            return self._call(e)
        if isinstance(e, A.Index):
            return self._index(e)
        if isinstance(e, A.Member):
            return self._member(e)
        if isinstance(e, A.Cast):
            self._rvalue(e.operand)
            return e.to_type
        if isinstance(e, A.SizeofExpr):
            self.expr(e.operand)
            return ULONG
        if isinstance(e, A.SizeofType):
            return ULONG
        if isinstance(e, A.KeepLive):
            value = self._rvalue(e.value)
            if e.base is not None:
                self._rvalue(e.base)
            return value
        raise TypeError_(f"unhandled expression {type(e).__name__}",
                         e.span.start, self.source)

    def _ident(self, e: A.Ident) -> CType:
        sym = self.symbols.lookup(e.name)
        if sym is None:
            # C89 implicit declaration: assume int(...) and remember it.
            fn = Function(INT, (), varargs=True)
            self.symbols.define_global(Symbol(e.name, fn, "func"))
            return fn
        if not sym.ctype.is_function:
            e.is_lvalue = True
        return sym.ctype

    def _unary(self, e: A.Unary) -> CType:
        op = e.op
        if op == "*":
            t = self._rvalue(e.operand)
            if not t.is_pointer:
                raise TypeError_(f"cannot dereference non-pointer type {t}",
                                 e.span.start, self.source)
            e.is_lvalue = True
            return t.target  # type: ignore[union-attr]
        if op == "&":
            t = self.expr(e.operand)
            self._require_lvalue(e.operand)
            return Pointer(t if not isinstance(t, Array) else t)
        if op in ("++", "--"):
            t = self._rvalue(e.operand)
            self._require_lvalue(e.operand)
            return t
        if op == "!":
            self._rvalue(e.operand)
            return INT
        if op == "~":
            return self._promote(self._rvalue(e.operand))
        # unary +/-
        return self._promote(self._rvalue(e.operand))

    def _binary(self, e: A.Binary) -> CType:
        op = e.op
        left = self._rvalue(e.left)
        right = self._rvalue(e.right)
        if op in ("&&", "||", "==", "!=", "<", ">", "<=", ">="):
            return INT
        if op == "+":
            if left.is_pointer and right.is_integer:
                return left
            if right.is_pointer and left.is_integer:
                return right
            return self._usual(left, right)
        if op == "-":
            if left.is_pointer and right.is_pointer:
                return INT  # ptrdiff_t
            if left.is_pointer and right.is_integer:
                return left
            return self._usual(left, right)
        if op in ("<<", ">>"):
            return self._promote(left)
        return self._usual(left, right)

    def _assign(self, e: A.Assign) -> CType:
        target = self.expr(e.target)
        self._require_lvalue(e.target)
        self._rvalue(e.value)
        return target.decay() if isinstance(target, Array) else target

    def _call(self, e: A.Call) -> CType:
        fn_type = self._rvalue(e.func)
        for arg in e.args:
            self._rvalue(arg)
        if isinstance(fn_type, Pointer) and fn_type.target.is_function:
            fn_type = fn_type.target
        if isinstance(fn_type, Function):
            return fn_type.ret
        raise TypeError_(f"called object has non-function type {fn_type}",
                         e.span.start, self.source)

    def _index(self, e: A.Index) -> CType:
        base = self._rvalue(e.base)
        index = self._rvalue(e.index)
        if base.is_pointer and index.is_integer:
            e.is_lvalue = True
            return base.target  # type: ignore[union-attr]
        if index.is_pointer and base.is_integer:  # the i[p] spelling
            e.is_lvalue = True
            return index.target  # type: ignore[union-attr]
        raise TypeError_(f"cannot index {base} with {index}", e.span.start, self.source)

    def _member(self, e: A.Member) -> CType:
        base = self.expr(e.base)
        if e.arrow:
            base = base.decay()
            if not base.is_pointer:
                raise TypeError_(f"-> applied to non-pointer {base}",
                                 e.span.start, self.source)
            struct = base.target  # type: ignore[union-attr]
        else:
            struct = base
        if not isinstance(struct, Struct):
            raise TypeError_(f"member access on non-struct {struct}",
                             e.span.start, self.source)
        fld = struct.field(e.name)
        if fld is None:
            raise TypeError_(f"no field {e.name!r} in {struct}", e.span.start, self.source)
        e.is_lvalue = True
        return fld.ctype

    # -- helpers -----------------------------------------------------------------

    def _require_lvalue(self, e: A.Expr) -> None:
        if not e.is_lvalue:
            raise TypeError_("expression is not an lvalue", e.span.start, self.source)

    @staticmethod
    def _promote(t: CType) -> CType:
        if isinstance(t, IntType) and t.size < INT.size:
            return INT
        return t

    def _usual(self, left: CType, right: CType) -> CType:
        """Usual arithmetic conversions, simplified for ILP32."""
        if isinstance(left, FloatType) or isinstance(right, FloatType):
            return DOUBLE
        left, right = self._promote(left), self._promote(right)
        if isinstance(left, IntType) and isinstance(right, IntType):
            if not left.signed or not right.signed:
                return UINT
            return left
        # Pointers in arithmetic contexts slip through to here only for
        # questionable code; treat the result as the pointer type.
        if left.is_pointer:
            return left
        return right


def typecheck(unit: A.TranslationUnit) -> SymbolTable:
    """Annotate every expression in ``unit``; return the symbol table."""
    from ..obs import runtime as obs_runtime
    tracer = obs_runtime.get_tracer()
    if not tracer.enabled:
        return TypeChecker(unit).check()
    with tracer.span("cfront.typecheck", items=len(unit.items)):
        return TypeChecker(unit).check()
