"""KEEP_LIVE annotation — the paper's central algorithm.

"Our algorithm is now simple to state: replace every pointer-valued
expression *e* that occurs as the right side of an assignment, or as the
argument of a dereferencing operation, or as a function argument or
result, by the expression KEEP_LIVE(e, BASE(e)).  C increment and
decrement operators are treated as assignments."

Implementation notes
--------------------
* Following the paper, dereferences are first normalized so they occur
  only as ``*e`` with the ``[]``/``->`` operators inside an ``&``
  operator: ``e1[e2].x`` becomes ``*&(e1[e2].x)`` and so on.  A cleanup
  pass folds ``*&e`` back to ``e`` wherever no KEEP_LIVE was inserted,
  so un-annotated code round-trips unchanged.
* Optimization (1) (copy suppression), (2) (specialized ++/--
  expansions) and (3) (slowly-varying base heuristic) from the paper's
  "Optimizations" section are all implemented and individually
  switchable, as is the paper's point (4) (collections only at call
  sites) via ``call_safe_points``.
* In checked (debugging) mode the same insertion points receive real
  calls: ``GC_same_obj(e, base)`` and ``GC_pre_incr``/``GC_post_incr``
  for increments, exactly as in the paper's "Debugging Applications"
  section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfront import cast as A
from ..cfront.ctypes import CType, INT, Pointer, VOID, VOID_PTR
from ..cfront.errors import SourceSpan
from ..cfront.symbols import SymbolTable
from ..cfront.typecheck import typecheck
from .base import base_of, baseaddr_of, is_generating, is_plain_copy
from .simplify import simplify_unit

SAFE = "safe"
CHECKED = "checked"


@dataclass
class AnnotateOptions:
    """Knobs for the annotation pass (paper's optimizations 1-4)."""

    mode: str = SAFE  # 'safe' (KEEP_LIVE barrier) | 'checked' (GC_same_obj)
    suppress_copies: bool = True  # optimization (1)
    expand_incdec: bool = True  # optimization (2)
    base_heuristic: bool = True  # optimization (3)
    call_safe_points: bool = False  # optimization (4): GC only at calls
    # Paper's Extensions section: assert that "the client program stores
    # only pointers to the base of an object in the heap or in statically
    # allocated variables" by inserting dynamic GC_check_base calls.
    check_base_stores: bool = False


@dataclass
class AnnotateStats:
    keep_lives: int = 0
    suppressed_copies: int = 0
    suppressed_nil_base: int = 0
    suppressed_no_call: int = 0
    incdec_expansions: int = 0
    heuristic_replacements: int = 0
    temps_introduced: int = 0
    base_store_checks: int = 0


@dataclass
class Replacement:
    """One annotation site: the original span and the node now there."""

    span: SourceSpan
    node: A.Node


@dataclass
class AnnotationResult:
    unit: A.TranslationUnit
    stats: AnnotateStats
    #: the annotated unit's symbols, from the typecheck that types the
    #: nodes annotation added
    symbols: SymbolTable
    replacements: list[Replacement] = field(default_factory=list)
    temp_decls: dict[str, list[tuple[str, CType]]] = field(default_factory=dict)


_GC_BUILTIN_DECLS = {
    "GC_same_obj": (VOID_PTR, (VOID_PTR, VOID_PTR)),
    "GC_pre_incr": (VOID_PTR, (Pointer(VOID_PTR), INT)),
    "GC_post_incr": (VOID_PTR, (Pointer(VOID_PTR), INT)),
    "GC_check_base": (VOID_PTR, (VOID_PTR,)),
}


class Annotator:
    def __init__(self, unit: A.TranslationUnit, options: AnnotateOptions | None = None):
        self.unit = unit
        self.options = options or AnnotateOptions()
        self.stats = AnnotateStats()
        self.replacements: list[Replacement] = []
        self.temp_decls: dict[str, list[tuple[str, CType]]] = {}
        self._temps: list[tuple[str, CType]] = []
        self._temp_n = 0
        self._heuristic_map: dict[str, str] = {}
        self._local_names: set[str] = set()
        self._stmt_has_call = True  # refined per statement when opt (4) is on

    # -- public ------------------------------------------------------------

    def run(self) -> AnnotationResult:
        for item in self.unit.items:
            if isinstance(item, A.FuncDef):
                self._annotate_function(item)
        if self.options.mode == CHECKED or self.options.check_base_stores:
            self._inject_builtin_decls()
        simplify_unit(self.unit)  # fold the *&e detours that stayed bare
        symbols = typecheck(self.unit)  # type new nodes (KeepLive, temps, calls)
        return AnnotationResult(self.unit, self.stats, symbols,
                                self.replacements, self.temp_decls)

    # -- per function ---------------------------------------------------------

    def _annotate_function(self, fn: A.FuncDef) -> None:
        self._temps = []
        self._local_names = {p.name for p in fn.params}
        for node in A.walk(fn.body):
            if isinstance(node, A.Decl):
                self._local_names.update(d.name for d in node.declarators)
        self._heuristic_map = (
            _slowly_varying_bases(fn) if self.options.base_heuristic else {}
        )
        fn.body = self._stmt(fn.body)  # type: ignore[assignment]
        if self._temps:
            decls = [
                A.Decl(declarators=[A.Declarator(name=name, ctype=ctype)],
                       base_type=ctype)
                for name, ctype in self._temps
            ]
            fn.body.items[:0] = decls
            self.temp_decls[fn.name] = list(self._temps)
            self.stats.temps_introduced += len(self._temps)

    def _fresh_temp(self, ctype: CType) -> A.Ident:
        self._temp_n += 1
        name = f"__gcs_tmp{self._temp_n}"
        self._temps.append((name, ctype))
        return A.Ident(name=name, ctype=ctype, is_lvalue=True)

    # -- statements --------------------------------------------------------------

    def _stmt(self, s: A.Node) -> A.Node:
        if isinstance(s, A.Block):
            s.items = [self._stmt(item) for item in s.items]
            return s
        if isinstance(s, A.ExprStmt):
            if s.expr is not None:
                self._enter_stmt(s.expr)
                s.expr = self._tx(s.expr, value_used=False)
            return s
        if isinstance(s, A.Decl):
            for d in s.declarators:
                if isinstance(d.init, A.Expr):
                    self._enter_stmt(d.init)
                    init = self._tx(d.init)
                    if d.ctype.is_pointer:
                        init = self._wrap(init)
                    d.init = init
            return s
        if isinstance(s, A.If):
            self._enter_stmt(s.cond)
            s.cond = self._tx(s.cond)
            s.then = self._stmt(s.then)  # type: ignore[assignment]
            if s.otherwise is not None:
                s.otherwise = self._stmt(s.otherwise)  # type: ignore[assignment]
            return s
        if isinstance(s, A.While):
            self._enter_stmt(s.cond)
            s.cond = self._tx(s.cond)
            s.body = self._stmt(s.body)  # type: ignore[assignment]
            return s
        if isinstance(s, A.DoWhile):
            s.body = self._stmt(s.body)  # type: ignore[assignment]
            self._enter_stmt(s.cond)
            s.cond = self._tx(s.cond)
            return s
        if isinstance(s, A.For):
            if s.init is not None:
                s.init = self._stmt(s.init)
            if s.cond is not None:
                self._enter_stmt(s.cond)
                s.cond = self._tx(s.cond)
            if s.step is not None:
                self._enter_stmt(s.step)
                s.step = self._tx(s.step, value_used=False)
            s.body = self._stmt(s.body)  # type: ignore[assignment]
            return s
        if isinstance(s, A.Return):
            if s.value is not None:
                self._enter_stmt(s.value)
                value = self._tx(s.value)
                if _is_pointer_valued(value):
                    value = self._wrap(value)
                s.value = value
            return s
        if isinstance(s, A.Switch):
            self._enter_stmt(s.cond)
            s.cond = self._tx(s.cond)
            s.body = self._stmt(s.body)  # type: ignore[assignment]
            return s
        if isinstance(s, (A.Case, A.Default, A.Label)):
            if s.body is not None:
                s.body = self._stmt(s.body)  # type: ignore[assignment]
            return s
        return s  # Break, Continue, Goto, empty

    def _enter_stmt(self, e: A.Expr) -> None:
        """Optimization (4): when collections happen only at call sites, a
        statement containing no call cannot lose a pointer to the GC."""
        if not self.options.call_safe_points:
            self._stmt_has_call = True
            return
        self._stmt_has_call = any(isinstance(n, A.Call) for n in A.walk(e))

    # -- expressions ------------------------------------------------------------

    def _tx(self, e: A.Expr, value_used: bool = True) -> A.Expr:
        """Transform ``e`` bottom-up, inserting KEEP_LIVE at the paper's
        insertion points."""
        if isinstance(e, (A.IntLit, A.FloatLit, A.CharLit, A.StringLit, A.Ident)):
            return e
        if isinstance(e, A.Assign):
            return self._tx_assign(e)
        if isinstance(e, (A.Unary, A.Postfix)) and e.op in ("++", "--"):
            return self._tx_incdec(e, value_used)
        if isinstance(e, A.Unary) and e.op == "*":
            e.operand = self._wrap(self._tx(e.operand))
            return e
        if isinstance(e, A.Unary) and e.op == "&":
            e.operand = self._tx_inside_addr(e.operand)
            return e
        if isinstance(e, A.Unary):
            e.operand = self._tx(e.operand)
            return e
        if isinstance(e, A.Binary):
            e.left = self._tx(e.left)
            e.right = self._tx(e.right)
            if e.op in ("+", "-"):
                # Pointer arithmetic on a generating expression needs a
                # named base (paper's temporary-introduction assumption).
                if e.left.ctype is not None and e.left.ctype.decay().is_pointer:
                    e.left = self._materialize(e.left)
                elif e.right.ctype is not None and e.right.ctype.decay().is_pointer:
                    e.right = self._materialize(e.right)
            return e
        if isinstance(e, A.Cond):
            e.cond = self._tx(e.cond)
            e.then = self._tx(e.then, value_used)
            e.otherwise = self._tx(e.otherwise, value_used)
            return e
        if isinstance(e, A.Comma):
            e.items = [
                self._tx(item, value_used=(value_used and i == len(e.items) - 1))
                for i, item in enumerate(e.items)
            ]
            return e
        if isinstance(e, A.Call):
            e.func = self._tx(e.func)
            new_args = []
            for arg in e.args:
                arg = self._tx(arg)
                if _is_pointer_valued(arg):
                    arg = self._wrap(arg)
                new_args.append(arg)
            e.args = new_args
            return e
        if isinstance(e, (A.Index, A.Member)):
            if e.is_lvalue and _chain_needs_normalizing(e):
                # Load context: e1[e2] -> *&(e1[e2]) so the address
                # computation becomes the dereference argument.
                addr = A.Unary(op="&", operand=self._tx_inside_addr(e), span=e.span)
                addr.ctype = Pointer(e.ctype or INT)
                wrapped = self._wrap(addr)
                deref = A.Unary(op="*", operand=wrapped, span=e.span)
                deref.ctype = e.ctype
                deref.is_lvalue = True
                if wrapped is not addr:  # splice must include the '*'
                    self._record(e.span, deref)
                return deref
            return self._tx_inside_addr(e)
        if isinstance(e, A.Cast):
            e.operand = self._tx(e.operand, value_used)
            return e
        if isinstance(e, (A.SizeofExpr, A.SizeofType)):
            return e
        if isinstance(e, A.KeepLive):
            return e
        return e

    def _materialize(self, e: A.Expr) -> A.Expr:
        """Give a pointer-valued *generating* expression a name, per the
        paper's normalization ("we assume that temporaries have already
        been introduced, so that we can name the results").  The temp
        then serves as a BASE for subsequent address arithmetic."""
        if not (is_generating(e) and _is_pointer_valued(e)):
            return e
        assert e.ctype is not None
        tmp = self._fresh_temp(e.ctype.decay())
        seq = A.Comma(items=[_assign(_clone_ident(tmp), e), _clone_ident(tmp)],
                      span=e.span)
        seq.ctype = tmp.ctype
        self._record(e.span, seq)
        return seq

    def _tx_inside_addr(self, e: A.Expr) -> A.Expr:
        """Transform an lvalue chain that sits under an ``&`` (so its own
        address computation is *not* a dereference here)."""
        if isinstance(e, A.Index):
            base = self._tx(e.base)
            if base.ctype is not None and base.ctype.decay().is_pointer:
                base = self._materialize(base)
            e.base = base
            e.index = self._tx(e.index)
            return e
        if isinstance(e, A.Member):
            if e.arrow:
                e.base = self._materialize(self._tx(e.base))
            else:
                e.base = self._tx_inside_addr(e.base)
            return e
        if isinstance(e, A.Unary) and e.op == "*":
            # &*e: the address is just e; no dereference happens.
            e.operand = self._tx(e.operand)
            return e
        return self._tx(e)

    def _tx_assign(self, e: A.Assign) -> A.Expr:
        target_is_ptr = e.target.ctype is not None and e.target.ctype.is_pointer
        if e.op in ("+=", "-=") and target_is_ptr:
            return self._tx_compound_pointer_assign(e)
        # Plain or non-pointer compound assignment.
        e.target = self._tx_store_target(e.target)
        value = self._tx(e.value)
        if e.op == "=" and _is_pointer_valued(value):
            value = self._wrap(value)
            if (self.options.check_base_stores
                    and self._is_heap_or_static_store(e.target)):
                value = self._wrap_check_base(value)
        e.value = value
        return e

    def _is_heap_or_static_store(self, target: A.Expr) -> bool:
        """Classify a (normalized) store destination for the Extensions
        mode: heap (any dereference) or statically allocated (a global
        variable / dot-chain rooted in one) — stack and register locals
        may legitimately hold interior pointers."""
        root = target
        while isinstance(root, (A.Member, A.Index)):
            if isinstance(root, A.Member) and root.arrow:
                return True
            root = root.base
        if isinstance(root, A.Unary) and root.op == "*":
            return True
        if isinstance(root, A.Ident):
            return root.name not in self._local_names
        return False

    def _wrap_check_base(self, value: A.Expr) -> A.Expr:
        """value -> (T)GC_check_base((void *)(value))."""
        call = A.Call(func=A.Ident(name="GC_check_base"), args=[value],
                      span=value.span)
        call.ctype = VOID_PTR
        if value.ctype is not None and value.ctype.decay().is_pointer:
            cast = A.Cast(to_type=value.ctype.decay(), operand=call,
                          span=value.span)
            cast.ctype = value.ctype.decay()
            self._record(value.span, cast)
            self.stats.base_store_checks += 1
            return cast
        self.stats.base_store_checks += 1
        self._record(value.span, call)
        return call

    def _tx_store_target(self, target: A.Expr) -> A.Expr:
        """Normalize a store destination: heap lvalues become ``*addr``
        with the address wrapped (the address computation is the
        dereference argument of the store)."""
        if isinstance(target, A.Ident):
            return target
        if isinstance(target, (A.Index, A.Member)) and not _chain_needs_normalizing(target):
            return self._tx_inside_addr(target)
        if isinstance(target, A.Unary) and target.op == "*":
            target.operand = self._wrap(self._tx(target.operand))
            return target
        if isinstance(target, (A.Index, A.Member)):
            addr = A.Unary(op="&", operand=self._tx_inside_addr(target), span=target.span)
            addr.ctype = Pointer(target.ctype or INT)
            wrapped = self._wrap(addr)
            deref = A.Unary(op="*", operand=wrapped, span=target.span)
            deref.ctype = target.ctype
            deref.is_lvalue = True
            if wrapped is not addr:
                self._record(target.span, deref)
            return deref
        return self._tx(target)

    def _tx_compound_pointer_assign(self, e: A.Assign) -> A.Expr:
        """``p += n`` is pointer arithmetic plus an assignment:
        rewritten to ``p = KEEP_LIVE(p + n, BASE(p))`` (safe mode) or a
        ``GC_same_obj`` call (checked mode)."""
        op = "+" if e.op == "+=" else "-"
        value = self._tx(e.value)
        if isinstance(e.target, A.Ident):
            target = e.target
            rhs = A.Binary(op=op, left=_clone_ident(target), right=value, span=e.span)
            rhs.ctype = target.ctype
            wrapped = self._wrap(rhs, force_base=base_of(target))
            out = A.Assign(op="=", target=target, value=wrapped, span=e.span)
            out.ctype = target.ctype
            self._record(e.span, out)
            return out
        # General lvalue: (tp = &lv, tv = *tp, *tp = KEEP_LIVE(tv op n, tv))
        lv = self._tx_store_target(e.target)
        assert e.target.ctype is not None
        tp = self._fresh_temp(Pointer(e.target.ctype))
        tv = self._fresh_temp(e.target.ctype)
        addr = _addr_of(lv)
        arith = A.Binary(op=op, left=_clone_ident(tv), right=value, span=e.span)
        arith.ctype = tv.ctype
        seq = A.Comma(items=[
            _assign(tp, addr),
            _assign(tv, _deref(_clone_ident(tp))),
            _assign(_deref(_clone_ident(tp)),
                    self._wrap(arith, force_base=_clone_ident(tv))),
        ], span=e.span)
        seq.ctype = e.target.ctype
        self._record(e.span, seq)
        return seq

    def _tx_incdec(self, e: A.Expr, value_used: bool) -> A.Expr:
        """Pointer ``++``/``--`` are assignments (paper).  Optimization
        (2): expand simple variables without forcing them to memory; in
        checked mode emit ``GC_pre_incr``/``GC_post_incr``."""
        assert isinstance(e, (A.Unary, A.Postfix))
        operand = e.operand
        is_ptr = operand.ctype is not None and operand.ctype.is_pointer
        if not is_ptr:
            e.operand = self._tx_store_target(operand) if not isinstance(operand, A.Ident) else operand
            return e
        sign = 1 if e.op == "++" else -1
        prefix = isinstance(e, A.Unary)
        if self.options.mode == CHECKED:
            return self._checked_incdec(e, operand, sign, prefix)
        self.stats.incdec_expansions += 1
        one = A.IntLit(value=1, ctype=INT)
        if isinstance(operand, A.Ident) and self.options.expand_incdec:
            arith = A.Binary(op="+" if sign > 0 else "-",
                             left=_clone_ident(operand), right=one, span=e.span)
            arith.ctype = operand.ctype
            if prefix or not value_used:
                out: A.Expr = _assign(operand, self._wrap(arith, force_base=operand))
            else:
                # (tmp = p, p = KEEP_LIVE(tmp + 1, tmp), tmp); with the
                # base heuristic the less rapidly varying source replaces
                # tmp as the base, giving the paper's s/t version.
                tmp = self._fresh_temp(operand.ctype)
                arith2 = A.Binary(op="+" if sign > 0 else "-",
                                  left=_clone_ident(tmp), right=one, span=e.span)
                arith2.ctype = operand.ctype
                post_base: A.Ident = _clone_ident(tmp)
                if operand.name in self._heuristic_map:
                    post_base = A.Ident(name=self._heuristic_map[operand.name])
                    self.stats.heuristic_replacements += 1
                out = A.Comma(items=[
                    _assign(tmp, _clone_ident(operand)),
                    _assign(operand, self._wrap(arith2, force_base=post_base)),
                    _clone_ident(tmp),
                ], span=e.span)
                out.ctype = operand.ctype
            self._record(e.span, out)
            return out
        # General lvalue: (tmp1 = &(e), tmp2 = *tmp1, *tmp1 = KL(tmp2 +- 1, tmp2)[, tmp2])
        lv = self._tx_store_target(operand)
        assert operand.ctype is not None
        tp = self._fresh_temp(Pointer(operand.ctype))
        tv = self._fresh_temp(operand.ctype)
        arith = A.Binary(op="+" if sign > 0 else "-",
                         left=_clone_ident(tv), right=one, span=e.span)
        arith.ctype = operand.ctype
        items: list[A.Expr] = [
            _assign(tp, _addr_of(lv)),
            _assign(tv, _deref(_clone_ident(tp))),
            _assign(_deref(_clone_ident(tp)),
                    self._wrap(arith, force_base=_clone_ident(tv))),
        ]
        if not prefix and value_used:
            items.append(_clone_ident(tv))
        out = A.Comma(items=items, span=e.span)
        out.ctype = operand.ctype
        self._record(e.span, out)
        return out

    def _checked_incdec(self, e: A.Expr, operand: A.Expr, sign: int,
                        prefix: bool) -> A.Expr:
        """Checked mode: ++p -> (T)GC_pre_incr(&p, sizeof(*p) * (+1))."""
        self.stats.incdec_expansions += 1
        self.stats.keep_lives += 1
        assert isinstance(operand.ctype, Pointer)
        elem = operand.ctype.target
        elem_size = max(1, elem.size)
        lv = self._tx_store_target(operand) if not isinstance(operand, A.Ident) else operand
        fn = "GC_pre_incr" if prefix else "GC_post_incr"
        amount: A.Expr = A.IntLit(value=elem_size * sign, ctype=INT)
        call = A.Call(func=A.Ident(name=fn), args=[_addr_of(lv), amount], span=e.span)
        call.ctype = VOID_PTR
        cast = A.Cast(to_type=operand.ctype, operand=call, span=e.span)
        cast.ctype = operand.ctype
        self._record(e.span, cast)
        return cast

    # -- KEEP_LIVE insertion ---------------------------------------------------

    def _wrap(self, e: A.Expr, force_base: A.Ident | None = None) -> A.Expr:
        """Wrap ``e`` in KEEP_LIVE(e, BASE(e)) if the paper's rules call
        for it, applying optimizations (1), (3) and (4)."""
        if not _is_pointer_valued(e):
            return e
        if isinstance(e, A.KeepLive):
            return e
        if is_generating(e) and force_base is None:
            return e
        if self.options.call_safe_points and not self._stmt_has_call:
            self.stats.suppressed_no_call += 1
            return e
        if force_base is None and self.options.suppress_copies and is_plain_copy(e):
            self.stats.suppressed_copies += 1
            return e
        base = force_base if force_base is not None else base_of(e)
        if base is None:
            self.stats.suppressed_nil_base += 1
            return e
        base_ident = _clone_ident(base)
        if base.name in self._heuristic_map:
            base_ident = A.Ident(name=self._heuristic_map[base.name])
            self.stats.heuristic_replacements += 1
        kl = A.KeepLive(value=e, base=base_ident,
                        checked=self.options.mode == CHECKED, span=e.span)
        kl.ctype = e.ctype
        self.stats.keep_lives += 1
        self._record(e.span, kl)
        return kl

    def _record(self, span: SourceSpan, node: A.Node) -> None:
        if span.start >= 0:
            self.replacements.append(Replacement(span, node))

    # -- checked-mode externs ----------------------------------------------------

    def _inject_builtin_decls(self) -> None:
        decls: list[A.Node] = []
        from ..cfront.ctypes import Function
        for name, (ret, params) in _GC_BUILTIN_DECLS.items():
            fn = Function(ret, params)
            decls.append(A.Decl(
                declarators=[A.Declarator(name=name, ctype=fn)],
                storage="extern", base_type=ret))
        self.unit.items[:0] = decls


# -- small AST builders --------------------------------------------------------


def _clone_ident(ident: A.Ident) -> A.Ident:
    return A.Ident(name=ident.name, ctype=ident.ctype, is_lvalue=True)


def _assign(target: A.Expr, value: A.Expr) -> A.Assign:
    out = A.Assign(op="=", target=target, value=value)
    out.ctype = target.ctype
    return out


def _deref(e: A.Expr) -> A.Unary:
    out = A.Unary(op="*", operand=e)
    if isinstance(e.ctype, Pointer):
        out.ctype = e.ctype.target
    out.is_lvalue = True
    return out


def _addr_of(e: A.Expr) -> A.Expr:
    if isinstance(e, A.Unary) and e.op == "*":
        return e.operand  # &*x == x
    out = A.Unary(op="&", operand=e)
    out.ctype = Pointer(e.ctype or INT)
    return out


def _is_pointer_valued(e: A.Expr) -> bool:
    return e.ctype is not None and e.ctype.decay().is_pointer


def _chain_needs_normalizing(e: A.Expr) -> bool:
    """True when an lvalue chain dereferences heap-capable storage (any
    ``*``, ``->``, or ``[]`` on a pointer).  Pure dot-chains on plain
    variables (``s.a.b``) and indexing of on-stack arrays stay as-is —
    their addresses have NIL base anyway."""
    if isinstance(e, A.Index):
        base_t = e.base.ctype
        if base_t is not None and base_t.is_pointer:
            return True
        return _chain_needs_normalizing(e.base)
    if isinstance(e, A.Member):
        if e.arrow:
            return True
        return _chain_needs_normalizing(e.base)
    if isinstance(e, A.Unary) and e.op == "*":
        return True
    return False


def _slowly_varying_bases(fn: A.FuncDef) -> dict[str, str]:
    """Optimization (3): map rapidly-varying base variables to
    "equivalent, but less rapidly varying base pointers".

    ``p`` maps to ``s`` when every assignment to ``p`` in the function is
    either ``p = <expr with BASE s>`` or a self-update (``p++``,
    ``p += k``, ``p = p + k``), with a single non-self source ``s``, and
    ``s`` itself is never reassigned (it is a parameter or is assigned at
    most once).  Then whenever ``p`` points at a heap object, ``s``
    points at the same object, and ``s`` makes the less constraining
    KEEP_LIVE base (the paper's canonical string-copy loop).
    """
    assigns: dict[str, list[A.Expr]] = {}
    for node in A.walk(fn.body):
        if isinstance(node, A.Assign) and isinstance(node.target, A.Ident):
            if node.op in ("+=", "-="):
                assigns.setdefault(node.target.name, []).append(node)  # self-update
            else:
                assigns.setdefault(node.target.name, []).append(node.value)
        elif isinstance(node, (A.Unary, A.Postfix)) and node.op in ("++", "--"):
            if isinstance(node.operand, A.Ident):
                assigns.setdefault(node.operand.name, []).append(node)
        elif isinstance(node, A.Decl):
            for d in node.declarators:
                if isinstance(d.init, A.Expr):
                    assigns.setdefault(d.name, []).append(d.init)

    param_names = {p.name for p in fn.params}

    def stable(name: str) -> bool:
        writes = assigns.get(name, [])
        if name in param_names:
            return not writes
        return len(writes) <= 1

    out: dict[str, str] = {}
    for name, writes in assigns.items():
        sources: set[str] = set()
        ok = True
        for w in writes:
            if isinstance(w, (A.Unary, A.Postfix)):
                continue  # self-update
            if not isinstance(w, A.Expr):
                ok = False
                break
            if not _is_pointer_valued(w):
                ok = False
                break
            b = base_of(w)
            if b is None:
                ok = False
                break
            if b.name == name:
                continue  # self-update like p = p + 1
            sources.add(b.name)
        if ok and len(sources) == 1:
            src = sources.pop()
            if stable(src) and src != name:
                out[name] = src
    return out


def annotate(unit: A.TranslationUnit,
             options: AnnotateOptions | None = None) -> AnnotationResult:
    """Annotate a typechecked translation unit in place and return the
    result bundle.  The unit must already have been through
    :func:`repro.cfront.typecheck`."""
    return Annotator(unit, options).run()
