"""AST node definitions for the C subset.

Every node records a :class:`SourceSpan` into the original text.
Expression nodes additionally carry ``ctype`` and ``is_lvalue``, filled
in by :mod:`repro.cfront.typecheck`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ctypes import CType
from .errors import SourceSpan

NO_SPAN = SourceSpan(-1, -1)


@dataclass
class Node:
    span: SourceSpan = field(default=NO_SPAN, kw_only=True)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr(Node):
    ctype: Optional[CType] = field(default=None, kw_only=True)
    is_lvalue: bool = field(default=False, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int = 0
    unsigned: bool = False  # written with a u/U suffix


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class CharLit(Expr):
    value: int = 0


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    """Prefix unary: one of - + ! ~ * & ++ --  (``*`` is dereference)."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Postfix(Expr):
    """Postfix ``++`` or ``--``."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Assign(Expr):
    """Assignment, including compound ops: = += -= *= /= %= &= |= ^= <<= >>="""

    op: str = "="
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Cond(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]


@dataclass
class Comma(Expr):
    items: list[Expr] = field(default_factory=list)


@dataclass
class Call(Expr):
    func: Expr = None  # type: ignore[assignment]
    args: list[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """``base[index]``; kept distinct from *(base+index) so the annotator
    can reason about BASEADDR(e1[e2]) directly, as the paper does."""

    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Member(Expr):
    """``base.name`` (arrow=False) or ``base->name`` (arrow=True)."""

    base: Expr = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False


@dataclass
class Cast(Expr):
    to_type: CType = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class SizeofExpr(Expr):
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class SizeofType(Expr):
    of_type: CType = None  # type: ignore[assignment]


@dataclass
class KeepLive(Expr):
    """Synthetic node produced by the annotator: KEEP_LIVE(value, base).

    ``checked`` marks debugging mode, where this lowers to a real
    ``GC_same_obj`` call rather than the opaque compiler barrier.
    """

    value: Expr = None  # type: ignore[assignment]
    base: Expr = None  # type: ignore[assignment]
    checked: bool = False


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None  # None: empty statement ';'


@dataclass
class Block(Stmt):
    items: list[Node] = field(default_factory=list)  # Stmt or Decl


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]


@dataclass
class For(Stmt):
    init: Optional[Node] = None  # ExprStmt or Decl
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Switch(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Case(Stmt):
    value: Expr = None  # type: ignore[assignment]
    body: Optional[Stmt] = None


@dataclass
class Default(Stmt):
    body: Optional[Stmt] = None


@dataclass
class Goto(Stmt):
    label: str = ""


@dataclass
class Label(Stmt):
    name: str = ""
    body: Optional[Stmt] = None


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass
class Declarator(Node):
    """One declared name with its full type and optional initializer."""

    name: str = ""
    ctype: CType = None  # type: ignore[assignment]
    init: Optional[Node] = None  # Expr or InitList


@dataclass
class InitList(Node):
    items: list[Node] = field(default_factory=list)  # Expr or InitList


@dataclass
class Decl(Stmt):
    """A declaration statement (file or block scope)."""

    declarators: list[Declarator] = field(default_factory=list)
    storage: Optional[str] = None  # 'static' | 'extern' | 'typedef' | ...
    base_type: Optional[CType] = None  # the declaration-specifier type
    defines_struct: bool = False  # True when the specifier carried a struct body


@dataclass
class ParamDecl(Node):
    name: str = ""
    ctype: CType = None  # type: ignore[assignment]


@dataclass
class FuncDef(Node):
    name: str = ""
    ctype: CType = None  # type: ignore[assignment]  # Function type
    params: list[ParamDecl] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]
    storage: Optional[str] = None


@dataclass
class TranslationUnit(Node):
    items: list[Node] = field(default_factory=list)  # FuncDef or Decl
    source: str = ""


def walk(node: Node):
    """Yield ``node`` and all descendants, pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)


def children(node: Node) -> list[Node]:
    """Direct child nodes, in source order."""
    out: list[Node] = []
    for value in vars(node).values():
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, Node))
    return out
