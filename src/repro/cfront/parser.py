"""Recursive-descent parser for the ANSI C subset.

Produces :mod:`repro.cfront.cast` trees.  The parser resolves types as it
goes (it must, to disambiguate typedef names from identifiers, the
classic C lexer feedback problem), so struct layout and typedef
resolution are complete by the time parsing finishes.

The subset covers what the paper's preprocessor and our workloads need:
all of C's expression grammar, pointers/arrays/structs/unions/enums,
typedefs, function definitions and prototypes, the full statement set
including ``switch`` and ``goto``, initializer lists, and casts.  Not
supported: bitfields, K&R-style parameter declarations, ``long long``.
"""

from __future__ import annotations

import operator

from . import cast as A
from .ctypes import (
    CHAR, CType, DOUBLE, FLOAT, Function, INT, IntType, Array, Pointer,
    Struct, VOID, Void,
)
from .errors import ParseError, SourceSpan
from .lexer import Token, tokenize

_TYPE_SPECIFIER_KEYWORDS = frozenset(
    "void char short int long float double signed unsigned struct union enum".split()
)
_STORAGE_KEYWORDS = frozenset("typedef extern static auto register".split())
_QUALIFIER_KEYWORDS = frozenset("const volatile".split())

_ASSIGN_OPS = frozenset("= += -= *= /= %= &= |= ^= <<= >>=".split())


def _c_div(a: int, b: int) -> int:
    """C division: the quotient truncates toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


# Operators of constant expressions (enum values, array sizes, ``#if``),
# with C's truncating ``/`` and ``%``; ``&&``, ``||`` and ``?:``
# short-circuit in ``Parser._const_int``.  The machine's operator table
# cannot be used here: ``repro.machine`` imports the front end.
_CONST_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _c_div, "%": lambda a, b: a - b * _c_div(a, b),
    "<<": operator.lshift, ">>": operator.rshift,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
}
_CONST_UNARY = {"-": operator.neg, "+": operator.pos,
                "!": lambda a: int(not a), "~": operator.invert}


class _Scope:
    """Tracks typedef names and struct/union/enum tags per lexical scope."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.typedefs: dict[str, CType] = {}
        self.tags: dict[str, Struct] = {}
        self.enum_consts: dict[str, int] = {}

    def lookup_typedef(self, name: str) -> CType | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.typedefs:
                return scope.typedefs[name]
            scope = scope.parent
        return None

    def lookup_tag(self, name: str) -> Struct | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.tags:
                return scope.tags[name]
            scope = scope.parent
        return None

    def lookup_enum(self, name: str) -> int | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.enum_consts:
                return scope.enum_consts[name]
            scope = scope.parent
        return None


class Parser:
    def __init__(self, source: str, tokens: list[Token] | None = None):
        self.source = source
        # Tokens are frozen and never rewritten here, so parses may share them.
        self.tokens = tokenize(source) if tokens is None else tokens
        self.i = 0
        self.scope = _Scope()
        self._pending_struct_def: Struct | None = None

    # -- token plumbing ---------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def peek(self, ahead: int = 1) -> Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tok.text == text and self.tok.kind in ("op", "keyword")

    def accept(self, text: str) -> Token | None:
        if self.at(text):
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise ParseError(f"expected {text!r}, got {self.tok.text!r}", self.tok.pos, self.source)
        return self.advance()

    def _span(self, start: int) -> SourceSpan:
        end = self.tokens[self.i - 1].end if self.i > 0 else start
        return SourceSpan(start, end)

    # -- scope ------------------------------------------------------------

    def _push_scope(self) -> None:
        self.scope = _Scope(self.scope)

    def _pop_scope(self) -> None:
        assert self.scope.parent is not None
        self.scope = self.scope.parent

    # -- entry ------------------------------------------------------------

    def parse(self) -> A.TranslationUnit:
        items: list[A.Node] = []
        while self.tok.kind != "eof":
            items.append(self._external_declaration())
        return A.TranslationUnit(items=items, source=self.source,
                                 span=SourceSpan(0, len(self.source)))

    # -- declarations -----------------------------------------------------

    def _starts_declaration(self) -> bool:
        tok = self.tok
        if tok.kind == "keyword":
            return tok.text in _TYPE_SPECIFIER_KEYWORDS | _STORAGE_KEYWORDS | _QUALIFIER_KEYWORDS
        if tok.kind == "ident":
            return self.scope.lookup_typedef(tok.text) is not None
        return False

    def _external_declaration(self) -> A.Node:
        start = self.tok.pos
        if self.accept(";"):  # stray file-scope semicolon
            return A.Decl(declarators=[], storage=None, span=self._span(start))
        self._pending_struct_def = None
        storage, base = self._declaration_specifiers()
        defines = self._pending_struct_def is base and base is not None
        if self.accept(";"):
            # e.g. bare "struct foo { ... };"
            return A.Decl(declarators=[], storage=storage, base_type=base,
                          defines_struct=defines, span=self._span(start))
        name, ctype, params = self._declarator(base)
        if isinstance(ctype, Function) and self.at("{"):
            return self._function_definition(start, name, ctype, params, storage)
        return self._finish_declaration(start, storage, name, ctype,
                                        base_type=base, defines_struct=defines)

    def _function_definition(self, start: int, name: str, ctype: Function,
                             params: list[A.ParamDecl], storage: str | None) -> A.FuncDef:
        self._push_scope()
        body = self._block()
        self._pop_scope()
        return A.FuncDef(name=name, ctype=ctype, params=params, body=body,
                         storage=storage, span=self._span(start))

    def _finish_declaration(self, start: int, storage: str | None,
                            first_name: str, first_type: CType,
                            base_type: CType | None = None,
                            defines_struct: bool = False) -> A.Decl:
        shared_base = self._decl_base  # specifier type shared by all declarators
        declarators = [self._init_declarator(first_name, first_type, storage)]
        while self.accept(","):
            name, ctype, _ = self._declarator(shared_base)
            declarators.append(self._init_declarator(name, ctype, storage))
        self.expect(";")
        return A.Decl(declarators=declarators, storage=storage,
                      base_type=base_type if base_type is not None else shared_base,
                      defines_struct=defines_struct, span=self._span(start))

    def _init_declarator(self, name: str, ctype: CType, storage: str | None) -> A.Declarator:
        start = self.tok.pos
        init: A.Node | None = None
        if self.accept("="):
            init = self._initializer()
        if storage == "typedef":
            self.scope.typedefs[name] = ctype
        if isinstance(ctype, Array) and ctype.length is None and isinstance(init, A.InitList):
            ctype = Array(ctype.element, len(init.items))
        if isinstance(ctype, Array) and ctype.length is None and isinstance(init, A.StringLit):
            ctype = Array(ctype.element, len(init.value) + 1)
        return A.Declarator(name=name, ctype=ctype, init=init, span=self._span(start))

    def _initializer(self) -> A.Node:
        if self.at("{"):
            start = self.expect("{").pos
            items: list[A.Node] = []
            while not self.at("}"):
                items.append(self._initializer())
                if not self.accept(","):
                    break
            self.expect("}")
            return A.InitList(items=items, span=self._span(start))
        return self._assignment()

    def _declaration_specifiers(self) -> tuple[str | None, CType]:
        storage: str | None = None
        seen: list[str] = []
        ctype: CType | None = None
        while True:
            tok = self.tok
            if tok.kind == "keyword" and tok.text in _STORAGE_KEYWORDS:
                self.advance()
                if tok.text in ("typedef", "extern", "static"):
                    storage = tok.text
            elif tok.kind == "keyword" and tok.text in _QUALIFIER_KEYWORDS:
                self.advance()
            elif tok.kind == "keyword" and tok.text in ("struct", "union"):
                ctype = self._struct_specifier()
            elif tok.kind == "keyword" and tok.text == "enum":
                ctype = self._enum_specifier()
            elif tok.kind == "keyword" and tok.text in _TYPE_SPECIFIER_KEYWORDS:
                seen.append(tok.text)
                self.advance()
            elif (tok.kind == "ident" and ctype is None and not seen
                  and self.scope.lookup_typedef(tok.text) is not None):
                ctype = self.scope.lookup_typedef(tok.text)
                self.advance()
            else:
                break
        if ctype is not None:
            return storage, ctype
        if not seen:
            raise ParseError("expected type specifier", self.tok.pos, self.source)
        return storage, _combine_int_specifiers(seen, self.tok.pos, self.source)

    def _struct_specifier(self) -> Struct:
        kw = self.advance()  # struct | union
        is_union = kw.text == "union"
        tag: str | None = None
        if self.tok.kind == "ident":
            tag = self.advance().text
        if self.at("{"):
            if tag is not None:
                struct = self.scope.tags.get(tag)
                if struct is None or struct.complete:
                    struct = Struct(tag, is_union)
                    self.scope.tags[tag] = struct
            else:
                struct = Struct(None, is_union)
            self.advance()
            members: list[tuple[str, CType]] = []
            while not self.at("}"):
                _, base = self._declaration_specifiers()
                self._decl_base = base
                while True:
                    name, ctype, _ = self._declarator(base)
                    members.append((name, ctype))
                    if not self.accept(","):
                        break
                self.expect(";")
            self.expect("}")
            struct.define(members)
            self._pending_struct_def = struct
            return struct
        if tag is None:
            raise ParseError("struct specifier needs a tag or body", self.tok.pos, self.source)
        struct = self.scope.lookup_tag(tag)
        if struct is None:
            struct = Struct(tag, is_union)
            self.scope.tags[tag] = struct
        return struct

    def _enum_specifier(self) -> CType:
        self.advance()  # enum
        if self.tok.kind == "ident":
            self.advance()  # tag (we model enums as int)
        if self.accept("{"):
            value = 0
            while not self.at("}"):
                name = self.advance().text
                if self.accept("="):
                    value = self._const_int(self._conditional())
                self.scope.enum_consts[name] = value
                value += 1
                if not self.accept(","):
                    break
            self.expect("}")
        return INT

    def _const_int(self, expr: A.Expr) -> int:
        """Evaluate a constant integer expression (array sizes, enum
        values, ``#if``) with C's truncating ``/`` and ``%``."""
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.CharLit):
            return expr.value
        if isinstance(expr, A.Ident):
            val = self.scope.lookup_enum(expr.name)
            if val is not None:
                return val
        if isinstance(expr, A.Unary) and expr.op in _CONST_UNARY:
            return _CONST_UNARY[expr.op](self._const_int(expr.operand))
        if isinstance(expr, A.Binary) and expr.op in ("&&", "||"):
            # Short-circuit: the right operand counts only when it decides.
            lhs = self._const_int(expr.left) != 0
            if lhs == (expr.op == "||"):
                return int(lhs)
            return int(self._const_int(expr.right) != 0)
        if isinstance(expr, A.Cond):
            return self._const_int(expr.then if self._const_int(expr.cond)
                                   else expr.otherwise)
        if isinstance(expr, A.Binary) and expr.op in _CONST_OPS:
            lhs, rhs = self._const_int(expr.left), self._const_int(expr.right)
            if rhs == 0 and expr.op in ("/", "%"):
                raise ParseError("division by zero in constant expression",
                                 expr.span.start, self.source)
            if rhs < 0 and expr.op in ("<<", ">>"):
                raise ParseError("negative shift count in constant expression",
                                 expr.span.start, self.source)
            return _CONST_OPS[expr.op](lhs, rhs)
        if isinstance(expr, (A.SizeofType, A.SizeofExpr)):
            if isinstance(expr, A.SizeofType):
                return expr.of_type.size
        raise ParseError("expected constant integer expression",
                         expr.span.start, self.source)

    # -- declarators --------------------------------------------------------

    _decl_base: CType = INT  # shared specifier type across a declarator list

    def _declarator(self, base: CType) -> tuple[str, CType, list[A.ParamDecl]]:
        self._decl_base = base
        while self.accept("*"):
            while self.tok.kind == "keyword" and self.tok.text in _QUALIFIER_KEYWORDS:
                self.advance()
            base = Pointer(base)
        return self._direct_declarator(base)

    def _direct_declarator(self, base: CType) -> tuple[str, CType, list[A.ParamDecl]]:
        params: list[A.ParamDecl] = []
        if self.at("("):
            # Could be a parenthesized declarator: (*name)(...) / (*name)[...]
            self.advance()
            name, inner_hole, params = self._declarator_hole()
            self.expect(")")
            suffix = self._declarator_suffix(base)
            ctype = inner_hole(suffix[0])
            if suffix[1]:
                params = suffix[1]
            return name, ctype, params
        if self.tok.kind != "ident":
            # Abstract declarator (no name), used in casts and prototypes.
            ctype, params = self._declarator_suffix(base)
            return "", ctype, params
        name = self.advance().text
        ctype, params = self._declarator_suffix(base)
        return name, ctype, params

    def _declarator_hole(self):
        """Parse the inside of a parenthesized declarator; return
        (name, fill, params) where fill(base) plugs the outer type in."""
        wraps: list[str] = []
        while self.accept("*"):
            while self.tok.kind == "keyword" and self.tok.text in _QUALIFIER_KEYWORDS:
                self.advance()
            wraps.append("*")
        name = ""
        if self.tok.kind == "ident":
            name = self.advance().text
        suffixes: list[tuple[str, object]] = []
        params: list[A.ParamDecl] = []
        while True:
            if self.at("["):
                self.advance()
                length = None if self.at("]") else self._const_int(self._conditional())
                self.expect("]")
                suffixes.append(("[]", length))
            elif self.at("("):
                sig, params = self._param_list()
                suffixes.append(("()", sig))
            else:
                break

        def fill(base: CType) -> CType:
            # Inside the parens, suffixes bind tighter than '*'s:
            # (*ops[2])(int) is an array of pointers to functions, so the
            # pointers wrap the outer type first, then the suffixes apply.
            ctype = base
            for _ in wraps:
                ctype = Pointer(ctype)
            for kind, payload in reversed(suffixes):
                if kind == "[]":
                    ctype = Array(ctype, payload)  # type: ignore[arg-type]
                else:
                    ret, ptypes, varargs = payload  # type: ignore[misc]
                    ctype = Function(ctype, ptypes, varargs)
            return ctype

        # For function declarator suffixes we stored only param types;
        # normalize payloads.
        fixed: list[tuple[str, object]] = []
        for kind, payload in suffixes:
            if kind == "()":
                ptypes, varargs, _pdecls = payload  # type: ignore[misc]
                fixed.append((kind, (None, ptypes, varargs)))
            else:
                fixed.append((kind, payload))
        suffixes = fixed
        return name, fill, params

    def _declarator_suffix(self, base: CType) -> tuple[CType, list[A.ParamDecl]]:
        if self.at("("):
            ptypes, varargs, pdecls = self._param_list()
            ret, _ = self._declarator_suffix(base)
            return Function(ret, ptypes, varargs), pdecls
        if self.at("["):
            self.advance()
            length = None if self.at("]") else self._const_int(self._conditional())
            self.expect("]")
            element, _ = self._declarator_suffix(base)
            return Array(element, length), []
        return base, []

    def _param_list(self) -> tuple[tuple[CType, ...], bool, list[A.ParamDecl]]:
        self.expect("(")
        ptypes: list[CType] = []
        pdecls: list[A.ParamDecl] = []
        varargs = False
        if self.accept(")"):
            return tuple(ptypes), varargs, pdecls
        if self.at("void") and self.peek().text == ")":
            self.advance()
            self.expect(")")
            return tuple(ptypes), varargs, pdecls
        while True:
            if self.accept("..."):
                varargs = True
                break
            start = self.tok.pos
            _, base = self._declaration_specifiers()
            name, ctype, _ = self._declarator(base)
            ctype = ctype.decay()
            ptypes.append(ctype)
            pdecls.append(A.ParamDecl(name=name, ctype=ctype, span=self._span(start)))
            if not self.accept(","):
                break
        self.expect(")")
        return tuple(ptypes), varargs, pdecls

    def _type_name(self) -> CType:
        _, base = self._declaration_specifiers()
        name, ctype, _ = self._declarator(base)
        if name:
            raise ParseError("type name must be abstract", self.tok.pos, self.source)
        return ctype

    # -- statements ---------------------------------------------------------

    def _block(self) -> A.Block:
        start = self.expect("{").pos
        self._push_scope()
        items: list[A.Node] = []
        while not self.at("}"):
            items.append(self._block_item())
        self.expect("}")
        self._pop_scope()
        return A.Block(items=items, span=self._span(start))

    def _block_item(self) -> A.Node:
        if self._starts_declaration():
            start = self.tok.pos
            self._pending_struct_def = None
            storage, base = self._declaration_specifiers()
            defines = self._pending_struct_def is base
            if self.accept(";"):
                return A.Decl(declarators=[], storage=storage, base_type=base,
                              defines_struct=defines, span=self._span(start))
            name, ctype, _ = self._declarator(base)
            return self._finish_declaration(start, storage, name, ctype,
                                            base_type=base, defines_struct=defines)
        return self._statement()

    def _statement(self) -> A.Stmt:
        start = self.tok.pos
        tok = self.tok
        if self.at("{"):
            return self._block()
        if self.at(";"):
            self.advance()
            return A.ExprStmt(expr=None, span=self._span(start))
        if tok.kind == "keyword":
            handler = {
                "if": self._if, "while": self._while, "do": self._do_while,
                "for": self._for, "return": self._return, "switch": self._switch,
            }.get(tok.text)
            if handler is not None:
                return handler()
            if tok.text == "break":
                self.advance()
                self.expect(";")
                return A.Break(span=self._span(start))
            if tok.text == "continue":
                self.advance()
                self.expect(";")
                return A.Continue(span=self._span(start))
            if tok.text == "goto":
                self.advance()
                label = self.advance().text
                self.expect(";")
                return A.Goto(label=label, span=self._span(start))
            if tok.text == "case":
                self.advance()
                value = self._conditional()
                self.expect(":")
                body = None if self.at("case") or self.at("default") or self.at("}") else self._statement()
                return A.Case(value=value, body=body, span=self._span(start))
            if tok.text == "default":
                self.advance()
                self.expect(":")
                body = None if self.at("case") or self.at("}") else self._statement()
                return A.Default(body=body, span=self._span(start))
        if tok.kind == "ident" and self.peek().text == ":" and self.scope.lookup_enum(tok.text) is None:
            name = self.advance().text
            self.expect(":")
            body = None if self.at("}") else self._statement()
            return A.Label(name=name, body=body, span=self._span(start))
        expr = self._expression()
        self.expect(";")
        return A.ExprStmt(expr=expr, span=self._span(start))

    def _if(self) -> A.If:
        start = self.expect("if").pos
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        then = self._statement()
        otherwise = self._statement() if self.accept("else") else None
        return A.If(cond=cond, then=then, otherwise=otherwise, span=self._span(start))

    def _while(self) -> A.While:
        start = self.expect("while").pos
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        body = self._statement()
        return A.While(cond=cond, body=body, span=self._span(start))

    def _do_while(self) -> A.DoWhile:
        start = self.expect("do").pos
        body = self._statement()
        self.expect("while")
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        self.expect(";")
        return A.DoWhile(body=body, cond=cond, span=self._span(start))

    def _for(self) -> A.For:
        start = self.expect("for").pos
        self.expect("(")
        self._push_scope()
        init: A.Node | None = None
        if not self.at(";"):
            if self._starts_declaration():
                dstart = self.tok.pos
                storage, base = self._declaration_specifiers()
                name, ctype, _ = self._declarator(base)
                init = self._finish_declaration(dstart, storage, name, ctype)
            else:
                expr = self._expression()
                self.expect(";")
                init = A.ExprStmt(expr=expr, span=expr.span)
        else:
            self.advance()
        cond = None if self.at(";") else self._expression()
        self.expect(";")
        step = None if self.at(")") else self._expression()
        self.expect(")")
        body = self._statement()
        self._pop_scope()
        return A.For(init=init, cond=cond, step=step, body=body, span=self._span(start))

    def _return(self) -> A.Return:
        start = self.expect("return").pos
        value = None if self.at(";") else self._expression()
        self.expect(";")
        return A.Return(value=value, span=self._span(start))

    def _switch(self) -> A.Switch:
        start = self.expect("switch").pos
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        body = self._statement()
        return A.Switch(cond=cond, body=body, span=self._span(start))

    # -- expressions ----------------------------------------------------------

    def _expression(self) -> A.Expr:
        start = self.tok.pos
        expr = self._assignment()
        if not self.at(","):
            return expr
        items = [expr]
        while self.accept(","):
            items.append(self._assignment())
        return A.Comma(items=items, span=self._span(start))

    def _assignment(self) -> A.Expr:
        start = self.tok.pos
        lhs = self._conditional()
        if self.tok.kind == "op" and self.tok.text in _ASSIGN_OPS:
            op = self.advance().text
            rhs = self._assignment()
            return A.Assign(op=op, target=lhs, value=rhs, span=self._span(start))
        return lhs

    def _conditional(self) -> A.Expr:
        start = self.tok.pos
        cond = self._binary(0)
        if not self.accept("?"):
            return cond
        then = self._expression()
        self.expect(":")
        otherwise = self._conditional()
        return A.Cond(cond=cond, then=then, otherwise=otherwise, span=self._span(start))

    _BINARY_LEVELS: list[frozenset[str]] = [
        frozenset({"||"}),
        frozenset({"&&"}),
        frozenset({"|"}),
        frozenset({"^"}),
        frozenset({"&"}),
        frozenset({"==", "!="}),
        frozenset({"<", ">", "<=", ">="}),
        frozenset({"<<", ">>"}),
        frozenset({"+", "-"}),
        frozenset({"*", "/", "%"}),
    ]

    def _binary(self, level: int) -> A.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._cast_expr()
        start = self.tok.pos
        left = self._binary(level + 1)
        ops = self._BINARY_LEVELS[level]
        while self.tok.kind == "op" and self.tok.text in ops:
            op = self.advance().text
            right = self._binary(level + 1)
            left = A.Binary(op=op, left=left, right=right, span=self._span(start))
        return left

    def _is_type_start(self, tok: Token) -> bool:
        if tok.kind == "keyword":
            return tok.text in _TYPE_SPECIFIER_KEYWORDS | _QUALIFIER_KEYWORDS
        return tok.kind == "ident" and self.scope.lookup_typedef(tok.text) is not None

    def _cast_expr(self) -> A.Expr:
        if self.at("(") and self._is_type_start(self.peek()):
            start = self.advance().pos
            to_type = self._type_name()
            self.expect(")")
            operand = self._cast_expr()
            return A.Cast(to_type=to_type, operand=operand, span=self._span(start))
        return self._unary()

    def _unary(self) -> A.Expr:
        start = self.tok.pos
        if self.tok.kind == "op" and self.tok.text in ("-", "+", "!", "~", "*", "&", "++", "--"):
            op = self.advance().text
            operand = self._cast_expr() if op in ("-", "+", "!", "~", "*", "&") else self._unary()
            return A.Unary(op=op, operand=operand, span=self._span(start))
        if self.at("sizeof"):
            self.advance()
            if self.at("(") and self._is_type_start(self.peek()):
                self.advance()
                of_type = self._type_name()
                self.expect(")")
                return A.SizeofType(of_type=of_type, span=self._span(start))
            operand = self._unary()
            return A.SizeofExpr(operand=operand, span=self._span(start))
        return self._postfix()

    def _postfix(self) -> A.Expr:
        start = self.tok.pos
        expr = self._primary()
        while True:
            if self.at("["):
                self.advance()
                index = self._expression()
                self.expect("]")
                expr = A.Index(base=expr, index=index, span=self._span(start))
            elif self.at("("):
                self.advance()
                args: list[A.Expr] = []
                while not self.at(")"):
                    args.append(self._assignment())
                    if not self.accept(","):
                        break
                self.expect(")")
                expr = A.Call(func=expr, args=args, span=self._span(start))
            elif self.at("."):
                self.advance()
                name = self.advance().text
                expr = A.Member(base=expr, name=name, arrow=False, span=self._span(start))
            elif self.at("->"):
                self.advance()
                name = self.advance().text
                expr = A.Member(base=expr, name=name, arrow=True, span=self._span(start))
            elif self.at("++") or self.at("--"):
                op = self.advance().text
                expr = A.Postfix(op=op, operand=expr, span=self._span(start))
            else:
                return expr

    def _primary(self) -> A.Expr:
        tok = self.tok
        start = tok.pos
        if tok.kind == "int":
            self.advance()
            return A.IntLit(value=tok.value, unsigned="u" in tok.text.lower(),
                            span=self._span(start))
        if tok.kind == "float":
            self.advance()
            return A.FloatLit(value=tok.value, span=self._span(start))
        if tok.kind == "char":
            self.advance()
            return A.CharLit(value=tok.value, span=self._span(start))
        if tok.kind == "string":
            self.advance()
            return A.StringLit(value=tok.value, span=self._span(start))
        if tok.kind == "ident":
            self.advance()
            enum_val = self.scope.lookup_enum(tok.text)
            if enum_val is not None:
                return A.IntLit(value=enum_val, span=self._span(start))
            return A.Ident(name=tok.text, span=self._span(start))
        if self.at("("):
            self.advance()
            expr = self._expression()
            self.expect(")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos, self.source)


def parse(source: str, tokens: list[Token] | None = None) -> A.TranslationUnit:
    """Parse a full translation unit.  ``tokens``, when given, are
    ``tokenize(source)``'s, so several parses of one text lex it once."""
    from ..obs import runtime as obs_runtime
    tracer = obs_runtime.get_tracer()
    parser = Parser(source, tokens)
    if not tracer.enabled:
        return parser.parse()
    with tracer.span("cfront.parse", tokens=len(parser.tokens)) as sp:
        unit = parser.parse()
        sp.set(items=len(unit.items))
    return unit


def parse_expression(source: str) -> A.Expr:
    """Parse a single expression (handy in tests and the REPL examples)."""
    return _whole_expression(Parser(source))


def const_expression(source: str, tokens: list[Token] | None = None) -> int:
    """Evaluate a single integer constant expression with C's integer
    rules (the preprocessor's ``#if``)."""
    parser = Parser(source, tokens)
    return parser._const_int(_whole_expression(parser))


def _whole_expression(parser: Parser) -> A.Expr:
    expr = parser._expression()
    if parser.tok.kind != "eof":
        raise ParseError("trailing input after expression", parser.tok.pos,
                         parser.source)
    return expr


def _combine_int_specifiers(seen: list[str], pos: int, source: str) -> CType:
    words = set(seen)
    signed = "unsigned" not in words
    words -= {"signed", "unsigned"}
    if words == {"void"}:
        return VOID
    if words == {"float"}:
        return FLOAT
    if words <= {"double", "long"} and "double" in words:
        return DOUBLE
    if words == {"char"}:
        return IntType("char", signed)
    if words <= {"short", "int"} and "short" in words:
        return IntType("short", signed)
    if words <= {"long", "int"} and "long" in words:
        return IntType("long", signed)
    if words <= {"int"} or not words:
        return IntType("int", signed)
    raise ParseError(f"invalid type specifier combination: {' '.join(seen)}", pos, source)
