"""AST -> C source text.

Used to render annotated programs (with ``KEEP_LIVE`` / ``GC_same_obj``
spliced in) and in round-trip tests of the parser.  Output is fully
parenthesized inside expressions — like the paper says of its own
preprocessor output, it is "not normally intended for human consumption".
"""

from __future__ import annotations

from . import cast as A
from .ctypes import Array, CType, Function, Pointer, Struct


def type_prefix_suffix(ctype: CType, name: str = "") -> str:
    """Render a declaration of ``name`` with type ``ctype`` (C's inside-out
    declarator syntax)."""
    return _declare(ctype, name)


def _declare(ctype: CType, inner: str) -> str:
    if isinstance(ctype, Pointer):
        return _declare(ctype.target, f"*{inner}")
    if isinstance(ctype, Array):
        if inner.startswith("*"):
            inner = f"({inner})"
        length = "" if ctype.length is None else str(ctype.length)
        return _declare(ctype.element, f"{inner}[{length}]")
    if isinstance(ctype, Function):
        if inner.startswith("*"):
            inner = f"({inner})"
        params = ", ".join(_declare(p, "") for p in ctype.params)
        if ctype.varargs:
            params = f"{params}, ..." if params else "..."
        if not params:
            params = "void"
        return _declare(ctype.ret, f"{inner}({params})")
    base = str(ctype)
    return f"{base} {inner}".rstrip()


def unparse_type(ctype: CType) -> str:
    """Render a type name (abstract declarator)."""
    return _declare(ctype, "")


class Unparser:
    def __init__(self, indent: str = "    "):
        self.indent_unit = indent

    # -- expressions ------------------------------------------------------

    def expr(self, e: A.Expr) -> str:
        if isinstance(e, A.IntLit):
            return f"{e.value}u" if e.unsigned else str(e.value)
        if isinstance(e, A.FloatLit):
            return repr(e.value)
        if isinstance(e, A.CharLit):
            ch = chr(e.value)
            escaped = {"\n": "\\n", "\t": "\\t", "\0": "\\0", "'": "\\'", "\\": "\\\\"}.get(ch)
            if escaped is None:
                escaped = ch if 32 <= e.value < 127 else f"\\x{e.value:02x}"
            return f"'{escaped}'"
        if isinstance(e, A.StringLit):
            return '"' + _escape_string(e.value) + '"'
        if isinstance(e, A.Ident):
            return e.name
        if isinstance(e, A.Unary):
            return f"{e.op}({self.expr(e.operand)})"
        if isinstance(e, A.Postfix):
            return f"({self.expr(e.operand)}){e.op}"
        if isinstance(e, A.Binary):
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, A.Assign):
            return f"({self.expr(e.target)} {e.op} {self.expr(e.value)})"
        if isinstance(e, A.Cond):
            return f"({self.expr(e.cond)} ? {self.expr(e.then)} : {self.expr(e.otherwise)})"
        if isinstance(e, A.Comma):
            return "(" + ", ".join(self.expr(item) for item in e.items) + ")"
        if isinstance(e, A.Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{self.expr(e.func)}({args})"
        if isinstance(e, A.Index):
            return f"({self.expr(e.base)})[{self.expr(e.index)}]"
        if isinstance(e, A.Member):
            op = "->" if e.arrow else "."
            return f"({self.expr(e.base)}){op}{e.name}"
        if isinstance(e, A.Cast):
            return f"(({unparse_type(e.to_type)})({self.expr(e.operand)}))"
        if isinstance(e, A.SizeofExpr):
            return f"sizeof({self.expr(e.operand)})"
        if isinstance(e, A.SizeofType):
            return f"sizeof({unparse_type(e.of_type)})"
        if isinstance(e, A.KeepLive):
            if e.checked:
                # Paper: (char (*)) GC_same_obj((void *)(p+1), (void *)(p))
                cast = f"({unparse_type(e.ctype)})" if e.ctype is not None else ""
                return (f"({cast}GC_same_obj((void *)({self.expr(e.value)}), "
                        f"(void *)({self.expr(e.base)})))")
            return f"KEEP_LIVE({self.expr(e.value)}, {self.expr(e.base)})"
        raise NotImplementedError(type(e).__name__)

    # -- statements ---------------------------------------------------------

    def stmt(self, s: A.Node, depth: int = 0) -> str:
        pad = self.indent_unit * depth
        if isinstance(s, A.Block):
            inner = "\n".join(self.stmt(item, depth + 1) for item in s.items)
            return f"{pad}{{\n{inner}\n{pad}}}" if inner else f"{pad}{{\n{pad}}}"
        if isinstance(s, A.ExprStmt):
            return f"{pad};" if s.expr is None else f"{pad}{self.expr(s.expr)};"
        if isinstance(s, A.Decl):
            return pad + self.decl(s)
        if isinstance(s, A.If):
            out = f"{pad}if ({self.expr(s.cond)})\n{self.stmt(s.then, depth + 1)}"
            if s.otherwise is not None:
                out += f"\n{pad}else\n{self.stmt(s.otherwise, depth + 1)}"
            return out
        if isinstance(s, A.While):
            return f"{pad}while ({self.expr(s.cond)})\n{self.stmt(s.body, depth + 1)}"
        if isinstance(s, A.DoWhile):
            return f"{pad}do\n{self.stmt(s.body, depth + 1)}\n{pad}while ({self.expr(s.cond)});"
        if isinstance(s, A.For):
            init = ""
            if isinstance(s.init, A.ExprStmt) and s.init.expr is not None:
                init = self.expr(s.init.expr)
            elif isinstance(s.init, A.Decl):
                init = self.decl(s.init).rstrip(";")
            cond = "" if s.cond is None else self.expr(s.cond)
            step = "" if s.step is None else self.expr(s.step)
            return f"{pad}for ({init}; {cond}; {step})\n{self.stmt(s.body, depth + 1)}"
        if isinstance(s, A.Return):
            return f"{pad}return;" if s.value is None else f"{pad}return {self.expr(s.value)};"
        if isinstance(s, A.Break):
            return f"{pad}break;"
        if isinstance(s, A.Continue):
            return f"{pad}continue;"
        if isinstance(s, A.Switch):
            return f"{pad}switch ({self.expr(s.cond)})\n{self.stmt(s.body, depth + 1)}"
        if isinstance(s, A.Case):
            out = f"{pad}case {self.expr(s.value)}:"
            if s.body is not None:
                out += f"\n{self.stmt(s.body, depth)}"
            return out
        if isinstance(s, A.Default):
            out = f"{pad}default:"
            if s.body is not None:
                out += f"\n{self.stmt(s.body, depth)}"
            return out
        if isinstance(s, A.Goto):
            return f"{pad}goto {s.label};"
        if isinstance(s, A.Label):
            out = f"{pad}{s.name}:"
            if s.body is not None:
                out += f"\n{self.stmt(s.body, depth)}"
            return out
        raise NotImplementedError(type(s).__name__)

    # -- declarations -------------------------------------------------------

    _anon_counter = 0

    def decl(self, d: A.Decl) -> str:
        prefix = ""
        if d.defines_struct and isinstance(d.base_type, Struct):
            # Two newlines: matches the unit-level chunk separator, so
            # re-parsing and re-rendering is a fixpoint.
            prefix = self.struct_definition(d.base_type) + "\n\n"
        parts: list[str] = []
        for dr in d.declarators:
            text = _declare(dr.ctype, dr.name)
            if dr.init is not None:
                text += f" = {self.init(dr.init)}"
            parts.append(text)
        storage = f"{d.storage} " if d.storage else ""
        if not parts:
            return prefix.rstrip("\n") or f"{storage};"
        return f"{prefix}{storage}{'; '.join(parts)};"

    def struct_definition(self, struct: Struct) -> str:
        if struct.tag is None:
            Unparser._anon_counter += 1
            struct.tag = f"__anon_{Unparser._anon_counter}"
        kw = "union" if struct.is_union else "struct"
        fields = " ".join(f"{_declare(f.ctype, f.name)};" for f in struct.fields)
        return f"{kw} {struct.tag} {{ {fields} }};"

    def init(self, node: A.Node) -> str:
        if isinstance(node, A.InitList):
            return "{" + ", ".join(self.init(item) for item in node.items) + "}"
        assert isinstance(node, A.Expr)
        return self.expr(node)

    def funcdef(self, fn: A.FuncDef) -> str:
        assert isinstance(fn.ctype, Function)
        params = ", ".join(_declare(p.ctype, p.name) for p in fn.params)
        if not params:
            params = "void"
        storage = f"{fn.storage} " if fn.storage else ""
        header = _declare(fn.ctype.ret, f"{fn.name}({params})")
        return f"{storage}{header}\n{self.stmt(fn.body)}"

    def unit(self, tu: A.TranslationUnit) -> str:
        chunks: list[str] = []
        for item in tu.items:
            if isinstance(item, A.FuncDef):
                chunks.append(self.funcdef(item))
            elif isinstance(item, A.Decl):
                chunks.append(self.decl(item))
        return "\n\n".join(chunks) + "\n"


def _escape_string(value: str) -> str:
    out = []
    for ch in value:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\0":
            out.append("\\0")
        elif 32 <= ord(ch) < 127:
            out.append(ch)
        else:
            out.append(f"\\x{ord(ch):02x}")
    return "".join(out)


def unparse(node: A.Node) -> str:
    """Render any AST node back to C text."""
    up = Unparser()
    if isinstance(node, A.TranslationUnit):
        return up.unit(node)
    if isinstance(node, A.FuncDef):
        return up.funcdef(node)
    if isinstance(node, A.Expr):
        return up.expr(node)
    return up.stmt(node)
