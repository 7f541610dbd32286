"""A miniature C preprocessor.

The paper's tool runs *between* the normal C preprocessor and the
compiler ("in this way arbitrary macros are handled correctly").  We
mirror that pipeline: workloads may use ``#define``/``#ifdef``/
``#include``, and :func:`preprocess` expands them before the annotator
ever sees the text.

Supported: object-like and function-like ``#define`` (no ``#``/``##``
operators), ``#undef``, ``#ifdef``/``#ifndef``/``#else``/``#endif``,
``#if`` with integer constant expressions over ``defined(...)``, evaluated
with C's integer rules by the parser's constant evaluator, and
``#include "file"`` resolved against ``include_dirs``.
"""

from __future__ import annotations

import os
import re

from .errors import CFrontError, LexError, ParseError
from .lexer import Token, tokenize
from .parser import const_expression

_DIRECTIVE_RE = re.compile(r"^\s*#\s*(\w+)\s*(.*?)\s*$")
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


class CppError(CFrontError):
    pass


class Macro:
    def __init__(self, name: str, params: list[str] | None, body: str):
        self.name = name
        self.params = params  # None for object-like macros
        self.body = body


class Preprocessor:
    def __init__(self, include_dirs: list[str] | None = None,
                 predefined: dict[str, str] | None = None):
        self.include_dirs = list(include_dirs or [])
        self.macros: dict[str, Macro] = {}
        for name, body in (predefined or {}).items():
            self.macros[name] = Macro(name, None, body)

    # -- public -----------------------------------------------------------

    def preprocess(self, source: str, filename: str = "<string>") -> str:
        lines = self._join_continuations(source)
        out: list[str] = []
        # Condition stack: each entry is (taking, taken_any) for #if nesting.
        cond: list[list[bool]] = []

        def active() -> bool:
            return all(frame[0] for frame in cond)

        for line in lines:
            m = _DIRECTIVE_RE.match(line)
            if m is None:
                if active():
                    out.append(self._expand_line(line))
                else:
                    out.append("")
                continue
            directive, rest = m.group(1), m.group(2)
            if directive in ("ifdef", "ifndef"):
                name = rest.split()[0] if rest.split() else ""
                defined = name in self.macros
                take = defined if directive == "ifdef" else not defined
                cond.append([take and active(), take])
            elif directive == "if":
                take = bool(self._eval_condition(rest)) if active() else False
                cond.append([take and active(), take])
            elif directive == "elif":
                if not cond:
                    raise CppError("#elif without #if")
                frame = cond[-1]
                if frame[1]:
                    frame[0] = False
                else:
                    take = bool(self._eval_condition(rest))
                    frame[0] = take
                    frame[1] = take
            elif directive == "else":
                if not cond:
                    raise CppError("#else without #if")
                frame = cond[-1]
                frame[0] = (not frame[1]) and all(f[0] for f in cond[:-1])
                frame[1] = True
            elif directive == "endif":
                if not cond:
                    raise CppError("#endif without #if")
                cond.pop()
            elif not active():
                pass
            elif directive == "define":
                self._define(rest)
            elif directive == "undef":
                self.macros.pop(rest.split()[0], None)
            elif directive == "include":
                out.append(self._include(rest, filename))
            elif directive in ("pragma", "error", "line"):
                if directive == "error":
                    raise CppError(f"#error {rest}")
            else:
                raise CppError(f"unknown directive #{directive}")
            if directive not in ("include",):
                out.append("")  # keep line numbers roughly stable
        if cond:
            raise CppError("unterminated #if block")
        return "\n".join(out)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _join_continuations(source: str) -> list[str]:
        lines: list[str] = []
        pending = ""
        for raw in source.split("\n"):
            if raw.endswith("\\"):
                pending += raw[:-1] + " "
            else:
                lines.append(pending + raw)
                pending = ""
        if pending:
            lines.append(pending)
        return lines

    def _define(self, rest: str) -> None:
        m = _IDENT_RE.match(rest)
        if m is None:
            raise CppError(f"malformed #define {rest!r}")
        name = m.group(0)
        after = rest[m.end():]
        if after.startswith("("):
            close = after.index(")")
            params = [p.strip() for p in after[1:close].split(",") if p.strip()]
            body = after[close + 1:].strip()
            self.macros[name] = Macro(name, params, body)
        else:
            self.macros[name] = Macro(name, None, after.strip())

    def _include(self, rest: str, from_file: str) -> str:
        m = re.match(r'^[<"]([^>"]+)[>"]', rest.strip())
        if m is None:
            raise CppError(f"malformed #include {rest!r}")
        target = m.group(1)
        search = list(self.include_dirs)
        if from_file != "<string>":
            search.insert(0, os.path.dirname(os.path.abspath(from_file)))
        for directory in search:
            path = os.path.join(directory, target)
            if os.path.exists(path):
                with open(path) as fh:
                    return self.preprocess(fh.read(), path)
        raise CppError(f"include file not found: {target}")

    def _eval_condition(self, text: str) -> int:
        text = re.sub(r"defined\s*\(\s*(\w+)\s*\)",
                      lambda m: "1" if m.group(1) in self.macros else "0", text)
        text = re.sub(r"defined\s+(\w+)",
                      lambda m: "1" if m.group(1) in self.macros else "0", text)
        text = self._expand_line(text)
        try:
            # As in C, the identifiers left after expansion (keywords
            # included: cpp has none) are 0; character constants are not.
            tokens = [Token("int", "0", 0, tok.pos)
                      if tok.kind in ("ident", "keyword") else tok
                      for tok in tokenize(text)]
            return const_expression(text, tokens)
        except (LexError, ParseError) as exc:
            raise CppError(f"cannot evaluate #if condition {text!r}: "
                           f"{exc.message}") from exc

    def _expand_line(self, line: str, depth: int = 0) -> str:
        if depth > 32:
            raise CppError("macro expansion too deep (recursive macro?)")
        out: list[str] = []
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            if ch == '"' or ch == "'":
                j = i + 1
                while j < n and line[j] != ch:
                    j += 2 if line[j] == "\\" else 1
                out.append(line[i : j + 1])
                i = j + 1
                continue
            if line.startswith("//", i):
                out.append(line[i:])
                break
            m = _IDENT_RE.match(line, i)
            if m is None:
                out.append(ch)
                i += 1
                continue
            name = m.group(0)
            i = m.end()
            macro = self.macros.get(name)
            if macro is None:
                out.append(name)
                continue
            if macro.params is None:
                out.append(self._expand_line(macro.body, depth + 1))
                continue
            # function-like: need a '(' next (possibly after spaces)
            j = i
            while j < n and line[j] in " \t":
                j += 1
            if j >= n or line[j] != "(":
                out.append(name)
                continue
            args, i = self._parse_args(line, j)
            if len(args) != len(macro.params) and not (len(macro.params) == 0 and args == [""]):
                raise CppError(
                    f"macro {name} expects {len(macro.params)} args, got {len(args)}")
            body = self._substitute(macro.body, dict(zip(macro.params, args)))
            out.append(self._expand_line(body, depth + 1))
        return "".join(out)

    @staticmethod
    def _parse_args(line: str, open_paren: int) -> tuple[list[str], int]:
        depth = 0
        args: list[str] = []
        current: list[str] = []
        i = open_paren
        while i < len(line):
            ch = line[i]
            if ch in "\"'":
                j = i + 1
                while j < len(line) and line[j] != ch:
                    j += 2 if line[j] == "\\" else 1
                current.append(line[i : j + 1])
                i = j + 1
                continue
            if ch == "(":
                depth += 1
                if depth > 1:
                    current.append(ch)
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(current).strip())
                    return args, i + 1
                current.append(ch)
            elif ch == "," and depth == 1:
                args.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
            i += 1
        raise CppError("unterminated macro argument list")

    @staticmethod
    def _substitute(body: str, bindings: dict[str, str]) -> str:
        def repl(m: re.Match) -> str:
            return bindings.get(m.group(0), m.group(0))

        return _IDENT_RE.sub(repl, body)


def preprocess(source: str, include_dirs: list[str] | None = None,
               predefined: dict[str, str] | None = None,
               filename: str = "<string>") -> str:
    """Run the mini preprocessor over ``source`` and return plain C text."""
    from ..obs import runtime as obs_runtime
    tracer = obs_runtime.get_tracer()
    if not tracer.enabled:
        return Preprocessor(include_dirs, predefined).preprocess(source, filename)
    with tracer.span("cfront.cpp", file=filename) as sp:
        out = Preprocessor(include_dirs, predefined).preprocess(source, filename)
        sp.set(lines_in=source.count("\n") + 1, lines_out=out.count("\n") + 1)
    return out
