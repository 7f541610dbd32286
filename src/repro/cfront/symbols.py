"""Lexically scoped symbol tables shared by the typechecker, the
annotator (which needs to know which identifiers are pointer variables)
and the compiler (which needs storage classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ctypes import CType


@dataclass
class Symbol:
    name: str
    ctype: CType
    kind: str = "var"  # 'var' | 'param' | 'func' | 'global'
    storage: str | None = None  # 'static' | 'extern' | None
    is_temp: bool = False  # compiler-introduced temporary


class SymbolTable:
    """A chain of scopes.  ``push``/``pop`` bracket blocks and functions."""

    def __init__(self):
        self._scopes: list[dict[str, Symbol]] = [{}]

    def push(self) -> None:
        self._scopes.append({})

    def pop(self) -> None:
        if len(self._scopes) == 1:
            raise RuntimeError("cannot pop the global scope")
        self._scopes.pop()

    @property
    def depth(self) -> int:
        return len(self._scopes)

    def define(self, symbol: Symbol) -> Symbol:
        self._scopes[-1][symbol.name] = symbol
        return symbol

    def define_global(self, symbol: Symbol) -> Symbol:
        self._scopes[0][symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Symbol | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def globals(self) -> dict[str, Symbol]:
        return dict(self._scopes[0])
