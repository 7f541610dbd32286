"""Tokenizer for the ANSI C subset accepted by the frontend.

The token stream keeps exact character offsets into the original text so
that the annotator can splice ``KEEP_LIVE`` calls into the source without
reformatting it — the strategy the paper's preprocessor uses ("a list of
insertions and deletions, sorted by character position").

The scanner is a single precompiled master regex: one ``match`` per
token (or run of trivia) instead of a character-at-a-time loop with a
longest-first linear probe of the operator table.  Every compile starts
here, so scanning speed is front-end throughput.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import LexError

KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if int long register return short signed sizeof static
    struct switch typedef union unsigned void volatile while""".split()
)

# Longest-match-first operator table.
_OPERATORS = sorted(
    [
        ">>=", "<<=", "...",
        "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
        "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
        "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
        "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
    ],
    key=len,
    reverse=True,
)

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")

# One alternative per token class; ordering encodes precedence
# (hex before float before decimal; a closed comment/string/char
# literal before its unterminated-prefix alternative, which exists only
# to produce the right LexError).  Integer/float suffixes are folded
# into the literal text and stripped again when the value is computed,
# mirroring the scanning loop this replaces.
_MASTER_RE = re.compile(
    r"""(?P<ws>[ \t\r\n\f\v]+)
      | (?P<lcomment>//[^\n]*)
      | (?P<bcomment>/\*.*?\*/)
      | (?P<badcomment>/\*)
      | (?P<hash>\#[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>0[xX][0-9a-fA-F]+[uUlL]*
          | (?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fFlL]?
          | [0-9]+[eE][+-]?[0-9]+[fFlL]?
          | [0-9]+[uUlL]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<badstring>")
      | (?P<char>'(?:[^'\\]|\\.)*')
      | (?P<badchar>')
      | (?P<op>OPS)
    """.replace("OPS", "|".join(re.escape(op) for op in _OPERATORS)),
    re.VERBOSE | re.DOTALL)

_SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is one of: ``ident``, ``keyword``, ``int``, ``float``,
    ``char``, ``string``, ``op``, ``eof``.  ``value`` holds the decoded
    payload (int for ``int``/``char``, str otherwise).
    """

    kind: str
    text: str
    value: object
    pos: int

    @property
    def end(self) -> int:
        return self.pos + len(self.text)

    def __repr__(self) -> str:  # compact, for parser error messages
        return f"Token({self.kind!r}, {self.text!r}, @{self.pos})"


def decode_escapes(body: str, pos: int, source: str) -> str:
    """Decode C escape sequences in a string/char literal body."""
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(body):
            raise LexError("trailing backslash in literal", pos, source)
        esc = body[i + 1]
        if esc in _SIMPLE_ESCAPES:
            out.append(_SIMPLE_ESCAPES[esc])
            i += 2
        elif esc == "x":
            j = i + 2
            while j < len(body) and body[j] in "0123456789abcdefABCDEF":
                j += 1
            if j == i + 2:
                raise LexError("\\x with no hex digits", pos, source)
            out.append(chr(int(body[i + 2 : j], 16)))
            i = j
        elif esc in "01234567":
            j = i + 1
            while j < len(body) and j < i + 4 and body[j] in "01234567":
                j += 1
            out.append(chr(int(body[i + 1 : j], 8)))
            i = j
        else:
            raise LexError(f"unknown escape sequence \\{esc}", pos, source)
    return "".join(out)


class Lexer:
    """Produces the full token list for a translation unit."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0

    def tokenize(self) -> list[Token]:
        src = self.source
        n = len(src)
        tokens: list[Token] = []
        append = tokens.append
        match = _MASTER_RE.match
        pos = self.pos
        while pos < n:
            m = match(src, pos)
            if m is None:
                raise LexError(f"unexpected character {src[pos]!r}", pos, src)
            kind = m.lastgroup
            end = m.end()
            if kind == "ws" or kind == "lcomment" or kind == "bcomment" or kind == "hash":
                pos = end
                continue
            text = m.group()
            if kind == "ident":
                append(Token("keyword" if text in KEYWORDS else "ident",
                             text, text, pos))
            elif kind == "num":
                append(_number_token(text, pos, src))
            elif kind == "op":
                append(Token("op", text, text, pos))
            elif kind == "string":
                body = decode_escapes(text[1:-1], pos, src)
                if tokens and tokens[-1].kind == "string":
                    # Adjacent string literal concatenation: the merged
                    # token spans from the first opening quote through
                    # the last closing quote, trivia included.
                    prev = tokens[-1]
                    tokens[-1] = Token("string", src[prev.pos:end],
                                       prev.value + body, prev.pos)
                else:
                    append(Token("string", text, body, pos))
            elif kind == "char":
                body = decode_escapes(text[1:-1], pos, src)
                if len(body) != 1:
                    raise LexError(
                        "character literal must contain exactly one character",
                        pos, src)
                append(Token("char", text, ord(body), pos))
            elif kind == "badcomment":
                raise LexError("unterminated comment", pos, src)
            elif kind == "badstring":
                raise LexError("unterminated string literal", pos, src)
            else:  # badchar
                raise LexError("unterminated character literal", pos, src)
            pos = end
        self.pos = pos
        append(Token("eof", "", None, pos))
        return tokens


_INT_SUFFIXES = "uUlL"
_FLOAT_SUFFIXES = "fFlL"


def _number_token(text: str, pos: int, src: str) -> Token:
    if text[0] in "0" and len(text) > 1 and text[1] in "xX":
        return Token("int", text, int(text.rstrip(_INT_SUFFIXES), 16), pos)
    if "." in text or "e" in text or "E" in text:
        return Token("float", text, float(text.rstrip(_FLOAT_SUFFIXES)), pos)
    digits = text.rstrip(_INT_SUFFIXES)
    base = 8 if digits.startswith("0") and len(digits) > 1 else 10
    if base == 8 and ("8" in digits or "9" in digits):
        raise LexError(f"invalid digit in octal constant {text}", pos, src)
    return Token("int", text, int(digits, base), pos)


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into a token list ending in EOF."""
    from ..obs import runtime as obs_runtime
    tracer = obs_runtime.get_tracer()
    if not tracer.enabled:
        return Lexer(source).tokenize()
    with tracer.span("cfront.lex") as sp:
        tokens = Lexer(source).tokenize()
        sp.set(tokens=len(tokens), chars=len(source))
    return tokens
