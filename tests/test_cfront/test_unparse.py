"""Unparser tests: round-trip stability and declaration rendering."""

import pytest

from repro.cfront import parse, typecheck, unparse, unparse_type
from repro.cfront.ctypes import Array, CHAR, Function, INT, Pointer

CORPUS = [
    "int x;",
    "char *strcpy2(char *s, char *t) { while (*s++ = *t++) ; return s; }",
    "struct node { int v; struct node *next; };\nint len(struct node *n) "
    "{ int k = 0; for (; n; n = n->next) k++; return k; }",
    "typedef struct pair { char *k; int v; } pair;\npair *mk(void) { return 0; }",
    "int g[3] = {1, 2, 3};\nchar *msg = \"hi\\n\";",
    "int f(int n) { switch (n) { case 1: return 2; default: break; } return 0; }",
    "int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); }",
    "void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }",
    "int apply(int (*fn)(int), int x) { return fn(x); }",
    "void loops(void) { int i; do i = 0; while (0); for (i = 0; i < 3; i++) continue; }",
    "void lbl(void) { goto end; end: ; }",
    "union u { int i; char c[4]; };\nunion u uu;",
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", CORPUS)
    def test_unparse_reparses(self, source):
        tu = parse(source)
        typecheck(tu)
        text = unparse(tu)
        tu2 = parse(text)
        typecheck(tu2)

    @pytest.mark.parametrize("source", CORPUS)
    def test_fixpoint_after_one_round(self, source):
        """unparse(parse(unparse(x))) == unparse(x): the renderer is a
        normal form."""
        first = unparse(parse(source))
        second = unparse(parse(first))
        assert first == second


class TestTypeRendering:
    def test_simple(self):
        assert unparse_type(INT) == "int"

    def test_pointer(self):
        assert unparse_type(Pointer(CHAR)) == "char *"

    def test_array(self):
        assert unparse_type(Array(INT, 4)) == "int [4]"

    def test_pointer_to_array_parenthesized(self):
        rendered = unparse_type(Pointer(Array(INT, 4)))
        assert rendered == "int (*)[4]"

    def test_function_pointer(self):
        fn = Function(INT, (INT, Pointer(CHAR)))
        rendered = unparse_type(Pointer(fn))
        assert rendered == "int (*)(int, char *)"

    def test_function_returning_pointer(self):
        fn = Function(Pointer(CHAR), ())
        assert unparse_type(fn) == "char *(void)"


class TestDetails:
    def test_string_escapes_render(self):
        tu = parse(r'char *s = "a\n\t\"\\";')
        text = unparse(tu)
        assert r'"a\n\t\"\\"' in text

    def test_unsigned_suffix_renders(self):
        text = unparse(parse("unsigned f(int i) { return i + 5u + 6; }"))
        assert "((i + 5u) + 6)" in text

    def test_struct_definition_renders_once(self):
        tu = parse("struct s { int a; };\nstruct s x;")
        text = unparse(tu)
        assert text.count("{ int a; }") == 1

    def test_keep_live_renders(self):
        from repro.api import Toolchain
        result = Toolchain().annotate("char *f(char *p) { return p + 1; }")
        assert "KEEP_LIVE((p + 1), p)" in unparse(result.unit)

    def test_checked_renders_with_casts(self):
        from repro.api import Toolchain
        result = Toolchain().annotate("char *f(char *p) { return p + 1; }",
                                      mode="checked")
        text = unparse(result.unit)
        assert "GC_same_obj((void *)((p + 1)), (void *)(p))" in text
        assert "(char *)" in text
