"""Typechecker tests: expression typing, lvalue-ness, conversions."""

import pytest

from repro.cfront import (
    Array, INT, Pointer, TypeError_, parse, typecheck,
)
from repro.cfront.ctypes import UINT
from repro.cfront import cast as A


def typed_expr(body, decls="char *p; char *q; int i; int a[4]; "
                           "struct s { int x; struct s *next; } v; struct s *sp;"):
    source = f"struct s;\n{decls}\nvoid probe(void) {{ (void)({body}); }}"
    # simpler: wrap in an expression statement
    source = f"{decls}\nint probe(void) {{ return 0; }}\n" \
             f"void probe2(void) {{ {body}; }}"
    tu = parse(source)
    typecheck(tu)
    fn = [i for i in tu.items if isinstance(i, A.FuncDef)][-1]
    stmt = fn.body.items[0]
    return stmt.expr


class TestExpressionTypes:
    def test_int_literal(self):
        assert typed_expr("42").ctype == INT

    @pytest.mark.parametrize("literal", ["5u", "5U", "0x10uL",
                                         "2147483648", "0x80000000"])
    def test_unsigned_int_literal(self, literal):
        # A u suffix, or a value too big for int (C89, 32-bit long).
        assert typed_expr(literal).ctype == UINT

    @pytest.mark.parametrize("literal", ["2147483647", "0x7FFFFFFF", "5L"])
    def test_int_literal_that_fits(self, literal):
        assert typed_expr(literal).ctype == INT

    def test_char_literal_is_int(self):
        assert typed_expr("'a'").ctype == INT

    def test_string_literal_is_char_array(self):
        e = typed_expr('"abc"')
        assert isinstance(e.ctype, Array) and e.ctype.length == 4

    def test_pointer_plus_int(self):
        e = typed_expr("p + i")
        assert isinstance(e.ctype, Pointer)

    def test_int_plus_pointer(self):
        e = typed_expr("i + p")
        assert isinstance(e.ctype, Pointer)

    def test_pointer_difference_is_int(self):
        assert typed_expr("p - q").ctype.is_integer

    def test_deref_yields_target(self):
        e = typed_expr("*p")
        assert e.ctype.size == 1  # char

    def test_address_of(self):
        e = typed_expr("&i")
        assert isinstance(e.ctype, Pointer) and e.ctype.target == INT

    def test_index_yields_element(self):
        assert typed_expr("a[2]").ctype == INT

    def test_reversed_index_spelling(self):
        assert typed_expr("2[a]").ctype == INT

    def test_member_arrow(self):
        e = typed_expr("sp->next")
        assert isinstance(e.ctype, Pointer)

    def test_member_dot(self):
        assert typed_expr("v.x").ctype == INT

    def test_comparison_is_int(self):
        assert typed_expr("p == q").ctype == INT

    def test_assignment_type_is_target(self):
        e = typed_expr("p = q")
        assert isinstance(e.ctype, Pointer)

    def test_conditional_prefers_pointer(self):
        e = typed_expr("i ? p : 0")
        assert isinstance(e.ctype, Pointer)

    def test_comma_takes_last(self):
        assert typed_expr("p, i").ctype == INT

    def test_sizeof_is_integer(self):
        assert typed_expr("sizeof(p)").ctype.is_integer

    def test_promotions_small_ints(self):
        assert typed_expr("'a' + 'b'").ctype == INT

    def test_implicit_function_declaration(self):
        e = typed_expr("mystery(1, 2)")
        assert e.ctype == INT


class TestLvalues:
    def test_variable_is_lvalue(self):
        assert typed_expr("i").is_lvalue

    def test_deref_is_lvalue(self):
        assert typed_expr("*p").is_lvalue

    def test_index_is_lvalue(self):
        assert typed_expr("a[0]").is_lvalue

    def test_member_is_lvalue(self):
        assert typed_expr("sp->x").is_lvalue

    def test_sum_is_not_lvalue(self):
        assert not typed_expr("i + 1").is_lvalue

    def test_assign_to_non_lvalue_raises(self):
        with pytest.raises(TypeError_):
            typed_expr("(i + 1) = 2")

    def test_address_of_rvalue_raises(self):
        with pytest.raises(TypeError_):
            typed_expr("&(i + 1)")


class TestErrors:
    def test_deref_non_pointer_raises(self):
        with pytest.raises(TypeError_):
            typed_expr("*i")

    def test_member_of_non_struct_raises(self):
        with pytest.raises(TypeError_):
            typed_expr("i.x")

    def test_unknown_field_raises(self):
        with pytest.raises(TypeError_):
            typed_expr("v.nope")

    def test_call_non_function_raises(self):
        with pytest.raises(TypeError_):
            typed_expr("i(3)")

    def test_index_non_pointer_raises(self):
        with pytest.raises(TypeError_):
            typed_expr("i[i]")


class TestFunctionBodies:
    def test_params_visible_in_body(self):
        tu = parse("int f(int a, int b) { return a + b; }")
        typecheck(tu)

    def test_locals_shadow_globals(self):
        tu = parse("char *x; int f(void) { int x; return x; }")
        typecheck(tu)
        fn = tu.items[1]
        ret = fn.body.items[1]
        assert ret.value.ctype == INT

    def test_function_pointer_call(self):
        tu = parse("int apply(int (*fn)(int), int x) { return fn(x); }")
        typecheck(tu)
