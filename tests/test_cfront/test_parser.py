"""Parser unit tests: declarations, declarators, expressions, statements."""

import pytest

from repro.cfront import (
    Array, Function, INT, ParseError, Pointer, Struct, parse, parse_expression,
)
from repro.cfront import cast as A


def first_decl(source):
    tu = parse(source)
    for item in tu.items:
        if isinstance(item, A.Decl) and item.declarators:
            return item.declarators[0]
    raise AssertionError("no declarator")


def only_func(source):
    tu = parse(source)
    return next(i for i in tu.items if isinstance(i, A.FuncDef))


class TestDeclarations:
    def test_simple_int(self):
        d = first_decl("int x;")
        assert d.name == "x" and d.ctype == INT

    def test_pointer(self):
        d = first_decl("char *p;")
        assert isinstance(d.ctype, Pointer)

    def test_pointer_to_pointer(self):
        d = first_decl("int **pp;")
        assert isinstance(d.ctype.target, Pointer)

    def test_array(self):
        d = first_decl("int a[10];")
        assert isinstance(d.ctype, Array) and d.ctype.length == 10

    def test_array_of_pointers(self):
        d = first_decl("char *names[4];")
        assert isinstance(d.ctype, Array)
        assert isinstance(d.ctype.element, Pointer)

    def test_array_size_constant_expression(self):
        d = first_decl("int a[4 * 2 + 1];")
        assert d.ctype.length == 9

    def test_array_sized_by_initializer(self):
        d = first_decl("int a[] = {1, 2, 3};")
        assert d.ctype.length == 3

    def test_char_array_sized_by_string(self):
        d = first_decl('char s[] = "abc";')
        assert d.ctype.length == 4

    def test_function_pointer(self):
        d = first_decl("int (*fn)(int, char *);")
        assert isinstance(d.ctype, Pointer)
        assert isinstance(d.ctype.target, Function)
        assert len(d.ctype.target.params) == 2

    def test_multiple_declarators_share_base(self):
        tu = parse("int x, *p, a[3];")
        decl = tu.items[0]
        types = [d.ctype for d in decl.declarators]
        assert types[0] == INT
        assert isinstance(types[1], Pointer)
        assert isinstance(types[2], Array)

    def test_unsigned_combination(self):
        d = first_decl("unsigned long v;")
        assert not d.ctype.signed

    def test_prototype_varargs(self):
        d = first_decl("int printf(char *fmt, ...);")
        assert isinstance(d.ctype, Function) and d.ctype.varargs

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse("int x")

    def test_bad_specifier_combination_raises(self):
        with pytest.raises(ParseError):
            parse("long char x;")


class TestStructsEnumsTypedefs:
    def test_struct_definition_and_layout(self):
        tu = parse("struct s { char c; int i; short h; };")
        struct = tu.items[0].base_type
        assert isinstance(struct, Struct)
        assert struct.field("c").offset == 0
        assert struct.field("i").offset == 4  # aligned past the char
        assert struct.field("h").offset == 8
        assert struct.size == 12  # rounded to int alignment

    def test_union_overlays_fields(self):
        tu = parse("union u { int i; char c[8]; };")
        union = tu.items[0].base_type
        assert union.size == 8
        assert union.field("i").offset == union.field("c").offset == 0

    def test_self_referential_struct(self):
        tu = parse("struct node { int v; struct node *next; };")
        struct = tu.items[0].base_type
        assert struct.field("next").ctype.target is struct

    def test_forward_tag_reference(self):
        tu = parse("struct b; struct a { struct b *link; }; struct b { int x; };")
        a = tu.items[1].base_type
        b = tu.items[2].base_type
        assert a.field("link").ctype.target is b

    def test_typedef_and_use(self):
        tu = parse("typedef int myint; myint x;")
        assert tu.items[1].declarators[0].ctype == INT

    def test_typedef_struct_combo(self):
        tu = parse("typedef struct p { int x; } p_t; p_t v;")
        assert isinstance(tu.items[1].declarators[0].ctype, Struct)

    def test_typedef_is_scoped(self):
        # Inner typedef must not leak out of the function.
        tu = parse("void f(void) { typedef int T; T x; } int T;")
        assert tu.items[1].declarators[0].ctype == INT

    def test_enum_constants(self):
        tu = parse("enum e { A, B = 10, C }; int x[C];")
        assert tu.items[1].declarators[0].ctype.length == 11

    @pytest.mark.parametrize("expr, value", [
        ("-7 / 2", -3), ("7 / -2", -3), ("-7 % 2", -1), ("7 % -2", 1),
        ("-8 >> 1", -4), ("3 << 2", 12),
        # An unsigned operand converts the other: results wrap mod 2**32.
        ("-1u / 2", 0x7FFFFFFF), ("0u - 1 == 0xFFFFFFFF", 1),
        ("-1 > 0u", 1), ("-1 < 0", 1), ("~0u >> 31", 1), ("~0 >> 31", -1),
        # A literal above INT_MAX is unsigned int, as typecheck types it.
        ("0xFFFFFFFF > 0", 1), ("-0x80000000 > 0", 1),
        # ?: converts the branch it takes; sizeof is unsigned.
        ("(1 ? -1 : 0u) > 0", 1), ("sizeof(int) - 5 > 0", 1),
        # Casts to integer types convert to the type's width.
        ("(unsigned)-1 / 0x20000000", 7), ("(int)0xFFFFFFFF", -1),
        ("(char)300", 44), ("(unsigned char)-1", 255),
        ("(short)-1 < 0", 1), ("(unsigned short)-1 + -65535", 0),
        # sizeof a declared object (v is int[3]) is unsigned too.
        ("sizeof v", 12), ("sizeof(v) / sizeof(int)", 3),
        ("sizeof v - 13 > 0", 1),
    ])
    def test_constant_expressions_use_c_arithmetic(self, expr, value):
        tu = parse(f"int v[3]; enum e {{ A = {expr} }}; int x[A + 10];")
        assert tu.items[-1].declarators[0].ctype.length == value + 10

    def test_sizeof_object_names_the_innermost_declaration(self):
        tu = parse("int v[10]; int a[sizeof v];\n"
                   "void f(char v) { int b[sizeof(v)]; { short v; "
                   "int c[sizeof v]; } }")
        assert tu.items[1].declarators[0].ctype.length == 40
        body = tu.items[2].body.items
        assert body[0].declarators[0].ctype.length == 1
        assert body[1].items[1].declarators[0].ctype.length == 2

    @pytest.mark.parametrize("source, message", [
        ("enum e { A = 1 / 0 };", "division by zero"),
        ("int x[1 % 0];", "division by zero"),
        ("int x[1 << -1];", "negative shift count"),
        ("enum e { A = 8 >> -2 };", "negative shift count"),
        ("enum e { A = 1u << -1u };", "shift count too large"),
        ("int x[1 << 32];", "shift count too large"),
        ("int x[(char *)8 - (char *)0];", "expected constant integer"),
        # sizeof takes only a type or an object named by itself.
        ("int *p; int x[sizeof *p];", "expected constant integer"),
        ("int a[3]; int x[sizeof a[0]];", "expected constant integer"),
        ("int f(void); int x[sizeof f];", "expected constant integer"),
        ("extern int e[]; int x[sizeof e];", "expected constant integer"),
        ("int x[sizeof y];", "expected constant integer"),
    ])
    def test_constant_expression_errors_are_parse_errors(self, source,
                                                         message):
        with pytest.raises(ParseError, match=message):
            parse(source)

    def test_duplicate_struct_field_raises(self):
        with pytest.raises(ValueError):
            parse("struct s { int a; int a; };")


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, A.Binary) and e.op == "+"
        assert isinstance(e.right, A.Binary) and e.right.op == "*"

    def test_left_associativity(self):
        e = parse_expression("1 - 2 - 3")
        assert e.op == "-" and isinstance(e.left, A.Binary)

    def test_assignment_right_associative(self):
        e = parse_expression("a = b = c")
        assert isinstance(e, A.Assign) and isinstance(e.value, A.Assign)

    def test_conditional(self):
        e = parse_expression("a ? b : c ? d : e")
        assert isinstance(e, A.Cond) and isinstance(e.otherwise, A.Cond)

    def test_unary_chain(self):
        e = parse_expression("!*&x")
        assert e.op == "!" and e.operand.op == "*" and e.operand.operand.op == "&"

    def test_postfix_chain(self):
        e = parse_expression("a[1][2]")
        assert isinstance(e, A.Index) and isinstance(e.base, A.Index)

    def test_member_access(self):
        e = parse_expression("p->next->value")
        assert isinstance(e, A.Member) and e.arrow
        assert isinstance(e.base, A.Member)

    def test_call_with_args(self):
        e = parse_expression("f(a, b + 1, g())")
        assert isinstance(e, A.Call) and len(e.args) == 3

    def test_comma_expression(self):
        e = parse_expression("a, b, c")
        assert isinstance(e, A.Comma) and len(e.items) == 3

    def test_compound_assignment_ops(self):
        for op in ("+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="):
            e = parse_expression(f"a {op} 1")
            assert isinstance(e, A.Assign) and e.op == op

    def test_sizeof_type_vs_expr(self):
        assert isinstance(parse_expression("sizeof(int)"), A.SizeofType)
        assert isinstance(parse_expression("sizeof(x)"), A.SizeofExpr)

    def test_cast(self):
        e = parse_expression("(char *)p")
        assert isinstance(e, A.Cast) and isinstance(e.to_type, Pointer)

    def test_cast_vs_parenthesized_expr(self):
        e = parse_expression("(x)(y)")  # call of x with arg y, not a cast
        assert isinstance(e, A.Call)

    def test_pre_and_post_increment(self):
        assert isinstance(parse_expression("++x"), A.Unary)
        assert isinstance(parse_expression("x++"), A.Postfix)

    def test_spans_cover_expression_text(self):
        source = "  a + b  "
        e = parse_expression(source)
        assert source[e.span.start:e.span.end] == "a + b"


class TestStatements:
    def test_if_else_binds_to_nearest(self):
        fn = only_func("void f(int x) { if (x) if (x) x = 1; else x = 2; }")
        outer = fn.body.items[0]
        assert outer.otherwise is None
        assert outer.then.otherwise is not None

    def test_for_with_declaration(self):
        fn = only_func("void f(void) { for (int i = 0; i < 3; i++) ; }")
        assert isinstance(fn.body.items[0].init, A.Decl)

    def test_for_all_parts_optional(self):
        fn = only_func("void f(void) { for (;;) break; }")
        loop = fn.body.items[0]
        assert loop.init is None and loop.cond is None and loop.step is None

    def test_do_while(self):
        fn = only_func("void f(int x) { do x--; while (x); }")
        assert isinstance(fn.body.items[0], A.DoWhile)

    def test_switch_with_cases(self):
        fn = only_func("""
            int f(int x) {
                switch (x) { case 1: return 10; case 2: case 3: return 20;
                             default: return 0; }
            }""")
        assert isinstance(fn.body.items[0], A.Switch)

    def test_goto_and_label(self):
        fn = only_func("void f(void) { goto done; done: ; }")
        assert isinstance(fn.body.items[0], A.Goto)
        assert isinstance(fn.body.items[1], A.Label)

    def test_nested_blocks_scope(self):
        fn = only_func("void f(void) { int x; { int x; x = 1; } x = 2; }")
        assert isinstance(fn.body.items[1], A.Block)

    def test_empty_statement(self):
        fn = only_func("void f(void) { ; }")
        assert fn.body.items[0].expr is None


class TestFunctions:
    def test_definition_vs_prototype(self):
        tu = parse("int f(void); int f(void) { return 1; }")
        assert isinstance(tu.items[0], A.Decl)
        assert isinstance(tu.items[1], A.FuncDef)

    def test_parameters_decay(self):
        fn = only_func("int f(int a[10], int g(int)) { return 0; }")
        assert isinstance(fn.params[0].ctype, Pointer)
        assert isinstance(fn.params[1].ctype, Pointer)

    def test_void_param_list_means_empty(self):
        fn = only_func("int f(void) { return 0; }")
        assert fn.params == []

    def test_static_storage(self):
        fn = only_func("static int f(void) { return 0; }")
        assert fn.storage == "static"
