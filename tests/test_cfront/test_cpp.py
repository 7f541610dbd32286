"""Mini-preprocessor tests."""

import pytest

from repro.cfront.cpp import CppError, Preprocessor, preprocess


def clean(text):
    return " ".join(text.split())


class TestObjectMacros:
    def test_simple_define(self):
        assert clean(preprocess("#define N 10\nint a[N];")) == "int a[10];"

    def test_redefinition_wins(self):
        out = preprocess("#define N 1\n#define N 2\nN")
        assert clean(out) == "2"

    def test_undef(self):
        out = preprocess("#define N 1\n#undef N\nN")
        assert clean(out) == "N"

    def test_chained_expansion(self):
        out = preprocess("#define A B\n#define B 7\nA")
        assert clean(out) == "7"

    def test_no_expansion_inside_strings(self):
        out = preprocess('#define N 10\nchar *s = "N";')
        assert '"N"' in out

    def test_no_expansion_inside_comments_kept(self):
        out = preprocess("#define N 10\nx // N stays\n")
        assert "// N stays" in out

    def test_recursive_macro_detected(self):
        with pytest.raises(CppError):
            preprocess("#define A A B\nA")


class TestFunctionMacros:
    def test_basic_substitution(self):
        out = preprocess("#define SQR(x) ((x) * (x))\nSQR(3)")
        assert clean(out) == "((3) * (3))"

    def test_two_parameters(self):
        out = preprocess("#define MAX(a, b) ((a) > (b) ? (a) : (b))\nMAX(x, y+1)")
        assert clean(out) == "((x) > (y+1) ? (x) : (y+1))"

    def test_nested_parens_in_argument(self):
        out = preprocess("#define ID(x) x\nID(f(a, b))")
        assert clean(out) == "f(a, b)"

    def test_name_without_call_not_expanded(self):
        out = preprocess("#define F(x) x\nint F;")
        assert clean(out) == "int F;"

    def test_wrong_arity_raises(self):
        with pytest.raises(CppError):
            preprocess("#define F(a, b) a b\nF(1)")

    def test_line_continuation(self):
        out = preprocess("#define LONG(a) \\\n  ((a) + 1)\nLONG(2)")
        assert clean(out) == "((2) + 1)"


class TestConditionals:
    def test_ifdef_taken(self):
        out = preprocess("#define YES 1\n#ifdef YES\nx\n#endif")
        assert clean(out) == "x"

    def test_ifdef_not_taken(self):
        out = preprocess("#ifdef NO\nx\n#endif\ny")
        assert clean(out) == "y"

    def test_ifndef(self):
        out = preprocess("#ifndef NO\nx\n#endif")
        assert clean(out) == "x"

    def test_else_branch(self):
        out = preprocess("#ifdef NO\na\n#else\nb\n#endif")
        assert clean(out) == "b"

    def test_elif_chain(self):
        out = preprocess("#define B 1\n#if defined(A)\na\n#elif defined(B)\nb\n"
                         "#else\nc\n#endif")
        assert clean(out) == "b"

    def test_if_arithmetic(self):
        out = preprocess("#define N 5\n#if N > 3\nbig\n#endif")
        assert clean(out) == "big"

    def test_nested_conditionals(self):
        out = preprocess("#define A 1\n#ifdef A\n#ifdef B\nx\n#else\ny\n#endif\n#endif")
        assert clean(out) == "y"

    def test_defines_inside_untaken_branch_ignored(self):
        out = preprocess("#ifdef NO\n#define N 1\n#endif\nN")
        assert clean(out) == "N"

    def test_unterminated_if_raises(self):
        with pytest.raises(CppError):
            preprocess("#ifdef A\nx")

    def test_error_directive(self):
        with pytest.raises(CppError):
            preprocess("#error nope")


def branch(condition):
    out = preprocess(f"#if {condition}\nthen\n#else\nelse\n#endif")
    return clean(out)


class TestIfArithmetic:
    """``#if`` evaluates with C's integer rules: truncating ``/`` and
    ``%``, C literals, comparisons that yield 0 or 1, comments as
    whitespace, and only C's operators."""

    @pytest.mark.parametrize("condition, taken", [
        ("7/2 == 3", "then"),
        ("-7 % 2 == -1", "then"),
        ("0x10 == 16", "then"),
        ("10u == 10", "then"),
        ("010 == 8", "then"),
        ("3 > 2 > 1", "else"),
        ("1 ? 0 : 1", "else"),
        ("'a' == 97", "then"),
        ("!0 && ~0 == -1 && +2 == 2", "then"),
        ("UNDEFINED == 0", "then"),
        ("0 && 1 / 0", "else"),
        ("1 || 1 / 0", "then"),
        ("0 ? 1 / 0 : 2", "then"),
        ("(1 < 2) << 3 == 8", "then"),
        ("1 // a comment", "then"),
        ("0 /* a comment */ || 1", "then"),
    ])
    def test_condition_takes_c_branch(self, condition, taken):
        assert branch(condition) == taken

    @pytest.mark.parametrize("condition", [
        "2**3 == 8", "1 / 0", "1, 2", "X = 1", "sizeof(int) == 4", "", "1 )",
    ])
    def test_condition_outside_c_raises(self, condition):
        with pytest.raises(CppError, match="cannot evaluate #if condition"):
            preprocess(f"#if {condition}\nx\n#endif")


class TestIncludes:
    def test_include_from_directory(self, tmp_path):
        (tmp_path / "defs.h").write_text("#define FROM_HEADER 42\n")
        out = preprocess('#include "defs.h"\nFROM_HEADER',
                         include_dirs=[str(tmp_path)])
        assert "42" in out

    def test_missing_include_raises(self):
        with pytest.raises(CppError):
            preprocess('#include "nothere.h"')

    def test_predefined_macros(self):
        pp = Preprocessor(predefined={"GAWK_BUG": "1"})
        out = pp.preprocess("#ifdef GAWK_BUG\nbug\n#endif")
        assert clean(out) == "bug"
