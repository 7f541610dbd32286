"""Lexer unit tests."""

import pytest
from hypothesis import given, strategies as st

from repro.cfront import LexError, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == "eof"

    def test_identifier_vs_keyword(self):
        toks = tokenize("int foo")
        assert toks[0].kind == "keyword" and toks[0].text == "int"
        assert toks[1].kind == "ident" and toks[1].text == "foo"

    def test_identifier_with_underscores_and_digits(self):
        tok = tokenize("_x9_y")[0]
        assert tok.kind == "ident" and tok.text == "_x9_y"

    def test_all_keywords_recognized(self):
        for kw in ("while", "struct", "sizeof", "typedef", "return"):
            assert tokenize(kw)[0].kind == "keyword"

    def test_positions_track_source_offsets(self):
        toks = tokenize("ab + cd")
        assert toks[0].pos == 0
        assert toks[1].pos == 3
        assert toks[2].pos == 5
        assert toks[2].end == 7


class TestNumbers:
    def test_decimal(self):
        assert tokenize("12345")[0].value == 12345

    def test_hex(self):
        assert tokenize("0x1F")[0].value == 31

    def test_octal(self):
        assert tokenize("0755")[0].value == 493

    def test_zero_is_not_octal_error(self):
        assert tokenize("0")[0].value == 0

    @pytest.mark.parametrize("literal", ["08", "099u", "0789"])
    def test_octal_with_digit_8_or_9_raises(self, literal):
        with pytest.raises(LexError, match="line 1, col 8: invalid digit "
                                           f"in octal constant {literal}"):
            tokenize(f"return {literal};")

    def test_integer_suffixes_consumed(self):
        toks = tokenize("10UL 7u 3L")
        assert [t.value for t in toks[:3]] == [10, 7, 3]

    def test_float_literal(self):
        tok = tokenize("3.25")[0]
        assert tok.kind == "float" and tok.value == 3.25

    def test_float_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0


class TestStringsAndChars:
    def test_simple_string(self):
        assert tokenize('"hello"')[0].value == "hello"

    def test_escapes(self):
        assert tokenize(r'"a\n\t\\\""')[0].value == 'a\n\t\\"'

    def test_hex_escape(self):
        assert tokenize(r'"\x41"')[0].value == "A"

    def test_octal_escape(self):
        assert tokenize(r'"\101"')[0].value == "A"

    def test_adjacent_string_concatenation(self):
        assert tokenize('"foo" "bar"')[0].value == "foobar"

    def test_char_literal(self):
        tok = tokenize("'a'")[0]
        assert tok.kind == "char" and tok.value == 97

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].value == 10

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_multichar_char_literal_raises(self):
        with pytest.raises(LexError):
            tokenize("'ab'")


class TestOperators:
    def test_longest_match(self):
        assert texts("a >>= b") == ["a", ">>=", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("a -- b") == ["a", "--", "b"]

    def test_ellipsis(self):
        assert "..." in texts("f(int, ...)")

    def test_every_single_char_operator(self):
        for op in "+-*/%=<>!~&|^?:;,.()[]{}":
            assert texts(f"a {op} b" if op not in "([{" else f"a {op}")[1] == op


class TestTrivia:
    def test_line_comment(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_hash_lines_skipped(self):
        assert texts("#pragma weird\nx") == ["x"]

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_decimal_integers_roundtrip(self, n):
        assert tokenize(str(n))[0].value == n

    @given(st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,20}", fullmatch=True))
    def test_identifiers_roundtrip(self, name):
        tok = tokenize(name)[0]
        assert tok.text == name

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                                          exclude_characters='"\\'),
                   max_size=30))
    def test_plain_strings_roundtrip(self, body):
        assert tokenize(f'"{body}"')[0].value == body

    @given(st.lists(st.sampled_from(["x", "42", "+", "*", "(", ")", "if", '"s"']),
                    max_size=12))
    def test_token_count_matches_input(self, parts):
        source = " ".join(parts)
        toks = tokenize(source)
        strings = [p for p in parts if p == '"s"']
        # Adjacent string literals concatenate; everything else is 1:1.
        assert len(toks) <= len(parts) + 1
