"""Tests for the loop-language tokenizer."""

import pytest

from repro.errors import LexerError
from repro.loop_lang.lexer import MULTI_CHAR_SYMBOLS, SINGLE_CHAR_SYMBOLS, Token, tokenize


def kinds(source):
    return [token.kind for token in tokenize(source)]


def texts(source):
    return [token.text for token in tokenize(source) if token.kind != "eof"]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifier(self):
        assert texts("sum_x") == ["sum_x"]

    def test_keyword_recognition(self):
        assert kinds("for")[:-1] == ["keyword"]
        assert kinds("while")[:-1] == ["keyword"]
        assert kinds("forx")[:-1] == ["ident"]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind == "int"
        assert tokens[0].text == "42"

    def test_float_literal(self):
        tokens = tokenize("3.14")
        assert tokens[0].kind == "float"

    def test_float_with_exponent(self):
        tokens = tokenize("1.0e12")
        assert tokens[0].kind == "float"
        assert tokens[0].text == "1.0e12"

    def test_integer_followed_by_dot_projection_not_float(self):
        # "v.1" style is not produced by the benchmarks, but "2." should not
        # swallow the dot when no digit follows.
        tokens = tokenize("2.x")
        assert tokens[0].kind == "int"

    def test_string_literal_double_quotes(self):
        tokens = tokenize('"key1"')
        assert tokens[0].kind == "string"
        assert tokens[0].text == "key1"

    def test_string_literal_with_escape(self):
        tokens = tokenize(r'"a\nb"')
        assert tokens[0].text == "a\nb"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            tokenize('"abc')


class TestOperators:
    def test_assignment_operator(self):
        assert ":=" in texts("x := 1;")

    def test_incremental_operators(self):
        for symbol in ["+=", "-=", "*=", "/=", "^=", "^^="]:
            assert symbol in texts(f"x {symbol} 1;")

    def test_comparison_operators(self):
        for symbol in ["==", "!=", "<=", ">=", "<", ">"]:
            assert symbol in texts(f"a {symbol} b")

    def test_boolean_operators(self):
        assert "&&" in texts("a && b")
        assert "||" in texts("a || b")

    def test_custom_monoid_operators(self):
        assert "^" in texts("a ^ b")
        assert "^^" in texts("a ^^ b")

    def test_longest_match_wins(self):
        # "^^=" must not be tokenized as "^" "^" "=".
        assert texts("x ^^= y;")[1] == "^^="

    def test_unexpected_character_raises(self):
        with pytest.raises(LexerError):
            tokenize("a @ b")


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert texts("x // comment\n:= 1;") == ["x", ":=", "1", ";"]

    def test_hash_comment_skipped(self):
        assert texts("x # comment\n:= 1;") == ["x", ":=", "1", ";"]

    def test_block_comment_skipped(self):
        assert texts("x /* a\nb */ := 1;") == ["x", ":=", "1", ";"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("/* never closed")

    def test_locations_track_lines(self):
        tokens = tokenize("a\nb")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2


class TestTokenHelpers:
    def test_is_symbol(self):
        token = tokenize("+")[0]
        assert token.is_symbol("+")
        assert not token.is_symbol("-")

    def test_is_keyword(self):
        token = tokenize("for")[0]
        assert token.is_keyword("for")
        assert not token.is_keyword("while")

    def test_str_representation(self):
        assert "int" in str(Token("int", "3", tokenize("3")[0].location))


def located(source):
    return [
        (token.kind, token.text, token.location.line, token.location.column) for token in tokenize(source)
    ]


def lexer_error(source):
    with pytest.raises(LexerError) as caught:
        tokenize(source)
    return str(caught.value), (caught.value.location.line, caught.value.location.column)


class TestPinnedBehaviour:
    """Exact tokens, locations and messages, pinned against rewrites of the scanner."""

    def test_locations_after_a_multiline_block_comment(self):
        assert located("a /* one\n two\n  three */ b\n\tc") == [
            ("ident", "a", 1, 1),
            ("ident", "b", 3, 12),
            ("ident", "c", 4, 2),
            ("eof", "", 4, 3),
        ]

    def test_locations_after_a_multiline_string(self):
        assert located('x := "ab\ncd" ;\n y') == [
            ("ident", "x", 1, 1),
            ("symbol", ":=", 1, 3),
            ("string", "ab\ncd", 1, 6),
            ("symbol", ";", 2, 5),
            ("ident", "y", 3, 2),
            ("eof", "", 3, 3),
        ]

    def test_escaped_newline_and_quotes_inside_strings(self):
        assert located("'a\\\nb\\'' \"\\q\\\"\" z") == [
            ("string", "a\nb'", 1, 1),
            ("string", 'q"', 2, 6),
            ("ident", "z", 2, 13),
            ("eof", "", 2, 14),
        ]

    def test_comments_to_end_of_line(self):
        assert located("a // x := 1\r\n# y\nb") == [
            ("ident", "a", 1, 1),
            ("ident", "b", 3, 1),
            ("eof", "", 3, 2),
        ]

    def test_unicode_identifiers(self):
        assert located("größe := αβ1 + _ü2 + 日本") == [
            ("ident", "größe", 1, 1),
            ("symbol", ":=", 1, 7),
            ("ident", "αβ1", 1, 10),
            ("symbol", "+", 1, 14),
            ("ident", "_ü2", 1, 16),
            ("symbol", "+", 1, 20),
            ("ident", "日本", 1, 22),
            ("eof", "", 1, 24),
        ]

    def test_unicode_digits_inside_an_identifier(self):
        assert texts("x٣ ٣") == ["x٣", "٣"]
        assert kinds("٣")[:-1] == ["int"]

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("1e5", [("float", "1e5")]),
            ("1.5E-3", [("float", "1.5E-3")]),
            ("2E+10", [("float", "2E+10")]),
            ("2.x", [("int", "2"), ("symbol", "."), ("ident", "x")]),
            ("3.", [("int", "3"), ("symbol", ".")]),
            ("1e", [("int", "1"), ("ident", "e")]),
            ("1e+", [("int", "1"), ("ident", "e"), ("symbol", "+")]),
            ("1.5e-x", [("float", "1.5"), ("ident", "e"), ("symbol", "-"), ("ident", "x")]),
            ("1.2.3", [("float", "1.2"), ("symbol", "."), ("int", "3")]),
            ("007", [("int", "007")]),
            ("12ab", [("int", "12"), ("ident", "ab")]),
        ],
    )
    def test_numbers(self, source, expected):
        assert [(token.kind, token.text) for token in tokenize(source)][:-1] == expected

    @pytest.mark.parametrize("symbol", MULTI_CHAR_SYMBOLS)
    def test_longest_match_for_every_multi_character_symbol(self, symbol):
        assert located(f"a{symbol}b") == [
            ("ident", "a", 1, 1),
            ("symbol", symbol, 1, 2),
            ("ident", "b", 1, 2 + len(symbol)),
            ("eof", "", 1, 3 + len(symbol)),
        ]

    def test_adjacent_symbols_split_greedily(self):
        assert texts(":==^^^=!==") == [":=", "=", "^^", "^=", "!=", "="]

    def test_every_single_character_symbol(self):
        assert texts(" ".join(SINGLE_CHAR_SYMBOLS)) == list(SINGLE_CHAR_SYMBOLS)

    def test_unterminated_string_message_and_location(self):
        assert lexer_error('x := 1;\n  y := "abc\n') == (
            "unterminated string literal at line 2, column 8",
            (2, 8),
        )
        assert lexer_error("'abc\\") == ("unterminated string literal at line 1, column 1", (1, 1))

    def test_unterminated_block_comment_message_and_location(self):
        # Reported where the input ends, not where the comment opened.
        assert lexer_error("x;\n/* never\n closed") == (
            "unterminated block comment at line 3, column 8",
            (3, 8),
        )
        assert lexer_error("/*/") == ("unterminated block comment at line 1, column 4", (1, 4))

    def test_unexpected_character_message_and_location(self):
        assert lexer_error("a := 1;\n  b @ c") == ("unexpected character '@' at line 2, column 5", (2, 5))
        assert lexer_error("x $") == ("unexpected character '$' at line 1, column 3", (1, 3))
        assert lexer_error("x\n\n  ½") == ("unexpected character '½' at line 3, column 3", (3, 3))
