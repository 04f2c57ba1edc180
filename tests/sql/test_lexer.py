"""Tests for the SQL lexer."""

import pytest

from repro.errors import LexerError
from repro.sql.lexer import Token, TokenType, tokenize


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text)[:-1]]


class TestBasics:
    def test_keywords_uppercased(self):
        assert kinds("select FROM Where") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.KEYWORD, "FROM"),
            (TokenType.KEYWORD, "WHERE"),
        ]

    def test_identifiers_keep_case(self):
        assert kinds("lineitem L1") == [
            (TokenType.IDENT, "lineitem"),
            (TokenType.IDENT, "L1"),
        ]

    def test_eof_token_present(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.EOF

    def test_empty_input(self):
        tokens = tokenize("   ")
        assert len(tokens) == 1 and tokens[0].type is TokenType.EOF


class TestNumbers:
    def test_integer(self):
        assert kinds("42") == [(TokenType.INTEGER, "42")]

    def test_float(self):
        assert kinds("3.14") == [(TokenType.FLOAT, "3.14")]

    def test_scientific(self):
        assert kinds("1e6 2.5E-3") == [
            (TokenType.FLOAT, "1e6"),
            (TokenType.FLOAT, "2.5E-3"),
        ]

    def test_integer_then_dot_ident(self):
        # "1.x" should not swallow the dot into a float.
        assert kinds("l.x")[0] == (TokenType.IDENT, "l")


class TestStrings:
    def test_simple_string(self):
        assert kinds("'ASIA'") == [(TokenType.STRING, "ASIA")]

    def test_escaped_quote(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'oops")


class TestOperators:
    def test_comparison_operators(self):
        assert [v for _, v in kinds("= <> < <= > >=")] == [
            "=", "<>", "<", "<=", ">", ">=",
        ]

    def test_bang_equals_normalized(self):
        assert kinds("!=") == [(TokenType.OPERATOR, "<>")]

    def test_arithmetic_and_punct(self):
        assert [v for _, v in kinds("( a , b ) . *")] == [
            "(", "a", ",", "b", ")", ".", "*",
        ]

    def test_unknown_character(self):
        with pytest.raises(LexerError):
            tokenize("a ; b")


class TestCommentsAndPositions:
    def test_line_comment_skipped(self):
        assert kinds("a -- comment\n b") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "b"),
        ]

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_is_keyword_helper(self):
        token = Token(TokenType.KEYWORD, "SELECT", 1, 1)
        assert token.is_keyword("select")
        assert not token.is_keyword("from")


class TestErrorPositions:
    def error(self, text):
        with pytest.raises(LexerError) as info:
            tokenize(text)
        return str(info.value), info.value.line, info.value.column

    def test_unterminated_string_reports_its_opening_quote(self):
        # The trailing '' is an escaped quote, not the closing one.
        message, line, column = self.error("x = 'ab''")
        assert "unterminated string literal" in message
        assert (line, column) == (1, 5)

    def test_unexpected_character_after_newlines_and_comments(self):
        message, line, column = self.error("a -- note\n\n  b ;")
        assert "unexpected character ';'" in message
        assert (line, column) == (3, 5)

    def test_positions_after_multiline_string(self):
        tokens = tokenize("'a\nbc' x")
        assert tokens[0].value == "a\nbc"
        assert (tokens[1].line, tokens[1].column) == (2, 5)


class TestUnicode:
    def test_letters_form_identifiers(self):
        assert kinds("café _x名") == [
            (TokenType.IDENT, "café"),
            (TokenType.IDENT, "_x名"),
        ]

    def test_non_decimal_digits_lex_as_numbers(self):
        assert kinds("²3 1e²") == [
            (TokenType.INTEGER, "²3"),
            (TokenType.FLOAT, "1e²"),
        ]

    def test_numeric_non_digit_cannot_start_a_word(self):
        with pytest.raises(LexerError) as info:
            tokenize("a ½b")
        assert "unexpected character '½'" in str(info.value)
        assert kinds("a½") == [(TokenType.IDENT, "a½")]

    def test_digit_class_matches_str_isdigit(self):
        import re

        from repro.sql.lexer import _DIGIT

        every = "".join(map(chr, range(0x110000)))
        assert set(re.findall(_DIGIT, every)) == {c for c in every if c.isdigit()}
