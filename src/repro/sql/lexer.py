"""SQL lexer: text -> token stream, with line/column tracking.

One compiled master pattern scans the statement; each match is one token
together with the whitespace and ``--`` comments before it.  The
alternatives follow the dialect's lexical rules:

* a word starts with a letter or ``_`` and continues with letters,
  digits or ``_``; reserved words (:data:`KEYWORDS`) come out uppercase;
* a number is a digit run with an optional ``.digits`` fraction and an
  optional ``e[+-]digits`` exponent (either makes it a FLOAT);
* a string is single-quoted, ``''`` escaping a quote.  The possessive
  repetition never backtracks out of an escape, so an unterminated
  literal fails as a whole and is reported at its opening quote;
* operators (``!=`` is spelled ``<>``) and punctuation.

"Letter" and "digit" mean what ``str.isalpha``/``str.isdigit`` say, so
Unicode identifiers work.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import LexerError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    OPERATOR = "operator"  # = <> < <= > >= + - * /
    PUNCT = "punct"  # ( ) , .
    EOF = "eof"


#: Reserved words, stored uppercase.  Anything else is an identifier.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "OPTION",
        "AS", "AND", "OR", "NOT", "BETWEEN", "LIKE", "IN", "IS", "NULL",
        "USEPLAN", "ASC", "DESC", "DISTINCT",
        "SUM", "COUNT", "AVG", "MIN", "MAX",
    }
)


class Token(NamedTuple):
    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word.upper()

    def __str__(self) -> str:  # pragma: no cover - diagnostics only
        return f"{self.type.value}:{self.value!r}@{self.line}:{self.column}"


#: characters ``str.isdigit`` accepts beyond the decimal digits ``\d``
#: matches (superscripts, circled digits, ...; Unicode Numeric_Type=Digit)
_OTHER_DIGITS = (
    "\u00b2-\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    "\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
    "\u2776-\u277e\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43"
    "\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a"
)
_DIGIT = r"[\d" + _OTHER_DIGITS + "]"

# Group numbers double as the token kinds the loop dispatches on.  Numbers
# come before words: the word start ``[^\W\d]`` also admits _OTHER_DIGITS.
_SKIP = r"(?:[ \t\r\n]++|--[^\n]*+)*+"
_TOKEN_RE = re.compile(
    rf"""{_SKIP}(?:
      (?P<number>{_DIGIT}+(?:\.{_DIGIT}+)?(?:[eE][+-]?{_DIGIT}+)?)
    | (?P<word>[^\W\d]\w*)
    | (?P<punct>[(),.])
    | (?P<op><>|<=|>=|!=|[=<>+\-*/])
    | (?P<string>'(?:[^']|'')*+')
    )""",
    re.VERBOSE,
)
_SKIP_RE = re.compile(_SKIP)
_NUMBER, _WORD, _PUNCT, _OP = 1, 2, 3, 4

_KEYWORD = TokenType.KEYWORD
_IDENT = TokenType.IDENT
_new_token = tuple.__new__  # skips NamedTuple.__new__'s Python frame


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _error(text: str, pos: int) -> LexerError:
    line, column = _line_col(text, pos)
    ch = text[pos]
    if ch == "'":
        return LexerError("unterminated string literal", line, column)
    return LexerError(f"unexpected character {ch!r}", line, column)


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into a token list ending with an EOF token."""
    out: list[Token] = []
    append = out.append
    keywords = KEYWORDS
    size = len(text)
    line = 1
    line_start = 0  # offset of the current line's first character
    next_nl = text.find("\n")  # offset of the next newline, or ``size``
    if next_nl < 0:
        next_nl = size
    pos = 0
    # The token pattern's word start ``[^\W\d]`` also admits numeric
    # non-digits (fractions, Roman numerals), which only non-ASCII text
    # holds.
    check_words = not text.isascii()
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:
            break  # no token at ``pos``
        kind = match.lastindex
        start, pos = match.span(kind)
        while next_nl < start:
            line += 1
            line_start = next_nl + 1
            next_nl = text.find("\n", line_start)
            if next_nl < 0:
                next_nl = size
        column = start - line_start + 1
        value = match.group(kind)
        if kind == _WORD:
            upper = value.upper()
            if upper in keywords:
                append(_new_token(Token, (_KEYWORD, upper, line, column)))
                continue
            if check_words and not (value[0].isalpha() or value[0] == "_"):
                raise _error(text, start)
            append(_new_token(Token, (_IDENT, value, line, column)))
        elif kind == _NUMBER:
            kind = TokenType.INTEGER if value.isdigit() else TokenType.FLOAT
            append(_new_token(Token, (kind, value, line, column)))
        elif kind == _PUNCT:
            append(_new_token(Token, (TokenType.PUNCT, value, line, column)))
        elif kind == _OP:
            if value == "!=":
                value = "<>"
            append(_new_token(Token, (TokenType.OPERATOR, value, line, column)))
        else:
            value = value[1:-1].replace("''", "'")
            append(_new_token(Token, (TokenType.STRING, value, line, column)))
    pos = _SKIP_RE.match(text, pos).end()
    if pos != size:
        raise _error(text, pos)
    line, column = _line_col(text, pos)
    append(_new_token(Token, (TokenType.EOF, "", line, column)))
    return out
