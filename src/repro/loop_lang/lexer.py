"""Tokenizer for the concrete syntax of the loop-based language.

The concrete syntax follows the programs listed in Appendix B of the paper:
statements are terminated by ``;``, assignment is ``:=``, incremental updates
are written ``+=``, ``*=``, ``^=`` and so on, and for-loops use the
``for i = lo, hi do`` and ``for x in V do`` forms.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import LexerError, SourceLocation

#: Reserved words of the language.
KEYWORDS = frozenset(
    {
        "var",
        "for",
        "in",
        "do",
        "while",
        "if",
        "else",
        "true",
        "false",
    }
)

#: Multi-character operators / punctuation, longest first so that the longest
#: match wins during scanning.
MULTI_CHAR_SYMBOLS = [
    "^^=",
    ":=",
    "+=",
    "-=",
    "*=",
    "/=",
    "^=",
    "^^",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
]

#: Single-character symbols.
SINGLE_CHAR_SYMBOLS = "+-*/%^<>=!(){}[],;:."


class Token(NamedTuple):
    """A single lexical token (a named tuple: cheap to build, one per token).

    Attributes:
        kind: one of ``ident``, ``int``, ``float``, ``string``, ``keyword``,
            ``symbol`` or ``eof``.
        text: the matched source text (or canonical spelling for symbols).
        location: position of the first character of the token.
    """

    kind: str
    text: str
    location: SourceLocation

    def is_symbol(self, text: str) -> bool:
        return self.kind == "symbol" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


#: Escape sequences inside string literals; any other escaped character
#: stands for itself.
_ESCAPES = {"n": "\n", "t": "\t"}

#: The master pattern: one alternative per token class, tried in order at
#: each position.  ``space`` covers whitespace and every comment; the
#: ``open_*`` and ``other`` alternatives only match where the source is
#: malformed.  ``\d`` is a Unicode decimal digit and ``[^\W\d]`` a letter or
#: ``_`` (or a non-decimal numeric, rejected in :func:`tokenize`).
_TOKEN = re.compile(
    "|".join(
        (
            r"(?P<space>[ \t\r\n]+|//[^\n]*|#[^\n]*|/\*.*?\*/)",
            r"(?P<open_comment>/\*)",
            r"(?P<float>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))",
            r"(?P<int>\d+)",
            r"(?P<ident>[^\W\d]\w*)",
            r"""(?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')""",
            r"""(?P<open_string>["'])""",
            f"(?P<symbol>{'|'.join(map(re.escape, MULTI_CHAR_SYMBOLS))}|[{re.escape(SINGLE_CHAR_SYMBOLS)}])",
            r"(?P<other>.)",
        )
    ),
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(match: re.Match[str]) -> str:
    escaped = match.group(1)
    return _ESCAPES.get(escaped, escaped)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` and return the full token list (including ``eof``).

    Raises:
        LexerError: at an unterminated string (located at its opening quote),
            an unterminated block comment (located at the end of the input)
            or a character no token starts with.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0  # the column of offset i is i - line_start + 1
    for match in _TOKEN.finditer(source):
        kind, text, start = match.lastgroup, match.group(), match.start()
        if kind == "space":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            continue
        location = SourceLocation(line, start - line_start + 1)
        if kind == "ident":
            if text in KEYWORDS:
                kind = "keyword"
            elif not (text[0].isalpha() or text[0] == "_"):
                raise LexerError(f"unexpected character {text[0]!r}", location)
        elif kind == "string":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            text = _ESCAPE.sub(_unescape, text[1:-1]) if "\\" in text else text[1:-1]
        elif kind == "open_comment":  # reported where the input ends
            line += source.count("\n", start)
            line_start = max(line_start, source.rfind("\n") + 1)
            raise LexerError("unterminated block comment", SourceLocation(line, len(source) - line_start + 1))
        elif kind == "open_string":
            raise LexerError("unterminated string literal", location)
        elif kind == "other":
            raise LexerError(f"unexpected character {text!r}", location)
        tokens.append(Token(kind, text, location))
    tokens.append(Token("eof", "", SourceLocation(line, len(source) - line_start + 1)))
    return tokens
