"""Tokenizer for the mini language.

No token spans a newline, so the source is scanned a line at a time:
one ``findall`` yields the line's (blank run, token) pairs, a token's
column is the running sum of the lengths before it, and its kind comes
from its first character.  Lines and columns count characters from 1,
so a tab is one column.

Character set: whitespace is space, tab, carriage return and newline.
Identifiers are ASCII letters, ASCII digits and ``_``, not starting
with a digit; integer literals are ASCII digits.  String literals and
comments may hold any character but a newline.  Any other character
outside a string or a comment (a non-ASCII letter or digit included)
is a syntax error.

Comments run from ``//`` to end of line.  The comment ``//@vuln`` is a
line marker, not a token: the lexer records the physical lines that
carry it so the parser can flag the statement starting on that line.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SyntaxErrorML
from .nodes import BINARY_PREC, KEYWORDS

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_UNESCAPES = {value: "\\" + name for name, value in _ESCAPES.items()}

# a string literal up to its closing quote; a literal that fails to
# close is diagnosed from where this match ends
_STRING_PREFIX = r'"(?:[^"\\\n]|\\[nt"\\])*'
# a blank run, then one token or any other non-blank character; a
# comment comes before the `/` operator, two-character operators before
# their one-character prefixes, and a lone character last
_PAIR = re.compile(
    r"([ \t\r]*)(//.*|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|" + _STRING_PREFIX + r'"|[=!<>]=|&&|\|\||[^ \t\r])'
)
# token kind by first character; `/`, `!`, `&`, `|` and anything else
# are told apart by the whole token
_KIND = {**dict.fromkeys("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "ident"),
         **dict.fromkeys("0123456789", "int"), **dict.fromkeys("=<>+-*%", "op"),
         **dict.fromkeys("(){}[],;", "punct"), '"': "str"}
_STRING_PREFIX_RE = re.compile(_STRING_PREFIX)
_ESCAPE = re.compile(r"\\(.)")

@dataclass(slots=True)
class Token:
    kind: str  # keyword | ident | int | str | op | punct | eof
    text: str
    line: int
    col: int


def escape_string(value: str) -> str:
    return "".join(_UNESCAPES.get(ch, ch) for ch in value)


def _string_error(text: str, start: int, line: int) -> SyntaxErrorML:
    """The error for a string literal at offset `start` of line `text` that does not close."""
    end = _STRING_PREFIX_RE.match(text, start).end()
    if end < len(text) and text[end] == "\\":
        return SyntaxErrorML("bad escape sequence", line, end + 2)
    return SyntaxErrorML("unterminated string literal", line, start + 1)


def lex(source: str) -> tuple[list[Token], set[int]]:
    """Tokens ending with an `eof` token, and the lines holding `//@vuln`.

    A string token's text is the decoded value; the printer re-escapes it.
    """
    tokens: list[Token] = []
    vuln_lines: set[int] = set()
    for line, text_of_line in enumerate(source.split("\n"), 1):
        col = 1
        for blank, text in _PAIR.findall(text_of_line):
            col += len(blank)
            kind = _KIND.get(text[0])
            if kind == "ident":
                if text in KEYWORDS:
                    kind = "keyword"
            elif kind == "str":
                if len(text) == 1:
                    raise _string_error(text_of_line, col - 1, line)
                value = text[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], value)
                tokens.append(Token("str", value, line, col))
                col += len(text)
                continue
            elif kind is None:
                if text[:2] == "//":  # the line's last pair
                    if text[2:].strip() == "@vuln":
                        vuln_lines.add(line)
                    break
                if text not in BINARY_PREC:
                    raise SyntaxErrorML(f"unexpected character {text!r}", line, col)
                kind = "op"
            tokens.append(Token(kind, text, line, col))
            col += len(text)
    tokens.append(Token("eof", "", line, len(text_of_line) + 1))
    return tokens, vuln_lines
