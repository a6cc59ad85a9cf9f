"""Tokenizer for the mini language.

One compiled regular expression, with a named group per token kind, is
scanned over the source from left to right.  Lines and columns count
characters from 1; a token's column is its offset from the start of its
line, so a tab is one column.

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
from .nodes import KEYWORDS

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_UNESCAPES = {value: "\\" + name for name, value in _ESCAPES.items()}

# a string literal up to its closing quote; a literal that fails to
# close is diagnosed from where this match ends
_STRING_PREFIX = r'"(?:[^"\\\n]|\\[nt"\\])*'
# alternatives are tried in order: a comment before the `/` operator,
# two-character operators before their one-character prefixes
_TOKEN = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in (
    ("space", r"[ \t\r\n]+"),
    ("comment", r"//[^\n]*"),
    ("int", r"[0-9]+"),
    ("word", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("str", _STRING_PREFIX + '"'),
    ("op", r"[=!<>]=|&&|\|\||[-+*/%<>=]"),
    ("punct", r"[(){}\[\],;]"),
    ("other", r"."),
)))
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


def _string_error(source: str, start: int, line: int, line_start: int) -> SyntaxErrorML:
    """The error for a string literal opening at `start` that does not close."""
    end = _STRING_PREFIX_RE.match(source, start).end()
    if end < len(source) and source[end] == "\\":
        return SyntaxErrorML("bad escape sequence", line, end + 1 - line_start + 1)
    return SyntaxErrorML("unterminated string literal", line, start - line_start + 1)


def lex(source: str) -> tuple[list[Token], set[int]]:
    """Tokens ending with an `eof` token, and the lines holding `//@vuln`.

    A string token's text is the decoded value; the printer re-escapes it.
    """
    tokens: list[Token] = []
    vuln_lines: set[int] = set()
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m.group()
        start = m.start()
        if kind == "space":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if kind == "word":
            tokens.append(Token("keyword" if text in KEYWORDS else "ident", text, line, col))
        elif kind == "str":
            value = text[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], value)
            tokens.append(Token("str", value, line, col))
        elif kind == "comment":
            if text[2:].strip() == "@vuln":
                vuln_lines.add(line)
        elif kind == "other":
            if text == '"':
                raise _string_error(source, start, line, line_start)
            raise SyntaxErrorML(f"unexpected character {text!r}", line, col)
        else:
            tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens, vuln_lines
