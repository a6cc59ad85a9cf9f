"""Tokenizer for the mini language.

``lex`` returns a ``TokenStream``: the raw text of every token in one
flat list (``texts``, ending with the eof token's empty text), the
index of each line's first token (``firsts``) and each line's texts as
a tuple (``lines``).  No token spans a newline, so the source is
scanned a line at a time.  A line's texts depend on that line alone,
and programs and their variants repeat lines, so a bounded cache keeps
the texts of recent distinct lines and each is scanned by one
``findall`` only when it is not there.  A comment can only be a line's
last match, and is dropped there.  A line without a comment keeps in
``lines`` the tuple the cache holds, shared by every source with that
line; the parser's statement memo (``parser.parse``) keys on them.
Nothing else is built per token: a token's kind comes from its
first character (and ``KEYWORDS``), its line from a bisect over
``firsts``, and its column from a rescan of that one line, computed
only when asked for.  The parser reads ``texts`` by index, and a raw
text names its token: a string literal keeps its quotes and escapes, so
no string equals an operator, a keyword or a punctuation mark.

A source is valid when every character outside blanks, strings and
comments belongs to a token; the scan's last alternative takes any
other character alone.  So the scan refuses a line whose texts hold a
one-character text that is no token, and a source that holds one is
rescanned line by line, only to name the first error and its column.

Indexing, iterating or slicing a ``TokenStream`` gives ``Token``
objects, with string literals decoded.  Lines and columns count
characters from 1, so a tab is one column.

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
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterator

from .errors import SyntaxErrorML
from .nodes import KEYWORDS

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_UNESCAPES = {value: "\\" + name for name, value in _ESCAPES.items()}

# a string literal up to its closing quote; a literal that fails to
# close is diagnosed from where this match ends
_STRING_PREFIX = r'"(?:[^"\\\n]|\\[nt"\\])*'
# one token or any other non-blank character, the most frequent kinds
# first; a comment comes before the `/` operator, `&&` and `||` before
# a lone `&` or `|`, and a lone character last
_TOKEN = (r"[A-Za-z_][A-Za-z0-9_]*|[(){}\[\],;+*%-]|[0-9]+|[=!<>]=?|//.*|"
          + _STRING_PREFIX + r'"|&&|\|\||[^ \t\r]')
# a blank run, then one token; the scan keeps the token, and the rescan
# for columns where it starts
_TOKENS = re.compile(r"[ \t\r]*(" + _TOKEN + ")")
# both scans get each line with its trailing blanks stripped (the cached
# scan its leading ones too): a blank run that no token follows would be
# retried from each of its positions, in time quadratic in its length
_BLANKS = " \t\r"
# the first characters of identifiers (and keywords) and of integer literals
NAME_START = frozenset("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
DIGITS = frozenset("0123456789")
# token kind by first character; the eof token's text is empty
_KIND = {**dict.fromkeys(NAME_START, "ident"), **dict.fromkeys(DIGITS, "int"),
         **dict.fromkeys("=<>+-*/%!&|", "op"), **dict.fromkeys("(){}[],;", "punct"), '"': "str", "": "eof"}
# the one-character texts that are tokens; any other is a lone character
# that no token takes, the only texts an invalid source scans to
_SINGLE_TOKENS = NAME_START | DIGITS | frozenset("=<>+-*/%(){}[],;")
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


def string_value(text: str) -> str:
    """The value of a string literal's raw text: quotes dropped, escapes decoded."""
    value = text[1:-1]
    if "\\" in value:
        value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], value)
    return value


def kind_of(text: str) -> str:
    """The kind of a token's raw text."""
    kind = _KIND[text[:1]]
    return "keyword" if kind == "ident" and text in KEYWORDS else kind


def _columns(text_of_line: str) -> list[tuple[int, str]]:
    """(column, raw text) of each match on one line, a comment included."""
    return [(m.start(1) + 1, m.group(1)) for m in _TOKENS.finditer(text_of_line.rstrip(_BLANKS))]


def _first_error(lines: list[str]) -> SyntaxErrorML:
    """The error at the first lone character of a source that holds one."""
    for line, text_of_line in enumerate(lines, 1):
        for col, text in _columns(text_of_line):
            if len(text) == 1 and text not in _SINGLE_TOKENS:
                if text != '"':
                    return SyntaxErrorML(f"unexpected character {text!r}", line, col)
                end = _STRING_PREFIX_RE.match(text_of_line, col - 1).end()
                if end < len(text_of_line) and text_of_line[end] == "\\":
                    return SyntaxErrorML("bad escape sequence", line, end + 2)
                return SyntaxErrorML("unterminated string literal", line, col)
    raise AssertionError("no lone character in the source")


class TokenStream:
    """The tokens of one source: raw texts, ending with eof's empty text,
    the index of each line's first token (a line without tokens holds
    the index of the next token), and each line's texts, a comment
    dropped, as a tuple no caller changes."""

    __slots__ = ("texts", "firsts", "lines", "source")

    def __init__(self, texts: list[str], firsts: list[int], lines: list[tuple[str, ...]], source: str) -> None:
        self.texts = texts
        self.firsts = firsts
        self.lines = lines
        self.source = source

    def __len__(self) -> int:
        return len(self.texts)

    def line(self, index: int) -> int:
        """The line of token `index`."""
        return bisect_right(self.firsts, index)

    def position(self, index: int) -> tuple[int, int]:
        """(line, col) of token `index`, the line rescanned for the column."""
        line = self.line(index)
        text_of_line = self.source.split("\n")[line - 1]
        if index == len(self.texts) - 1:  # eof, just past the last line
            return line, len(text_of_line) + 1
        return line, _columns(text_of_line)[index - self.firsts[line - 1]][0]

    def _token(self, text: str, line: int, col: int) -> Token:
        kind = kind_of(text)
        return Token(kind, string_value(text) if kind == "str" else text, line, col)

    def __iter__(self) -> Iterator[Token]:
        """Every token, eof last, each line rescanned once."""
        ends = self.firsts[1:] + [len(self.texts) - 1]
        for line, (text_of_line, first, end) in enumerate(zip(self.source.split("\n"), self.firsts, ends), 1):
            for col, text in _columns(text_of_line)[:end - first]:  # not a comment
                yield self._token(text, line, col)
        yield self[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        index = range(len(self.texts))[index]  # negative indexes, and IndexError
        return self._token(self.texts[index], *self.position(index))


# The most distinct lines whose texts `_scan` keeps, the least recently
# used dropped first.  Programs and their variants repeat lines: the
# count-400 pinned pipeline's train and test corpora (gen --count 400
# --seed 1, md5 on train, all on test) hold 240,395 lines, 2,869 of them
# distinct once their blanks are stripped (4,213 with leading blanks).
_SCAN_CACHE_LINES = 4096


class _LoneCharacter(Exception):
    """A line holds a character that no token takes."""


@lru_cache(maxsize=_SCAN_CACHE_LINES)
def _scan(line: str) -> tuple[str, ...]:
    """The raw texts of one line stripped of its blanks, a comment
    included; leading blanks make no token, so lines that differ only in
    indent share one entry.  The tuple is shared by every source that
    holds the line, so no caller changes it.  A line that holds a lone
    character raises _LoneCharacter, which is not cached."""
    texts = tuple(_TOKENS.findall(line))
    if any(len(text) == 1 and text not in _SINGLE_TOKENS for text in texts):
        raise _LoneCharacter
    return texts


def lex(source: str) -> tuple[TokenStream, set[int]]:
    """The token stream of `source`, and the lines holding `//@vuln`.

    Each line's raw texts come from ``_scan``, which scans a distinct
    line once; the stream keeps them in one list, with the count of
    texts before each line, and keeps each line's tuple, which the
    parser's statement memo reads.  No line or column is computed here:
    ``TokenStream.position`` computes one when a caller asks.  A source
    that does not lex raises SyntaxErrorML at its first error.
    """
    lines = source.split("\n")
    try:
        per_line = [_scan(text_of_line.strip(_BLANKS)) for text_of_line in lines]
    except _LoneCharacter:
        raise _first_error(lines) from None
    vuln_lines: set[int] = set()
    if "//" in source:
        for line, found in enumerate(per_line, 1):
            if found and found[-1][:2] == "//":
                per_line[line - 1] = found[:-1]
                if found[-1][2:].strip() == "@vuln":
                    vuln_lines.add(line)
    texts = list(chain.from_iterable(per_line))
    texts.append("")
    firsts = list(accumulate(map(len, per_line[:-1]), initial=0))
    return TokenStream(texts, firsts, per_line, source), vuln_lines
