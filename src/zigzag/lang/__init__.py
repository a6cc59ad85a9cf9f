"""Mini-language front end: parse, validate, print, tokenize, interpret."""
from __future__ import annotations

from . import nodes
from .errors import (
    MiniLangError,
    SourceError,
    SyntaxErrorML,
    UndeclaredIdentifierError,
    UnknownEntryError,
    ValidationErrorML,
)
from .interp import (
    COMPLETED,
    DIVISION_BY_ZERO,
    ExecResult,
    FUEL_EXHAUSTED,
    INPUT_EXHAUSTED,
    OUT_OF_BOUNDS,
    RUNTIME_ERROR,
    TYPE_ERROR,
    interpret,
)
from .lexer import Token, lex
from .nodes import Program
from .parser import parse, validate_program
from .printer import pretty_print


def tokenize(source: str) -> list[Token]:
    """Token stream of source text, vuln markers excluded.

    Tokens carry a .category in {keyword, identifier, literal, operator,
    punctuation}.  Joining token texts with canonical spacing re-parses
    to a program structurally equal to the input (LineIds are fresh and
    vuln flags are dropped with the markers).
    """
    tokens, _ = lex(source)
    return [t for t in tokens if t.kind != "eof"]


__all__ = [
    "COMPLETED",
    "DIVISION_BY_ZERO",
    "ExecResult",
    "FUEL_EXHAUSTED",
    "INPUT_EXHAUSTED",
    "MiniLangError",
    "OUT_OF_BOUNDS",
    "Program",
    "RUNTIME_ERROR",
    "SourceError",
    "SyntaxErrorML",
    "TYPE_ERROR",
    "Token",
    "UndeclaredIdentifierError",
    "UnknownEntryError",
    "ValidationErrorML",
    "interpret",
    "nodes",
    "parse",
    "pretty_print",
    "tokenize",
    "validate_program",
]
