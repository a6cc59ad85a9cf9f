"""Mini-language front end: lex, parse, validate, print, interpret."""
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
from .lexer import Token
from .nodes import Program
from .parser import parse, validate_program
from .printer import pretty_print

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
    "validate_program",
]
