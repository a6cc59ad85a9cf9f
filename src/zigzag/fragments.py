"""Fragment extraction: the units a detector classifies.

Two granularities:

* "function": one fragment per function, the whole function.
* "slice": one fragment per array-indexing statement: the backward
  closure over statements that define any name the slice already
  mentions (all occurrences, not just reaching definitions), in source
  order.  Only simple statements participate; loop and branch headers
  are control context and stay out.

A fragment holds its normalized tokens, taken once at extraction from
the AST by ``lang.printer.function_tokens`` or ``statement_tokens``;
nothing downstream prints or lexes it again.  Its ``text`` is derived
from the tokens for a reader.  A fragment is labeled 1 when it contains
a flagged statement.  It carries its program's split so later stages
can refuse to fit anything on test data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .corpus import CorpusProgram, function_labels
from .lang.nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    FunctionDef,
    Index,
    Program,
    SimpleStmt,
    Stmt,
    VarDecl,
    expr_names,
    stmt_expressions,
    walk_expr,
    walk_statements,
)
from .lang.printer import function_tokens, statement_tokens

FUNCTION_GRANULARITY = "function"
SLICE_GRANULARITY = "slice"
GRANULARITIES = (FUNCTION_GRANULARITY, SLICE_GRANULARITY)


class FragmentError(Exception):
    pass


@dataclass(slots=True)
class Fragment:
    id: str
    function: str
    tokens: tuple[str, ...]
    label: int
    split: str

    @property
    def text(self) -> str:
        """The tokens on one line, a string literal as ``""``:
        ``encoding.normalize_tokens`` reads it back to the tokens."""
        return " ".join('""' if tok == "STR" else tok for tok in self.tokens)


def _defined_names(st: Stmt) -> set[str]:
    if isinstance(st, (VarDecl, ArrayDecl, Assign)):
        return {st.name}
    if isinstance(st, ArrayAssign):
        # an element write defines (part of) the array
        return {st.name}
    return set()


def _used_names(st: Stmt) -> set[str]:
    used: set[str] = set()
    for e in stmt_expressions(st):
        used |= expr_names(e)
    if isinstance(st, ArrayAssign):
        used.add(st.name)
    return used


def _indexes_array(st: Stmt) -> bool:
    if isinstance(st, ArrayAssign):
        return True
    return any(
        isinstance(sub, Index) for e in stmt_expressions(st) for sub in walk_expr(e)
    )


def slice_statements(fn: FunctionDef) -> list[list[Stmt]]:
    """One backward slice per array-indexing simple statement."""
    simple = [st for st in walk_statements(fn.body) if isinstance(st, SimpleStmt)]
    defs: dict[str, list[Stmt]] = {}
    for st in simple:
        for name in _defined_names(st):
            defs.setdefault(name, []).append(st)

    slices: list[list[Stmt]] = []
    seen_keys: set[frozenset] = set()
    for crit in simple:
        if not _indexes_array(crit):
            continue
        acc = {id(crit): crit}
        work = [crit]
        while work:
            st = work.pop()
            for name in _used_names(st):
                for d in defs.get(name, []):
                    if id(d) not in acc:
                        acc[id(d)] = d
                        work.append(d)
        ordered = sorted(acc.values(), key=lambda s: s.line_id)
        key = frozenset(s.line_id for s in ordered)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        slices.append(ordered)
    return slices


def extract_fragments(item: CorpusProgram, granularity: str, program: Optional[Program] = None) -> list[Fragment]:
    """`item`'s fragments, cut from `program` (its parse) when given;
    otherwise the source is parsed here."""
    if granularity not in GRANULARITIES:
        raise FragmentError(f"unknown granularity {granularity!r}")
    if program is None:
        program = item.program()
    out: list[Fragment] = []
    if granularity == FUNCTION_GRANULARITY:
        labels = function_labels(program)
        for fn in program.functions:
            out.append(
                Fragment(
                    id=f"{item.id}/{fn.name}",
                    function=fn.name,
                    tokens=function_tokens(fn),
                    label=labels[fn.name],
                    split=item.split,
                )
            )
        return out
    for fn in program.functions:
        for k, stmts in enumerate(slice_statements(fn)):
            label = int(any(st.vuln for st in stmts))
            out.append(
                Fragment(
                    id=f"{item.id}/{fn.name}/s{k}",
                    function=fn.name,
                    tokens=statement_tokens(stmts),
                    label=label,
                    split=item.split,
                )
            )
    return out
