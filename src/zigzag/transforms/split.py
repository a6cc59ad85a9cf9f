"""Function and block splitting (ct6, ct7, ct8).

ct6 (SplitTop) rewrites every for-loop to its while form, then splits
each function with two or more top-level statements into chunks.  The
first chunk keeps the function's name and signature; each later chunk
becomes a successor function receiving the locals that are defined
before the cut and mentioned at or after it, threaded by tail calls so
early returns propagate unchanged.

ct7 (SplitBlock) picks one eligible straight-line statement run per
function and outlines its parts into functions.  A part may write at
most one variable binding; the part function returns that binding's new
value and the call site reassigns it, which is type-agnostic (arrays
travel by reference, so element writes need no write-back).

ct8 (SplitRecursive) applies ct7 and then outlines the freshly
introduced call sequence once more.
"""
from __future__ import annotations

import numpy as np

from ..lang.nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    Call,
    CallStmt,
    Expr,
    For,
    FunctionDef,
    Index,
    Program,
    Return,
    Stmt,
    Var,
    VarDecl,
    child_blocks,
    desugar_for,
    walk_expr,
    walk_program,
)
from .base import InapplicableTransform, Namer, clone_program, mentioned_names

_RUN_KINDS = (Assign, ArrayAssign, CallStmt)


# --------------------------------------------------------------------------
# ct6

def _rewrite_fors(stmts: list[Stmt]) -> list[Stmt]:
    out: list[Stmt] = []
    for st in stmts:
        for block in child_blocks(st):
            block[:] = _rewrite_fors(block)
        if isinstance(st, For):
            out.extend(desugar_for(st))
        else:
            out.append(st)
    return out


def _top_level_defs(stmts: list[Stmt]) -> list[str]:
    return [st.name for st in stmts if isinstance(st, (VarDecl, ArrayDecl))]


def _split_function(fn: FunctionDef, rng: np.random.Generator, namer: Namer) -> list[FunctionDef]:
    n = len(fn.body)
    chunk_count = int(min(n, rng.integers(2, 5)))
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=chunk_count - 1, replace=False))
    bounds = [0] + cuts + [n]
    chunks = [fn.body[a:b] for a, b in zip(bounds, bounds[1:])]

    defined_order: list[list[str]] = []
    acc = list(fn.params)
    for chunk in chunks:
        defined_order.append(list(acc))
        acc.extend(_top_level_defs(chunk))

    live_at: list[list[str]] = []
    for i in range(len(chunks)):
        mentioned = mentioned_names([st for chunk in chunks[i:] for st in chunk])
        live_at.append([v for v in defined_order[i] if v in mentioned])

    names = [fn.name] + [namer.fresh(f"{fn.name}_p") for _ in range(len(chunks) - 1)]
    out: list[FunctionDef] = []
    for i, chunk in enumerate(chunks):
        body = list(chunk)
        if i + 1 < len(chunks):
            call = Call(names[i + 1], [Var(v) for v in live_at[i + 1]])
            body.append(Return(call))
        params = list(fn.params) if i == 0 else live_at[i]
        out.append(FunctionDef(names[i], params, body))
    return out


def pass_ct6(program: Program, rng: np.random.Generator) -> Program:
    draft = clone_program(program)
    had_fors = any(isinstance(st, For) for st in walk_program(draft))
    for fn in draft.functions:
        fn.body = _rewrite_fors(fn.body)

    namer = Namer(draft)
    new_functions: list[FunctionDef] = []
    split_any = False
    for fn in draft.functions:
        if len(fn.body) >= 2:
            new_functions.extend(_split_function(fn, rng, namer))
            split_any = True
        else:
            new_functions.append(fn)
    if not (had_fors or split_any):
        raise InapplicableTransform("ct6", "no for-loops and no function with two or more top-level statements")
    draft.functions = new_functions
    return draft


# --------------------------------------------------------------------------
# ct7 / ct8

def _ordered_names(e: Expr) -> list[str]:
    out: list[str] = []
    for sub in walk_expr(e):
        if isinstance(sub, (Var, Index)) and sub.name not in out:
            out.append(sub.name)
    return out


def _find_runs(stmts: list[Stmt]) -> list[tuple[list[Stmt], int, int]]:
    """Maximal straight-line runs (container list, start, length >= 2), in
    source order."""
    runs: list[tuple[list[Stmt], int, int]] = []
    i = 0
    while i < len(stmts):
        if isinstance(stmts[i], _RUN_KINDS):
            j = i
            while j < len(stmts) and isinstance(stmts[j], _RUN_KINDS):
                j += 1
            if j - i >= 2:
                runs.append((stmts, i, j - i))
            i = j
        else:
            for child in child_blocks(stmts[i]):
                runs.extend(_find_runs(child))
            i += 1
    return runs


def _partition(stmts: list[Stmt], rng: np.random.Generator) -> list[list[Stmt]]:
    # cuts are mandatory wherever the assignment target changes (a part may
    # write only one binding) and sprinkled at random elsewhere, so part
    # shapes vary from draw to draw instead of mirroring the source layout
    mandatory: set[int] = set()
    cur_target: str | None = None
    for pos, st in enumerate(stmts):
        if isinstance(st, Assign):
            if cur_target is not None and st.name != cur_target:
                mandatory.add(pos)
            cur_target = st.name
    extra = {p for p in range(1, len(stmts)) if p not in mandatory and rng.random() < 0.4}
    bounds = [0] + sorted(mandatory | extra) + [len(stmts)]
    parts = [stmts[a:b] for a, b in zip(bounds, bounds[1:])]
    if len(parts) == 1:
        cut = int(rng.integers(1, len(stmts)))
        parts = [stmts[:cut], stmts[cut:]]
    return parts


def _part_io(part: list[Stmt]) -> tuple[list[str], str | None]:
    """Parameter list (first-read order) and the written binding, if any."""
    params: list[str] = []
    written: str | None = None
    defined_locally: set[str] = set()
    for st in part:
        if isinstance(st, Assign):
            reads = _ordered_names(st.value)
        elif isinstance(st, ArrayAssign):
            reads = [st.name]
            for n in _ordered_names(st.index) + _ordered_names(st.value):
                if n not in reads:
                    reads.append(n)
        else:
            reads = _ordered_names(st.call)  # type: ignore[attr-defined]
        for n in reads:
            if n not in defined_locally and n not in params:
                params.append(n)
        if isinstance(st, Assign):
            written = st.name
            defined_locally.add(st.name)
    return params, written


def _outline_run(
    parts: list[list[Stmt]], base: str, namer: Namer
) -> tuple[list[Stmt], list[FunctionDef]]:
    """Call sites for the parts of a run, and the functions the parts move into."""
    replacement: list[Stmt] = []
    functions: list[FunctionDef] = []
    for part in parts:
        params, written = _part_io(part)
        name = namer.fresh(base)
        body: list[Stmt] = []
        if written is not None and written not in params:
            body.append(VarDecl(written))
        body.extend(part)
        if written is not None:
            body.append(Return(Var(written)))
        functions.append(FunctionDef(name, list(params), body))
        call = Call(name, [Var(p) for p in params])
        if written is not None:
            replacement.append(Assign(written, call))
        else:
            replacement.append(CallStmt(call))
    return replacement, functions


def _split_blocks(program: Program, rng: np.random.Generator, recursive: bool, kind: str) -> Program:
    draft = clone_program(program)
    namer = Namer(draft)
    new_functions: list[FunctionDef] = []
    applied = False
    for fn in draft.functions:
        runs = _find_runs(fn.body)
        if not runs:
            new_functions.append(fn)
            continue
        applied = True
        container, start, length = runs[int(rng.integers(0, len(runs)))]
        run = container[start : start + length]
        parts = _partition(run, rng)
        replacement, outlined = _outline_run(parts, f"{fn.name}_b", namer)
        if recursive:
            second_parts = _partition(replacement, rng)
            replacement, second = _outline_run(second_parts, f"{fn.name}_w", namer)
            outlined.extend(second)
        container[start : start + length] = replacement
        new_functions.append(fn)
        new_functions.extend(outlined)
    if not applied:
        raise InapplicableTransform(kind, "no straight-line run of two or more simple statements")
    draft.functions = new_functions
    return draft


def pass_ct7(program: Program, rng: np.random.Generator) -> Program:
    return _split_blocks(program, rng, recursive=False, kind="ct7")


def pass_ct8(program: Program, rng: np.random.Generator) -> Program:
    return _split_blocks(program, rng, recursive=True, kind="ct8")
