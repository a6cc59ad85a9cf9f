"""Function merging (ct4) and merge-plus-flatten (ct5).

ct4 pairs up non-entry functions and replaces each pair (f, g) with one
function taking a selector plus generic carrier parameters; the f
branch and g branch re-bind the original parameter names as locals
initialized from the carriers, so existing identifiers are carried
verbatim (no renaming).  Call sites pass the selector and pad unused
carriers with zero.

ct5 runs ct4 and then flattens the merged functions with the ct3
lowering.
"""
from __future__ import annotations

import numpy as np

from ..lang.nodes import (
    BinOp,
    Call,
    Expr,
    FunctionDef,
    If,
    IntLit,
    Program,
    Var,
    VarDecl,
    map_expr,
    map_stmt_exprs,
    walk_program,
)
from .base import ENTRY_NAME, InapplicableTransform, Namer, clone_program
from .flatten import flatten_function, flattenable


def _merge_pair(f: FunctionDef, g: FunctionDef, namer: Namer, index: int) -> FunctionDef:
    """One function dispatching to f's or g's body; both bodies move into it."""
    merged_name = namer.fresh("m")
    sel = namer.fresh("sel")
    carriers = [namer.fresh(f"c{index}_") for _ in range(max(len(f.params), len(g.params)))]

    def branch(fn: FunctionDef) -> list:
        binds = [VarDecl(param, Var(carrier)) for param, carrier in zip(fn.params, carriers)]
        return binds + fn.body

    dispatch = If(BinOp("==", Var(sel), IntLit(0)), branch(f), branch(g))
    return FunctionDef(merged_name, [sel] + carriers, [dispatch])


def _merge_all(program: Program, rng: np.random.Generator) -> tuple[Program, list[str]]:
    draft = clone_program(program)
    candidates = [fn.name for fn in draft.functions if fn.name != ENTRY_NAME]
    if len(candidates) < 2:
        raise InapplicableTransform("ct4", "fewer than two functions besides the entry")

    namer = Namer(draft)
    order = [candidates[int(i)] for i in rng.permutation(len(candidates))]
    pairs = [(order[i], order[i + 1]) for i in range(0, len(order) - 1, 2)]

    by_name = {fn.name: fn for fn in draft.functions}
    member_of: dict[str, FunctionDef] = {}
    # call-site redirection: old name -> (merged name, selector, carrier count)
    redirect: dict[str, tuple[str, int, int]] = {}
    for k, (fname, gname) in enumerate(pairs):
        merged = _merge_pair(by_name[fname], by_name[gname], namer, k)
        carrier_count = len(merged.params) - 1
        member_of[fname] = merged
        member_of[gname] = merged
        redirect[fname] = (merged.name, 0, carrier_count)
        redirect[gname] = (merged.name, 1, carrier_count)

    new_functions: list[FunctionDef] = []
    emitted: set[str] = set()
    for fn in draft.functions:
        merged = member_of.get(fn.name)
        if merged is None:
            new_functions.append(fn)
        elif merged.name not in emitted:
            new_functions.append(merged)
            emitted.add(merged.name)
    draft.functions = new_functions

    def rewrite(e: Expr) -> Expr:
        if type(e) is Call and e.name in redirect:
            merged_name, sel_value, carrier_count = redirect[e.name]
            padding = [IntLit(0) for _ in range(carrier_count - len(e.args))]
            return Call(merged_name, [IntLit(sel_value)] + e.args + padding)
        return e

    for st in walk_program(draft):
        map_stmt_exprs(st, lambda e: map_expr(e, rewrite))
    return draft, [fn.name for fn in new_functions if fn.name in emitted]


def pass_ct4(program: Program, rng: np.random.Generator) -> Program:
    draft, _merged = _merge_all(program, rng)
    return draft


def pass_ct5(program: Program, rng: np.random.Generator) -> Program:
    draft, merged_names = _merge_all(program, rng)
    namer = Namer(draft)
    replaced = {
        fn.name: flatten_function(fn, rng, namer)
        for fn in draft.functions
        if fn.name in merged_names and flattenable(fn)
    }
    draft.functions = [replaced.get(fn.name, fn) for fn in draft.functions]
    return draft
