"""Surface-level passes: string literal encoding and call-signature noise.

ct1 (EncodeStrings): every string literal occurrence becomes a call to
a generated zero-argument builder function that reassembles the literal
from concatenated pieces.

ct2 (RndArgs): every non-entry function gets its parameter list
permuted and a bogus trailing parameter appended; all call sites are
rewritten to match, passing seeded literal values for the bogus slot.
"""
from __future__ import annotations

import numpy as np

from ..lang.nodes import (
    BinOp,
    Call,
    Expr,
    FunctionDef,
    IntLit,
    Program,
    Return,
    StrLit,
    map_expr,
    map_stmt_exprs,
    walk_program,
)
from .base import ENTRY_NAME, InapplicableTransform, Namer, clone_program


def _split_points(rng: np.random.Generator, length: int) -> list[int]:
    if length < 2:
        return []
    pieces = int(rng.integers(2, min(3, length) + 1))
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, length), size=pieces - 1, replace=False))
    return cuts


def _builder_body(value: str, cuts: list[int]) -> Expr:
    bounds = [0] + cuts + [len(value)]
    pieces = [value[a:b] for a, b in zip(bounds, bounds[1:])]
    expr: Expr = StrLit(pieces[0])
    for piece in pieces[1:]:
        expr = BinOp("+", expr, StrLit(piece))
    return expr


def pass_ct1(program: Program, rng: np.random.Generator) -> Program:
    draft = clone_program(program)
    builders: list[FunctionDef] = []
    namer = Namer(draft)

    def encode(e: Expr) -> Expr:
        if type(e) is not StrLit:
            return e
        name = namer.fresh("s")
        ret = Return(_builder_body(e.value, _split_points(rng, len(e.value))))
        builders.append(FunctionDef(name, [], [ret]))
        return Call(name, [])

    for st in walk_program(draft):
        map_stmt_exprs(st, lambda e: map_expr(e, encode))
    if not builders:
        raise InapplicableTransform("ct1", "program has no string literals")
    draft.functions.extend(builders)
    return draft


def pass_ct2(program: Program, rng: np.random.Generator) -> Program:
    draft = clone_program(program)
    namer = Namer(draft)
    targets = [fn for fn in draft.functions if fn.name != ENTRY_NAME]
    if not targets:
        raise InapplicableTransform("ct2", "no function other than the entry")

    plans: dict[str, np.ndarray] = {}
    for fn in targets:
        perm = rng.permutation(len(fn.params))
        plans[fn.name] = perm
        fn.params = [fn.params[i] for i in perm] + [namer.fresh("x")]

    def rewrite(e: Expr) -> Expr:
        if type(e) is Call and e.name in plans:
            perm = plans[e.name]
            e.args = [e.args[i] for i in perm] + [IntLit(int(rng.integers(0, 100)))]
        return e

    for st in walk_program(draft):
        map_stmt_exprs(st, lambda e: map_expr(e, rewrite))
    return draft
