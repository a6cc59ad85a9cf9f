"""Shared machinery for the code transformation passes.

A pass receives a parsed program whose statements carry LineIds and
returns a draft program in which every statement's ``origin`` slot
names the input statement it was derived from (``nodes.derived``), or
None, as built, for scaffolding the pass adds, and no LineId.
``finalize`` numbers the draft in the walk that builds the LineMap
original-LineId -> set of new LineIds, then validates it.

A pass copies its input once, with ``clone_program``, and never mutates
the input.  From then on it moves the statements and expressions of
that draft into their new places instead of copying them again, so no
node of the output appears twice or is shared with the input;
``finalize`` raises TransformError on a statement already numbered.
"""
from __future__ import annotations

from typing import Iterable

from ..lang.nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    BinOp,
    BUILTINS,
    Call,
    CallStmt,
    Expr,
    For,
    FunctionDef,
    If,
    Index,
    IntLit,
    Program,
    Return,
    Stmt,
    StrLit,
    Var,
    VarDecl,
    While,
    derived,
    expr_names,
    stmt_expressions,
    walk_program,
    walk_statements,
)
from ..lang.parser import validate_program

LineMap = dict[int, set[int]]

ENTRY_NAME = "main"
GENERATED_PREFIX = "__zz_"


class TransformError(Exception):
    pass


class InapplicableTransform(TransformError):
    def __init__(self, kind: str, reason: str) -> None:
        super().__init__(f"{kind} not applicable: {reason}")
        self.kind = kind
        self.reason = reason


# --------------------------------------------------------------------------
# cloning with origin bookkeeping

def clone_expr(e: Expr) -> Expr:
    t = type(e)
    if t is IntLit:
        return IntLit(e.value)
    if t is StrLit:
        return StrLit(e.value)
    if t is Var:
        return Var(e.name)
    if t is BinOp:
        return BinOp(e.op, clone_expr(e.left), clone_expr(e.right))
    if t is Index:
        return Index(e.name, clone_expr(e.index))
    if t is Call:
        return Call(e.name, [clone_expr(a) for a in e.args])
    raise TypeError(f"unknown expression node {t.__name__}")


def clone_stmt(st: Stmt) -> Stmt:
    t = type(st)
    if t is VarDecl:
        new: Stmt = VarDecl(st.name, None if st.init is None else clone_expr(st.init))
    elif t is ArrayDecl:
        new = ArrayDecl(st.name, st.size)
    elif t is Assign:
        new = Assign(st.name, clone_expr(st.value))
    elif t is ArrayAssign:
        new = ArrayAssign(st.name, clone_expr(st.index), clone_expr(st.value))
    elif t is If:
        new = If(
            clone_expr(st.cond),
            [clone_stmt(s) for s in st.then_body],
            [clone_stmt(s) for s in st.else_body],
        )
    elif t is While:
        new = While(clone_expr(st.cond), [clone_stmt(s) for s in st.body])
    elif t is For:
        new = For(
            None if st.init is None else clone_stmt(st.init),
            None if st.cond is None else clone_expr(st.cond),
            None if st.step is None else clone_stmt(st.step),
            [clone_stmt(s) for s in st.body],
        )
    elif t is Return:
        new = Return(None if st.value is None else clone_expr(st.value))
    elif t is CallStmt:
        new = CallStmt(clone_expr(st.call))  # type: ignore[arg-type]
    else:
        raise TypeError(f"unknown statement node {t.__name__}")
    return derived(new, st)


def clone_program(program: Program) -> Program:
    """The one copy a pass makes: a deep copy whose statements record the
    input statement they copy in ``origin``."""
    return Program([
        FunctionDef(fn.name, list(fn.params), [clone_stmt(s) for s in fn.body])
        for fn in program.functions
    ])


# --------------------------------------------------------------------------
# identifiers

def collect_identifiers(program: Program) -> set[str]:
    names: set[str] = set(BUILTINS)
    for fn in program.functions:
        names.add(fn.name)
        names.update(fn.params)
        for st in walk_statements(fn.body):
            if isinstance(st, (VarDecl, ArrayDecl)):
                names.add(st.name)
    return names


class Namer:
    """Deterministic generator of fresh __zz_ names for one output program."""

    def __init__(self, program: Program) -> None:
        self.taken = collect_identifiers(program)

    def fresh(self, base: str) -> str:
        n = 0
        while True:
            name = f"{GENERATED_PREFIX}{base}{n}"
            if name not in self.taken:
                self.taken.add(name)
                return name
            n += 1


def mentioned_names(stmts: Iterable[Stmt]) -> set[str]:
    """Names used by statements: expression reads plus assignment targets.

    Declaration names are not uses; nested statements are included.
    """
    out: set[str] = set()
    for st in walk_statements(list(stmts)):
        for e in stmt_expressions(st):
            out |= expr_names(e)
        if isinstance(st, (Assign, ArrayAssign)):
            out.add(st.name)
    return out


# --------------------------------------------------------------------------
# finalize

def finalize(draft: Program, kind: str, input_line_ids: Iterable[int]) -> tuple[Program, LineMap]:
    """Number a draft and build its LineMap in one walk, then validate it.

    A statement that already has a LineId was placed twice or kept from
    the input: TransformError, raised before it is renumbered.
    """
    line_map: LineMap = {}
    for line_id, st in enumerate(walk_program(draft), 1):
        if st.line_id >= 1:
            raise TransformError(f"{kind} placed a statement twice or kept one of its input (LineId {st.line_id})")
        st.line_id = line_id
        if st.origin is not None:
            line_map.setdefault(st.origin, set()).add(line_id)
        st.origin = None
    missing = set(input_line_ids) - set(line_map)
    if missing:
        raise TransformError(f"{kind} dropped statements with LineIds {sorted(missing)}")
    validate_program(draft)
    for fn in draft.functions:
        if fn.name.startswith("__zz") and not fn.name.startswith(GENERATED_PREFIX):
            raise TransformError(f"generated name {fn.name!r} outside the documented prefix")
    return draft, line_map
