"""AST node types for the mini language.

Programs are lists of functions; function bodies are statement lists.
Every statement carries a LineId (a unique integer assigned in source
order, not a physical line number) and a vuln flag set by a trailing
//@vuln marker.  Statements also carry a transient ``origin`` slot used
by code transformations to record which input statement a rewritten
statement was derived from; it is None for freshly generated code and
is not part of structural equality.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


# --------------------------------------------------------------------------
# expressions

class Expr:
    __slots__ = ()


@dataclass(eq=False, slots=True)
class IntLit(Expr):
    value: int


@dataclass(eq=False, slots=True)
class StrLit(Expr):
    value: str


@dataclass(eq=False, slots=True)
class Var(Expr):
    name: str


@dataclass(eq=False, slots=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(eq=False, slots=True)
class Index(Expr):
    # array reads index a named variable; general bases are not in the language
    name: str
    index: Expr


@dataclass(eq=False, slots=True)
class Call(Expr):
    name: str
    args: list[Expr]


# --------------------------------------------------------------------------
# statements

class Stmt:
    __slots__ = ("line_id", "vuln", "origin")

    def __init__(self) -> None:
        self.line_id: int = -1
        self.vuln: bool = False
        self.origin: Optional[int] = None


def _stmt_dataclass(cls):
    """Decorator: dataclass whose init also sets the Stmt bookkeeping slots."""
    cls = dataclass(eq=False, slots=True)(cls)
    orig_init = cls.__init__

    def __init__(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        self.line_id = -1
        self.vuln = False
        self.origin = None

    cls.__init__ = __init__
    return cls


@_stmt_dataclass
class VarDecl(Stmt):
    name: str
    init: Optional[Expr] = None


@_stmt_dataclass
class ArrayDecl(Stmt):
    name: str
    size: int


@_stmt_dataclass
class Assign(Stmt):
    name: str
    value: Expr = None  # type: ignore[assignment]


@_stmt_dataclass
class ArrayAssign(Stmt):
    name: str
    index: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@_stmt_dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@_stmt_dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)


@_stmt_dataclass
class For(Stmt):
    # init is a VarDecl or Assign, step an Assign; semantics are the
    # desugared form  init; while (cond) { body; step; }
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: list[Stmt] = field(default_factory=list)


@_stmt_dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@_stmt_dataclass
class CallStmt(Stmt):
    call: Call = None  # type: ignore[assignment]


SimpleStmt = (VarDecl, ArrayDecl, Assign, ArrayAssign, Return, CallStmt)


@dataclass(eq=False, slots=True)
class FunctionDef:
    name: str
    params: list[str]
    body: list[Stmt]


@dataclass(eq=False, slots=True)
class Program:
    functions: list[FunctionDef]

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    def function_names(self) -> list[str]:
        return [f.name for f in self.functions]


BUILTINS = {"input": 0, "output": 1}
KEYWORDS = {"func", "var", "if", "else", "while", "for", "return"}


# --------------------------------------------------------------------------
# traversal helpers

def child_statements(st: Stmt) -> Iterator[Stmt]:
    """Direct child statements of a compound statement, in source order."""
    if isinstance(st, If):
        yield from st.then_body
        yield from st.else_body
    elif isinstance(st, While):
        yield from st.body
    elif isinstance(st, For):
        if st.init is not None:
            yield st.init
        if st.step is not None:
            yield st.step
        yield from st.body


def walk_statements(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Pre-order traversal over statements, compound nodes before children."""
    for st in stmts:
        yield st
        yield from walk_statements(list(child_statements(st)))


def walk_program(program: Program) -> Iterator[Stmt]:
    for fn in program.functions:
        yield from walk_statements(fn.body)


def stmt_expressions(st: Stmt) -> Iterator[Expr]:
    """Expressions directly held by a statement (not those of child statements)."""
    if isinstance(st, VarDecl):
        if st.init is not None:
            yield st.init
    elif isinstance(st, Assign):
        yield st.value
    elif isinstance(st, ArrayAssign):
        yield st.index
        yield st.value
    elif isinstance(st, If):
        yield st.cond
    elif isinstance(st, While):
        yield st.cond
    elif isinstance(st, For):
        if st.cond is not None:
            yield st.cond
    elif isinstance(st, Return):
        if st.value is not None:
            yield st.value
    elif isinstance(st, CallStmt):
        yield st.call


def walk_expr(e: Expr) -> Iterator[Expr]:
    yield e
    if isinstance(e, BinOp):
        yield from walk_expr(e.left)
        yield from walk_expr(e.right)
    elif isinstance(e, Index):
        yield from walk_expr(e.index)
    elif isinstance(e, Call):
        for a in e.args:
            yield from walk_expr(a)


def expr_names(e: Expr) -> set[str]:
    """Variable names read by an expression (function names excluded)."""
    out: set[str] = set()
    for sub in walk_expr(e):
        if isinstance(sub, Var):
            out.add(sub.name)
        elif isinstance(sub, Index):
            out.add(sub.name)
    return out


def renumber(program: Program) -> None:
    """Assign fresh LineIds in pre-order; ids are unique program-wide."""
    next_id = 1
    for st in walk_program(program):
        st.line_id = next_id
        next_id += 1


def collect_line_ids(program: Program) -> list[int]:
    return [st.line_id for st in walk_program(program)]


def flagged_lines(program: Program) -> set[int]:
    return {st.line_id for st in walk_program(program) if st.vuln}


# --------------------------------------------------------------------------
# structural signatures

def expr_signature(e: Expr) -> tuple:
    if isinstance(e, IntLit):
        return ("int", e.value)
    if isinstance(e, StrLit):
        return ("str", e.value)
    if isinstance(e, Var):
        return ("var", e.name)
    if isinstance(e, BinOp):
        return ("bin", e.op, expr_signature(e.left), expr_signature(e.right))
    if isinstance(e, Index):
        return ("index", e.name, expr_signature(e.index))
    if isinstance(e, Call):
        return ("call", e.name, tuple(expr_signature(a) for a in e.args))
    raise TypeError(f"unknown expression node {type(e).__name__}")


def stmt_signature(st: Stmt, with_flags: bool = True) -> tuple:
    flag = st.vuln if with_flags else None
    if isinstance(st, VarDecl):
        body = ("vardecl", st.name, None if st.init is None else expr_signature(st.init))
    elif isinstance(st, ArrayDecl):
        body = ("arraydecl", st.name, st.size)
    elif isinstance(st, Assign):
        body = ("assign", st.name, expr_signature(st.value))
    elif isinstance(st, ArrayAssign):
        body = ("arrayassign", st.name, expr_signature(st.index), expr_signature(st.value))
    elif isinstance(st, If):
        body = (
            "if",
            expr_signature(st.cond),
            tuple(stmt_signature(s, with_flags) for s in st.then_body),
            tuple(stmt_signature(s, with_flags) for s in st.else_body),
        )
    elif isinstance(st, While):
        body = ("while", expr_signature(st.cond), tuple(stmt_signature(s, with_flags) for s in st.body))
    elif isinstance(st, For):
        body = (
            "for",
            None if st.init is None else stmt_signature(st.init, with_flags),
            None if st.cond is None else expr_signature(st.cond),
            None if st.step is None else stmt_signature(st.step, with_flags),
            tuple(stmt_signature(s, with_flags) for s in st.body),
        )
    elif isinstance(st, Return):
        body = ("return", None if st.value is None else expr_signature(st.value))
    elif isinstance(st, CallStmt):
        body = ("callstmt", expr_signature(st.call))
    else:
        raise TypeError(f"unknown statement node {type(st).__name__}")
    return body + ((flag,) if with_flags else ())


def program_signature(program: Program, with_flags: bool = True) -> tuple:
    """Structural identity of a program, ignoring LineIds (and optionally flags)."""
    return tuple(
        (f.name, tuple(f.params), tuple(stmt_signature(s, with_flags) for s in f.body))
        for f in program.functions
    )
