"""AST node types for the mini language, and the one place that knows
their shape.

Programs are lists of functions; function bodies are statement lists.
Every statement carries a LineId and a vuln flag set by a trailing
//@vuln marker.  A LineId is not a physical line number: the statements
of a program are numbered 1..n in the pre-order of ``walk_program``, by
the parser as it reads each statement's first token, and by the
transforms' ``finalize`` on a draft.  Statements also carry a transient
``origin`` slot used by code transformations to record which input
statement a rewritten statement was derived from; it is not part of
structural equality.

A statement is built fresh: unnumbered (LineId -1), unflagged and with
no origin.  ``derived`` is the one rewrite rule: a statement that stands
for an input statement takes that statement's origin, through
``source_origin``, and its flag, so a variant keeps its ground-truth
label.

The language's shared rules live here and nowhere else.
``BINARY_LEVELS`` states operator precedence, which the parser and the
printer both read.  ``EXPR_SLOTS`` and ``BLOCK_SLOTS`` declare which
attributes of each statement kind hold expressions and statement lists;
the traversal and rewrite helpers below read them, so structural walks
elsewhere never decide a node's shape for themselves.  ``signature``
derives a node's structural identity from its dataclass fields.
``desugar_for`` is the one meaning of ``for``: the interpreter runs, the
validator checks and the transforms lower a for-loop as the while form
it returns.  The printer, interpreter and parser keep per-kind code
because each kind behaves differently there.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Iterator, Optional


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

    def __post_init__(self) -> None:
        self.line_id: int = -1
        self.vuln: bool = False
        self.origin: Optional[int] = None


@dataclass(eq=False, slots=True)
class VarDecl(Stmt):
    name: str
    init: Optional[Expr] = None


@dataclass(eq=False, slots=True)
class ArrayDecl(Stmt):
    name: str
    size: int


@dataclass(eq=False, slots=True)
class Assign(Stmt):
    name: str
    value: Expr = None  # type: ignore[assignment]


@dataclass(eq=False, slots=True)
class ArrayAssign(Stmt):
    name: str
    index: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass(eq=False, slots=True)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: list[Stmt] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class For(Stmt):
    # init is a VarDecl or Assign, step an Assign; semantics are the
    # desugared form  init; while (cond) { body; step; }
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: list[Stmt] = field(default_factory=list)


@dataclass(eq=False, slots=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(eq=False, slots=True)
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


BUILTINS = {"input": 0, "output": 1}
KEYWORDS = {"func", "var", "if", "else", "while", "for", "return"}

# binary operators by precedence level, loosest first; all are
# left-associative, and a unary minus binds tighter than any of them
BINARY_LEVELS: tuple[tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("+", "-"),
    ("*", "/", "%"),
)
# operator -> precedence, 1 for the loosest level
BINARY_PREC: dict[str, int] = {op: level for level, ops in enumerate(BINARY_LEVELS, 1) for op in ops}


# --------------------------------------------------------------------------
# node shape

# expression attributes of each statement kind, in source order
EXPR_SLOTS: dict[type, tuple[str, ...]] = {
    VarDecl: ("init",),
    ArrayDecl: (),
    Assign: ("value",),
    ArrayAssign: ("index", "value"),
    If: ("cond",),
    While: ("cond",),
    For: ("cond",),
    Return: ("value",),
    CallStmt: ("call",),
}

# statement-list attributes of the compound kinds, in source order
BLOCK_SLOTS: dict[type, tuple[str, ...]] = {
    If: ("then_body", "else_body"),
    While: ("body",),
    For: ("body",),
}


# --------------------------------------------------------------------------
# traversal helpers

def child_blocks(st: Stmt) -> list[list[Stmt]]:
    """The statement lists a statement holds, in source order."""
    return [getattr(st, slot) for slot in BLOCK_SLOTS.get(type(st), ())]


def child_statements(st: Stmt) -> list[Stmt]:
    """Direct child statements of a compound statement, in source order."""
    # a for header's init and step are the only statements held outside a block
    out = [s for s in (st.init, st.step) if s is not None] if type(st) is For else []
    for block in child_blocks(st):
        out.extend(block)
    return out


def walk_statements(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Pre-order traversal over statements, compound nodes before children."""
    stack = stmts[::-1]
    while stack:
        st = stack.pop()
        yield st
        if type(st) in BLOCK_SLOTS:
            stack.extend(reversed(child_statements(st)))


def walk_program(program: Program) -> Iterator[Stmt]:
    for fn in program.functions:
        yield from walk_statements(fn.body)


def stmt_expressions(st: Stmt) -> Iterator[Expr]:
    """Expressions directly held by a statement (not those of child statements)."""
    for slot in EXPR_SLOTS[type(st)]:
        e = getattr(st, slot)
        if e is not None:
            yield e


def map_stmt_exprs(st: Stmt, f: Callable[[Expr], Expr]) -> None:
    """Apply f to each expression slot of st, in place (statement-local)."""
    for slot in EXPR_SLOTS[type(st)]:
        e = getattr(st, slot)
        if e is not None:
            setattr(st, slot, f(e))


def walk_expr(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression, children left to right."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        t = type(e)
        if t is BinOp:
            stack.append(e.right)
            stack.append(e.left)
        elif t is Index:
            stack.append(e.index)
        elif t is Call:
            stack.extend(reversed(e.args))


def map_expr(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """Post-order rewrite: children left to right, then f on the node.

    Subtrees are replaced in place by what f returns for them; the
    result is f's value for ``e`` itself.
    """
    t = type(e)
    if t is BinOp:
        e.left = map_expr(e.left, f)
        e.right = map_expr(e.right, f)
    elif t is Index:
        e.index = map_expr(e.index, f)
    elif t is Call:
        e.args = [map_expr(a, f) for a in e.args]
    return f(e)


def expr_names(e: Expr) -> set[str]:
    """Variable names read by an expression (function names excluded)."""
    out: set[str] = set()
    for sub in walk_expr(e):
        if isinstance(sub, Var):
            out.add(sub.name)
        elif isinstance(sub, Index):
            out.add(sub.name)
    return out


def collect_line_ids(program: Program) -> list[int]:
    return [st.line_id for st in walk_program(program)]


def flagged_lines(program: Program) -> set[int]:
    return {st.line_id for st in walk_program(program) if st.vuln}


# --------------------------------------------------------------------------
# rewrites: derived statements and the meaning of for

def source_origin(st: Stmt) -> Optional[int]:
    """Input LineId a statement descends from, chaining through drafts.

    Statements that were never numbered (built fresh, line_id < 1) have
    no origin; mapping them would invent LineMap keys.
    """
    if st.origin is not None:
        return st.origin
    return st.line_id if st.line_id >= 1 else None


def derived(new: Stmt, src: Stmt) -> Stmt:
    """Book ``new`` as the rewrite of ``src``: it takes src's origin and
    vuln flag.  Returns ``new``."""
    new.origin = source_origin(src)
    new.vuln = src.vuln
    return new


def desugar_for(st: For) -> list[Stmt]:
    """The meaning of a for-loop: ``init; while (cond) { body; step; }``.

    A missing condition is 1; the while is derived from the for and keeps
    its LineId.  The parts are reused, not copied.
    """
    loop = While(IntLit(1) if st.cond is None else st.cond, st.body + ([st.step] if st.step is not None else []))
    derived(loop, st)
    loop.line_id = st.line_id
    return ([st.init] if st.init is not None else []) + [loop]


# --------------------------------------------------------------------------
# structural signatures

def signature(node, with_flags: bool = True):
    """Structural identity of a node: its kind, every dataclass field and,
    recursively, its children; a statement's vuln flag is added when
    ``with_flags`` is set.  LineIds and origins are not fields.
    """
    if isinstance(node, list):
        return tuple(signature(n, with_flags) for n in node)
    if not is_dataclass(node):
        return node
    sig = (type(node).__name__, *(signature(getattr(node, f.name), with_flags) for f in fields(node)))
    if with_flags and isinstance(node, Stmt):
        sig += (node.vuln,)
    return sig
