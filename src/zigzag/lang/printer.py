"""Canonical pretty-printer for the mini language.

The output format is fixed: 4-space indents, one statement per line,
``} else {`` cuddled, a blank line between functions, minimal
parentheses by operator precedence, and `` //@vuln`` appended to the
line on which a flagged statement starts.  Printing is deterministic,
so equal ASTs produce byte-identical text.

``function_tokens`` and ``statement_tokens`` are where a fragment's
tokens come from.  They walk the same nodes in the printer's order and
return the tokens that lexing the printed text would give, normalized
for a detector by node kind: a function's name, where it is defined and
where it is called, becomes ``FUN_k``, every other name ``VAR_k`` (k
numbers distinct names by first appearance, per table), and a string
literal ``STR``.  Keywords, operators, punctuation and integer literals
stay as printed, a negative literal as ``-`` and its digits, and no
marker is a token.  So no fragment is printed or lexed; the tests pin
the walk to print, lex and ``encoding.normalize_tokens``.
"""
from __future__ import annotations

import functools
import sys

from .lexer import escape_string
from .nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    BINARY_PREC,
    BinOp,
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
)


def format_expr(e: Expr, parent_prec: int = 0, right: bool = False) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, StrLit):
        return f'"{escape_string(e.value)}"'
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Index):
        return f"{e.name}[{format_expr(e.index)}]"
    if isinstance(e, Call):
        args = ", ".join(format_expr(a) for a in e.args)
        return f"{e.name}({args})"
    if isinstance(e, BinOp):
        prec = BINARY_PREC[e.op]
        text = (
            f"{format_expr(e.left, prec, False)} {e.op} {format_expr(e.right, prec, True)}"
        )
        # all operators are left-associative: parenthesize when binding
        # looser than the parent, or equally on the parent's right side
        if prec < parent_prec or (prec == parent_prec and right):
            return f"({text})"
        return text
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _inline_stmt(st: Stmt) -> str:
    """A for-loop header fragment: statement text without the trailing ';'."""
    if isinstance(st, VarDecl):
        assert st.init is not None
        return f"var {st.name} = {format_expr(st.init)}"
    if isinstance(st, Assign):
        return f"{st.name} = {format_expr(st.value)}"
    raise TypeError(f"statement kind {type(st).__name__} not allowed in a for header")


class _Printer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, depth: int, text: str, flagged: bool = False) -> None:
        marker = " //@vuln" if flagged else ""
        self.lines.append("    " * depth + text + marker)

    def stmt(self, st: Stmt, depth: int) -> None:
        if isinstance(st, VarDecl):
            if st.init is None:
                self.emit(depth, f"var {st.name};", st.vuln)
            else:
                self.emit(depth, f"var {st.name} = {format_expr(st.init)};", st.vuln)
        elif isinstance(st, ArrayDecl):
            self.emit(depth, f"var {st.name}[{st.size}];", st.vuln)
        elif isinstance(st, Assign):
            self.emit(depth, f"{st.name} = {format_expr(st.value)};", st.vuln)
        elif isinstance(st, ArrayAssign):
            self.emit(
                depth,
                f"{st.name}[{format_expr(st.index)}] = {format_expr(st.value)};",
                st.vuln,
            )
        elif isinstance(st, If):
            self.emit(depth, f"if ({format_expr(st.cond)}) {{", st.vuln)
            self.block(st.then_body, depth + 1)
            if st.else_body:
                self.emit(depth, "} else {")
                self.block(st.else_body, depth + 1)
            self.emit(depth, "}")
        elif isinstance(st, While):
            self.emit(depth, f"while ({format_expr(st.cond)}) {{", st.vuln)
            self.block(st.body, depth + 1)
            self.emit(depth, "}")
        elif isinstance(st, For):
            init = "" if st.init is None else _inline_stmt(st.init)
            cond = "" if st.cond is None else format_expr(st.cond)
            step = "" if st.step is None else _inline_stmt(st.step)
            self.emit(depth, f"for ({init}; {cond}; {step}) {{", st.vuln)
            self.block(st.body, depth + 1)
            self.emit(depth, "}")
        elif isinstance(st, Return):
            if st.value is None:
                self.emit(depth, "return;", st.vuln)
            else:
                self.emit(depth, f"return {format_expr(st.value)};", st.vuln)
        elif isinstance(st, CallStmt):
            self.emit(depth, f"{format_expr(st.call)};", st.vuln)
        else:
            raise TypeError(f"unknown statement node {type(st).__name__}")

    def block(self, stmts: list[Stmt], depth: int) -> None:
        for st in stmts:
            self.stmt(st, depth)

    def function(self, fn: FunctionDef) -> None:
        params = ", ".join(fn.params)
        self.emit(0, f"func {fn.name}({params}) {{")
        self.block(fn.body, 1)
        self.emit(0, "}")


def pretty_print(program: Program) -> str:
    pr = _Printer()
    for i, fn in enumerate(program.functions):
        if i:
            pr.lines.append("")
        pr.function(fn)
    return "\n".join(pr.lines) + "\n"


# --------------------------------------------------------------------------
# the printed text as normalized tokens

# one shared string per operator and per anonymous name, so a stored token
# sequence points at a few objects rather than holding a string per token
_OPERATORS = {op: op for op in BINARY_PREC}


@functools.cache
def _anonymous(prefix: str, k: int) -> str:
    return sys.intern(f"{prefix}_{k}")


class _Tokens:
    """One walk over a fragment's nodes, appending normalized tokens."""

    def __init__(self) -> None:
        self.out: list[str] = []
        self.functions: dict[str, str] = {}
        self.variables: dict[str, str] = {}

    def name(self, name: str, function: bool = False) -> None:
        table = self.functions if function else self.variables
        token = table.get(name)
        if token is None:
            token = table[name] = _anonymous("FUN" if function else "VAR", len(table))
        self.out.append(token)

    def int(self, value: int) -> None:
        if value < 0:
            self.out.append("-")  # printed as one word, lexed as two tokens
        self.out.append(sys.intern(str(abs(value))))

    def expr(self, e: Expr, parent_prec: int = 0, right: bool = False) -> None:
        out = self.out
        if isinstance(e, Var):
            self.name(e.name)
        elif isinstance(e, IntLit):
            self.int(e.value)
        elif isinstance(e, BinOp):
            prec = BINARY_PREC[e.op]
            wrap = prec < parent_prec or (prec == parent_prec and right)
            if wrap:
                out.append("(")
            self.expr(e.left, prec, False)
            out.append(_OPERATORS[e.op])
            self.expr(e.right, prec, True)
            if wrap:
                out.append(")")
        elif isinstance(e, Call):
            self.name(e.name, function=True)
            out.append("(")
            for i, arg in enumerate(e.args):
                if i:
                    out.append(",")
                self.expr(arg)
            out.append(")")
        elif isinstance(e, Index):
            self.name(e.name)
            out.append("[")
            self.expr(e.index)
            out.append("]")
        elif isinstance(e, StrLit):
            out.append("STR")
        else:
            raise TypeError(f"unknown expression node {type(e).__name__}")

    def simple(self, st: Stmt) -> None:
        """A declaration or assignment without its ';'."""
        out = self.out
        if isinstance(st, VarDecl):
            out.append("var")
            self.name(st.name)
            if st.init is not None:
                out.append("=")
                self.expr(st.init)
        elif isinstance(st, ArrayDecl):
            out.append("var")
            self.name(st.name)
            out.append("[")
            self.int(st.size)
            out.append("]")
        elif isinstance(st, Assign):
            self.name(st.name)
            out.append("=")
            self.expr(st.value)
        else:
            self.name(st.name)
            out.append("[")
            self.expr(st.index)
            out.extend(("]", "="))
            self.expr(st.value)

    def stmt(self, st: Stmt) -> None:
        out = self.out
        if isinstance(st, (VarDecl, ArrayDecl, Assign, ArrayAssign)):
            self.simple(st)
            out.append(";")
        elif isinstance(st, CallStmt):
            self.expr(st.call)
            out.append(";")
        elif isinstance(st, Return):
            out.append("return")
            if st.value is not None:
                self.expr(st.value)
            out.append(";")
        elif isinstance(st, If):
            self.header("if", st.cond)
            self.block(st.then_body)
            if st.else_body:
                out.extend(("}", "else", "{"))
                self.block(st.else_body)
            out.append("}")
        elif isinstance(st, While):
            self.header("while", st.cond)
            self.block(st.body)
            out.append("}")
        elif isinstance(st, For):
            out.extend(("for", "("))
            if st.init is not None:
                self.simple(st.init)
            out.append(";")
            if st.cond is not None:
                self.expr(st.cond)
            out.append(";")
            if st.step is not None:
                self.simple(st.step)
            out.extend((")", "{"))
            self.block(st.body)
            out.append("}")
        else:
            raise TypeError(f"unknown statement node {type(st).__name__}")

    def header(self, keyword: str, cond: Expr) -> None:
        self.out.extend((keyword, "("))
        self.expr(cond)
        self.out.extend((")", "{"))

    def block(self, stmts: list[Stmt]) -> None:
        for st in stmts:
            self.stmt(st)


def function_tokens(fn: FunctionDef) -> tuple[str, ...]:
    """The normalized tokens of the function's printed text."""
    walk = _Tokens()
    walk.out.append("func")
    walk.name(fn.name, function=True)
    walk.out.append("(")
    for i, param in enumerate(fn.params):
        if i:
            walk.out.append(",")
        walk.name(param)
    walk.out.extend((")", "{"))
    walk.block(fn.body)
    walk.out.append("}")
    return tuple(walk.out)


def statement_tokens(stmts: list[Stmt]) -> tuple[str, ...]:
    """The normalized tokens of the statements printed one after another."""
    walk = _Tokens()
    walk.block(stmts)
    return tuple(walk.out)
