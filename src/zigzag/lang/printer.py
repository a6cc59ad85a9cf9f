"""Canonical pretty-printer for the mini language.

The output format is fixed: 4-space indents, one statement per line,
``} else {`` cuddled, a blank line between functions, minimal
parentheses by operator precedence, and `` //@vuln`` appended to the
line on which a flagged statement starts.  Printing is deterministic,
so equal ASTs produce byte-identical text.
"""
from __future__ import annotations

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


def format_function(fn: FunctionDef) -> str:
    pr = _Printer()
    pr.function(fn)
    return "\n".join(pr.lines) + "\n"


def format_statements(stmts: list[Stmt]) -> str:
    """Flat rendering of a statement selection, one line each."""
    pr = _Printer()
    pr.block(stmts, 0)
    return "\n".join(pr.lines) + "\n"
