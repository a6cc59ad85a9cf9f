"""Fuel-limited deterministic interpreter for the mini language.

The interpreter is the semantics oracle for the transformation passes,
so it is total: every run of a statically valid program returns an
ExecResult, never a Python exception (the only exception raised is
UnknownEntryError for a missing entry function).

A for-loop runs as its while form, ``nodes.desugar_for``: the same
rule the validator checks and the transforms lower.

Step accounting: one step per simple-statement execution, per loop
iteration check, and per function call; if/else dispatch is free.  A
program that exhausts its fuel reports steps_used == fuel.  Exceeding
the call-depth budget ``MAX_CALL_DEPTH``, or Python's own stack, is
also reported as fuel-exhausted.

Runtime error kinds: out-of-bounds, division-by-zero, input-exhausted,
and the defensive type-error (well-formed generators never produce it).
A condition, an index and each operand of && and || must be an
integer.  Division and modulo truncate toward zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import UnknownEntryError
from .nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    BinOp,
    Call,
    CallStmt,
    Expr,
    For,
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
    desugar_for,
)

COMPLETED = "completed"
RUNTIME_ERROR = "runtime-error"
FUEL_EXHAUSTED = "fuel-exhausted"

OUT_OF_BOUNDS = "out-of-bounds"
DIVISION_BY_ZERO = "division-by-zero"
INPUT_EXHAUSTED = "input-exhausted"
TYPE_ERROR = "type-error"

Value = Union[int, str, list]

# deepest chain of user-function calls a run may make before it reports
# FUEL_EXHAUSTED
MAX_CALL_DEPTH = 200


@dataclass(slots=True)
class ExecResult:
    outputs: list[Value]
    status: str
    error_kind: Optional[str] = None
    error_line: Optional[int] = None
    steps_used: int = 0

    @property
    def status_key(self) -> tuple:
        """Identity used for semantic comparison (steps and line excluded)."""
        if self.status == RUNTIME_ERROR:
            return (RUNTIME_ERROR, self.error_kind)
        return (self.status,)

    def semantically_equal(self, other: "ExecResult") -> bool:
        return self.outputs == other.outputs and self.status_key == other.status_key


class _Trap(Exception):
    def __init__(self, kind: str, line: int) -> None:
        self.kind = kind
        self.line = line


class _Fuel(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Value) -> None:
        self.value = value


class Interpreter:
    def __init__(self, program: Program, inputs: list[Value], fuel: int) -> None:
        self.functions = {f.name: f for f in program.functions}
        self.inputs = inputs
        self.input_pos = 0
        self.fuel = fuel
        self.outputs: list[Value] = []
        self.steps = 0
        self.depth = 0
        self.cur_line = 0

    # ---- plumbing

    def tick(self) -> None:
        if self.steps >= self.fuel:
            raise _Fuel()
        self.steps += 1

    def trap(self, kind: str) -> _Trap:
        return _Trap(kind, self.cur_line)

    # ---- expressions

    def eval(self, e: Expr, env: dict) -> Value:
        t = type(e)
        if t is IntLit:
            return e.value
        if t is Var:
            return env[e.name]
        if t is BinOp:
            return self.eval_binop(e, env)
        if t is Index:
            arr, idx = self.element(e.name, e.index, env)
            return arr[idx]
        if t is Call:
            return self.eval_call(e, env)
        if t is StrLit:
            return e.value
        raise TypeError(f"unknown expression node {t.__name__}")

    def integer(self, e: Expr, env: dict) -> int:
        """The value of e, which must be an integer."""
        value = self.eval(e, env)
        if not isinstance(value, int):
            raise self.trap(TYPE_ERROR)
        return value

    def element(self, name: str, index: Expr, env: dict) -> tuple[list, int]:
        """The array ``name`` and the in-bounds index ``index`` selects."""
        arr = env[name]
        if not isinstance(arr, list):
            raise self.trap(TYPE_ERROR)
        idx = self.integer(index, env)
        if idx < 0 or idx >= len(arr):
            raise self.trap(OUT_OF_BOUNDS)
        return arr, idx

    def eval_binop(self, e: BinOp, env: dict) -> Value:
        op = e.op
        if op == "&&" or op == "||":
            # a left operand of 0 decides &&, and a nonzero one decides ||
            if (self.integer(e.left, env) != 0) == (op == "||"):
                return int(op == "||")
            return int(self.integer(e.right, env) != 0)

        left = self.eval(e.left, env)
        right = self.eval(e.right, env)
        li, ri = isinstance(left, int), isinstance(right, int)
        if op == "+":
            if li and ri:
                return left + right
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            raise self.trap(TYPE_ERROR)
        if op in ("==", "!="):
            if (li and ri) or (isinstance(left, str) and isinstance(right, str)):
                eq = left == right
                return int(eq if op == "==" else not eq)
            raise self.trap(TYPE_ERROR)
        if not (li and ri):
            raise self.trap(TYPE_ERROR)
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise self.trap(DIVISION_BY_ZERO)
            q = abs(left) // abs(right)
            return q if (left >= 0) == (right >= 0) else -q
        if op == "%":
            if right == 0:
                raise self.trap(DIVISION_BY_ZERO)
            q = abs(left) // abs(right)
            q = q if (left >= 0) == (right >= 0) else -q
            return left - q * right
        if op == "<":
            return int(left < right)
        if op == ">":
            return int(left > right)
        if op == "<=":
            return int(left <= right)
        if op == ">=":
            return int(left >= right)
        raise TypeError(f"unknown operator {op!r}")

    def eval_call(self, e: Call, env: dict) -> Value:
        if e.name == "input":
            if self.input_pos >= len(self.inputs):
                raise self.trap(INPUT_EXHAUSTED)
            value = self.inputs[self.input_pos]
            self.input_pos += 1
            return value
        if e.name == "output":
            value = self.eval(e.args[0], env)
            if isinstance(value, list):
                raise self.trap(TYPE_ERROR)
            self.outputs.append(value)
            return 0
        fn = self.functions[e.name]
        args = [self.eval(a, env) for a in e.args]
        self.tick()
        if self.depth >= MAX_CALL_DEPTH:
            raise _Fuel()
        self.depth += 1
        call_env = dict(zip(fn.params, args))
        saved_line = self.cur_line
        try:
            self.exec_block(fn.body, call_env)
            result: Value = 0
        except _ReturnSignal as r:
            result = r.value
        self.depth -= 1
        self.cur_line = saved_line
        return result

    # ---- statements

    def exec_block(self, stmts: list[Stmt], env: dict) -> None:
        for st in stmts:
            self.exec_stmt(st, env)

    def exec_stmt(self, st: Stmt, env: dict) -> None:
        t = type(st)
        if t is If:
            self.cur_line = st.line_id
            if self.integer(st.cond, env):
                self.exec_block(st.then_body, env)
            else:
                self.exec_block(st.else_body, env)
            return
        if t is While:
            while True:
                self.cur_line = st.line_id
                self.tick()
                if not self.integer(st.cond, env):
                    return
                self.exec_block(st.body, env)
        if t is For:
            self.exec_block(desugar_for(st), env)
            return

        self.cur_line = st.line_id
        self.tick()
        if t is Assign:
            env[st.name] = self.eval(st.value, env)
        elif t is ArrayAssign:
            arr, idx = self.element(st.name, st.index, env)
            arr[idx] = self.eval(st.value, env)
        elif t is VarDecl:
            env[st.name] = 0 if st.init is None else self.eval(st.init, env)
        elif t is ArrayDecl:
            env[st.name] = [0] * st.size
        elif t is CallStmt:
            self.eval_call(st.call, env)
        elif t is Return:
            value: Value = 0 if st.value is None else self.eval(st.value, env)
            raise _ReturnSignal(value)
        else:
            raise TypeError(f"unknown statement node {t.__name__}")

    def run(self, entry: str) -> ExecResult:
        if entry not in self.functions:
            raise UnknownEntryError(entry)
        fn = self.functions[entry]
        try:
            try:
                self.exec_block(fn.body, {p: 0 for p in fn.params})
            except _ReturnSignal:
                pass
            return ExecResult(self.outputs, COMPLETED, steps_used=self.steps)
        except _Trap as tr:
            return ExecResult(self.outputs, RUNTIME_ERROR, tr.kind, tr.line, self.steps)
        except (_Fuel, RecursionError):
            return ExecResult(self.outputs, FUEL_EXHAUSTED, steps_used=self.fuel)


def interpret(program: Program, entry: str, inputs: list[Value], fuel: int) -> ExecResult:
    """Run ``entry`` with the given input queue and fuel budget."""
    return Interpreter(program, inputs, fuel).run(entry)
