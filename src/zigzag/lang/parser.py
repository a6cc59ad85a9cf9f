"""Recursive-descent parser and static validator for the mini language.

Expressions are parsed by precedence climbing over ``nodes.BINARY_PREC``,
and the current token is kept in ``Parser.tok``, which ``advance`` moves.
At a statement's first token, a for header's init and step included,
the parser gives the statement the next LineId, so ids run 1..n in the
pre-order of ``nodes.walk_program``; it records the statement's
(line, col) and takes the //@vuln flag of that line if no statement
has.  ``parse`` then runs the static validator (declaration-before-use,
no shadowing, unique function names, call arity).  Transform outputs
that never existed as text can be checked with ``validate_program``.
Any failure, nesting deeper than ``MAX_DEPTH`` included, raises a
``MiniLangError``.
"""
from __future__ import annotations

from typing import Callable, NoReturn

from .errors import SourceError, SyntaxErrorML, UndeclaredIdentifierError, ValidationErrorML
from .lexer import Token, lex
from .nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    BINARY_PREC,
    BLOCK_SLOTS,
    BinOp,
    BUILTINS,
    Call,
    CallStmt,
    EXPR_SLOTS,
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
    desugar_for,
)

# Deepest nesting ``parse`` accepts.  One level is a block, an expression
# (a statement's own, or one in parentheses, brackets or call arguments),
# a unary minus (two on an operand other than an integer literal, as the
# printer writes -e as 0 - (e)), or an operator in a chain such as
# a + b + c.  The parser and the passes after it recurse over the tree;
# the parser goes deepest, about 5 Python frames a level (188 frames for
# 38 nested call arguments), so parse and every later pass stay far inside
# the default recursion limit of 1000.  Programs from gen, from any one
# transform and from any pair of transforms reach 15.
MAX_DEPTH = 40

# Largest array ``parse`` accepts.  gen declares 5 to 9 elements; at this
# bound a chain of interp.MAX_CALL_DEPTH calls, each holding one such
# array, takes about 16 MB.
MAX_ARRAY_SIZE = 10_000

Position = tuple[int, int]  # (line, col) of a token


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens, self.unclaimed = lex(source)  # unclaimed: //@vuln lines no statement took yet
        self.pos = 0
        self.tok = self.tokens[0]  # the current token, moved only by advance
        self.depth = 0
        # LineId -> (line, col) of the statement's first token; LineIds start at 1
        self.positions: list[Position] = [(0, 0)]
        # per function: its func token, then each parameter
        self.heads: list[list[Position]] = []

    # ---- token plumbing

    def error(self, message: str, tok: Token | None = None) -> SyntaxErrorML:
        tok = tok or self.tok
        return SyntaxErrorML(message, tok.line, tok.col)

    def advance(self) -> Token:
        tok = self.tok
        if tok.kind != "eof":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tok
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else tok.kind
            raise self.error(f"expected {want!r}, found {got!r}")
        self.pos += 1  # advance, inlined: what is expected is never eof
        self.tok = self.tokens[self.pos]
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tok
        return tok.kind == kind and (text is None or tok.text == text)

    def int_value(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # longer than int() converts
            raise self.error(f"integer literal of {len(tok.text)} digits is too long", tok) from None

    def number(self, tok: Token) -> tuple[int, bool]:
        """The LineId and //@vuln flag of the statement starting at tok."""
        self.positions.append((tok.line, tok.col))
        vuln = tok.line in self.unclaimed
        self.unclaimed.discard(tok.line)  # a marker goes to the first statement on its line
        return len(self.positions) - 1, vuln

    def nest(self, levels: int = 1) -> None:
        """Open nesting levels; the caller closes them with depth -= levels."""
        self.depth += levels
        if self.depth > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels")

    # ---- grammar

    def parse_program(self) -> Program:
        functions = []
        while self.tok.kind != "eof":
            functions.append(self.parse_function())
        if self.unclaimed:
            raise SyntaxErrorML("//@vuln marker not attached to any statement", min(self.unclaimed), 1)
        program = Program(functions)
        validate_program(program, self.positions, self.heads)
        return program

    def parse_function(self) -> FunctionDef:
        head = [self.expect("keyword", "func")]
        name = self.expect("ident").text
        self.expect("punct", "(")
        head += self.parse_list(lambda: self.expect("ident"))
        self.heads.append([(tok.line, tok.col) for tok in head])
        return FunctionDef(name, [tok.text for tok in head[1:]], self.parse_block())

    def parse_list(self, item: Callable[[], object]) -> list:
        """Comma-separated items, then the closing parenthesis."""
        items = []
        if not self.at("punct", ")"):
            items.append(item())
            while self.at("punct", ","):
                self.advance()
                items.append(item())
        self.expect("punct", ")")
        return items

    def parse_block(self) -> list[Stmt]:
        self.expect("punct", "{")
        self.nest()
        stmts: list[Stmt] = []
        tok = self.tok
        while tok.kind != "punct" or tok.text != "}":
            if tok.kind == "eof":
                raise self.error("unterminated block")
            stmts.append(self.parse_statement())
            tok = self.tok
        self.advance()
        self.depth -= 1
        return stmts

    def parse_statement(self) -> Stmt:
        tok = self.tok
        mark = self.number(tok)
        if tok.kind == "ident":
            st = self.parse_simple()
        elif tok.kind == "keyword" and tok.text in _STATEMENTS:
            st = _STATEMENTS[tok.text](self)
        elif tok.kind == "keyword":
            raise self.error(f"unexpected keyword {tok.text!r}")
        else:
            raise self.error("expected a statement")
        st.line_id, st.vuln = mark
        return st

    # each parse_<keyword> starts at its keyword, which parse_statement saw

    def parse_var(self) -> Stmt:
        self.advance()
        name = self.expect("ident").text
        if self.at("punct", "["):
            self.advance()
            size_tok = self.expect("int")
            self.expect("punct", "]")
            self.expect("punct", ";")
            size = self.int_value(size_tok)
            if size < 1:
                raise SyntaxErrorML("array size must be positive", size_tok.line, size_tok.col)
            if size > MAX_ARRAY_SIZE:
                raise SyntaxErrorML(f"array size must be at most {MAX_ARRAY_SIZE}", size_tok.line, size_tok.col)
            return ArrayDecl(name, size)
        init = None
        if self.at("op", "="):
            self.advance()
            init = self.parse_expr()
        self.expect("punct", ";")
        return VarDecl(name, init)

    def parse_if(self) -> Stmt:
        self.advance()
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        then_body = self.parse_block()
        if not self.at("keyword", "else"):
            return If(cond, then_body, [])
        self.advance()
        return If(cond, then_body, self.parse_block())

    def parse_while(self) -> Stmt:
        self.advance()
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        return While(cond, self.parse_block())

    def parse_for(self) -> Stmt:
        self.advance()
        self.expect("punct", "(")
        init: Stmt | None = None
        if not self.at("punct", ";"):
            mark = self.number(self.tok)
            declares = self.at("keyword", "var")
            if declares:
                self.advance()
            name = self.expect("ident").text
            self.expect("op", "=")
            init = (VarDecl if declares else Assign)(name, self.parse_expr())
            init.line_id, init.vuln = mark
        self.expect("punct", ";")
        cond = None if self.at("punct", ";") else self.parse_expr()
        self.expect("punct", ";")
        step: Stmt | None = None
        if not self.at("punct", ")"):
            mark = self.number(self.tok)
            name = self.expect("ident").text
            self.expect("op", "=")
            step = Assign(name, self.parse_expr())
            step.line_id, step.vuln = mark
        self.expect("punct", ")")
        return For(init, cond, step, self.parse_block())

    def parse_return(self) -> Stmt:
        self.advance()
        value = None if self.at("punct", ";") else self.parse_expr()
        self.expect("punct", ";")
        return Return(value)

    def parse_simple(self) -> Stmt:
        """Assignment, array write, or call statement starting at an identifier."""
        name = self.advance().text
        if self.at("punct", "("):
            call = self.parse_call(name)
            self.expect("punct", ";")
            return CallStmt(call)
        if self.at("punct", "["):
            self.advance()
            index = self.parse_expr()
            self.expect("punct", "]")
            self.expect("op", "=")
            value = self.parse_expr()
            self.expect("punct", ";")
            return ArrayAssign(name, index, value)
        self.expect("op", "=")
        value = self.parse_expr()
        self.expect("punct", ";")
        return Assign(name, value)

    def parse_call(self, name: str) -> Call:
        self.advance()  # the "(" the caller saw
        return Call(name, self.parse_list(self.parse_expr))

    # ---- expressions, by precedence climbing

    def parse_expr(self) -> Expr:
        self.nest()
        e = self.parse_binary(1)
        self.depth -= 1
        return e

    def parse_binary(self, min_prec: int) -> Expr:
        """An operand, then each operator binding at min_prec or tighter.

        A right operand takes the operators tighter than its own, so one
        call meets ever looser ones.  Each is a nesting level, kept until
        a looser one is consumed, as if each precedence had its own call.
        """
        left = self.parse_unary()
        depth, last = self.depth, min_prec
        tok = self.tok
        while tok.kind == "op":
            prec = BINARY_PREC.get(tok.text, 0)
            if prec < min_prec:
                break
            self.advance()
            if prec < last:
                self.depth = depth
            last = prec
            self.nest()
            left = BinOp(tok.text, left, self.parse_binary(prec + 1))
            tok = self.tok
        self.depth = depth
        return left

    def parse_unary(self) -> Expr:
        tok = self.tok
        kind = tok.kind
        if kind == "ident":
            self.advance()
            nxt = self.tok
            if nxt.kind == "punct" and nxt.text == "(":
                return self.parse_call(tok.text)
            if nxt.kind == "punct" and nxt.text == "[":
                self.advance()
                index = self.parse_expr()
                self.expect("punct", "]")
                return Index(tok.text, index)
            return Var(tok.text)
        if kind == "int":
            self.advance()
            return IntLit(self.int_value(tok))
        if kind == "op" and tok.text == "-":
            self.advance()
            # the printer writes -e as 0 - (e), an operator and a parenthesis,
            # unless e is an integer literal
            levels = 1 if self.tok.kind == "int" else 2
            self.nest(levels)
            inner = self.parse_unary()
            self.depth -= levels
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            return BinOp("-", IntLit(0), inner)
        if kind == "str":
            self.advance()
            return StrLit(tok.text)
        if kind == "punct" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        raise self.error(f"expected an expression, found {tok.text or tok.kind!r}")


# statement parsers by their leading keyword
_STATEMENTS = {kw: getattr(Parser, f"parse_{kw}") for kw in ("var", "if", "while", "for", "return")}


def parse(source: str) -> Program:
    """Parse, number, flag, and validate a program from source text."""
    return Parser(source).parse_program()


# --------------------------------------------------------------------------
# static validation

def validate_program(
    program: Program,
    positions: list[Position] | None = None,
    heads: list[list[Position]] | None = None,
) -> None:
    """Enforce the language's static rules.

    Unique function names, declaration-before-use, no shadowing, single
    namespace for variables and functions, and exact call arity
    (builtins included).  A for-loop is checked as its while form,
    ``nodes.desugar_for``, so its init joins the enclosing block and
    its step sees the body's declarations.  Raises UndeclaredIdentifierError
    or ValidationErrorML at ``positions[line_id]`` of the statement, else at
    its LineId and col 0; a function-level error at the func token or
    parameter in ``Parser.heads``, else at (1, 1).
    """
    def fail_head(message: str, k: int, at: int) -> NoReturn:
        line, col = heads[k][at] if heads else (1, 1)
        raise ValidationErrorML(message, line, col)

    arity: dict[str, int] = {}
    for k, fn in enumerate(program.functions):
        if fn.name in BUILTINS:
            fail_head(f"function name shadows builtin {fn.name!r}", k, 0)
        if fn.name in arity:
            fail_head(f"duplicate function name {fn.name!r}", k, 0)
        arity[fn.name] = len(fn.params)

    reserved = set(arity) | BUILTINS.keys()  # names no variable may take
    declared: set[str] = set()  # the names in scope at the statement checked

    def fail(error: type[SourceError], message: str, st: Stmt) -> NoReturn:
        line, col = positions[st.line_id] if positions else (st.line_id, 0)
        raise error(message, line, col)

    def check_expr(e: Expr, st: Stmt) -> None:
        stack = [e]  # pre-order, children left to right
        while stack:
            e = stack.pop()
            t = type(e)
            if t is BinOp:
                stack.append(e.right)
                stack.append(e.left)
            elif t is Var or t is Index:
                if e.name not in declared:
                    fail(UndeclaredIdentifierError, f"use of undeclared identifier {e.name!r}", st)
                if t is Index:
                    stack.append(e.index)
            elif t is Call:
                name, n = e.name, len(e.args)
                if name in BUILTINS:
                    if n != BUILTINS[name]:
                        fail(ValidationErrorML, f"builtin {name!r} takes {BUILTINS[name]} argument(s)", st)
                elif name not in arity:
                    fail(UndeclaredIdentifierError, f"call to undeclared function {name!r}", st)
                elif n != arity[name]:
                    fail(ValidationErrorML, f"call to {name!r} with {n} args, expected {arity[name]}", st)
                stack.extend(reversed(e.args))

    def check_block(stmts: list[Stmt]) -> None:
        added = []  # this block's declarations, out of scope at its end
        work = stmts[::-1]  # the rest of the block, next statement last
        while work:
            st = work.pop()
            t = type(st)
            if t is For:
                # checked as its while form, whose init joins this block
                work.extend(reversed(desugar_for(st)))
                continue
            for slot in EXPR_SLOTS[t]:
                e = getattr(st, slot)
                if e is not None:
                    check_expr(e, st)
            if t is VarDecl or t is ArrayDecl:
                if st.name in reserved:
                    fail(ValidationErrorML, f"variable {st.name!r} collides with a function name", st)
                if st.name in declared:
                    fail(ValidationErrorML, f"redeclaration of {st.name!r}", st)
                declared.add(st.name)
                added.append(st.name)
            elif (t is Assign or t is ArrayAssign) and st.name not in declared:
                fail(UndeclaredIdentifierError, f"assignment to undeclared identifier {st.name!r}", st)
            for slot in BLOCK_SLOTS.get(t, ()):
                check_block(getattr(st, slot))
        declared.difference_update(added)

    for k, fn in enumerate(program.functions):
        params = fn.params
        if len(set(params)) != len(params):
            at = next(i for i, p in enumerate(params) if p in params[:i])
            fail_head(f"duplicate parameter in {fn.name!r}", k, 1 + at)
        for i, p in enumerate(params):
            if p in reserved:
                fail_head(f"parameter {p!r} collides with a function name", k, 1 + i)
        declared.clear()
        declared.update(params)
        check_block(fn.body)
