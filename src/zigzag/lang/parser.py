"""Recursive-descent parser and static validator for the mini language.

The parser reads the lexer's flat token stream by index: ``Parser.pos``
is the current index and ``Parser.text`` its raw text, which
``advance`` and ``expect`` move.  A token is matched by comparing raw
texts, and its kind comes from its first character, so no ``Token`` is
built.  Expressions are parsed by precedence climbing over
``nodes.BINARY_PREC``.  At a statement's first token, a for header's
init and step included, the parser gives the statement the next
LineId, so ids run 1..n in the pre-order of ``nodes.walk_program``; it
records that token's index and takes the //@vuln flag of its line if no
statement has.  ``parse`` then runs the static validator
(declaration-before-use, no shadowing, unique function names, call
arity).  A (line, col) is computed from a token index only for an
error.  Transform outputs that never existed as text can be checked
with ``validate_program``.  Any failure, nesting deeper than
``MAX_DEPTH`` included, raises a ``MiniLangError``.

A parse may be given a memo of simple statements (``parse(source,
lines)``), which a caller keeps across the sources of one corpus, whose
variants repeat most of their originals' lines.  A simple statement is
a ``var``, an assignment, an array write, a call or a ``return``.  The
memo keys a statement by its line's token texts (the lexer's shared
tuple) and the block depth at its first token, so the ``MAX_DEPTH``
check sees the same depth, and it holds only a statement that starts at
its line's first token and ends at its line's last token, so its parse
read that line alone.  On a later hit the parser builds a fresh
statement of the stored kind over the first parse's expression nodes,
numbers and flags it as it would a parsed one, and moves to the next
line's first token.  A miss, and every ``if``, ``while`` and ``for``,
is parsed as without a memo, and so is every error.  The parses of one
memo share expression nodes: no caller changes a parse, and a pass
copies its input first (``transforms.base.clone_program``).
"""
from __future__ import annotations

from dataclasses import fields
from typing import Callable, NoReturn

from .errors import SourceError, SyntaxErrorML, UndeclaredIdentifierError, ValidationErrorML
from .lexer import DIGITS, NAME_START, lex, string_value
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
    KEYWORDS,
    Program,
    Return,
    SimpleStmt,
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

# the fields of each simple statement kind, in its constructor's order
_SIMPLE_FIELDS = {kind: tuple(f.name for f in fields(kind)) for kind in SimpleStmt}

# a statement memo: (line's token texts, depth) -> (kind, field values)
StatementMemo = dict[tuple[tuple[str, ...], int], tuple[type, tuple]]


class Parser:
    def __init__(self, source: str, lines: StatementMemo | None = None) -> None:
        self.stream, self.unclaimed = lex(source)  # unclaimed: //@vuln lines no statement took yet
        self.memo = lines
        if lines is not None:
            # index of a line's first token -> the line's texts, for each line with a token
            self.line_at = {first: texts for first, texts in zip(self.stream.firsts, self.stream.lines) if texts}
        self.texts = self.stream.texts
        self.pos = 0
        self.text = self.texts[0]  # the current token's raw text, moved by advance and expect
        self.depth = 0
        # LineId -> index of the statement's first token; LineIds start at 1
        self.starts: list[int] = [0]
        # per function: the index of its func token, then of each parameter
        self.heads: list[list[int]] = []

    # ---- token plumbing

    def error(self, message: str, at: int | None = None) -> SyntaxErrorML:
        """The error at token `at`, the current one by default."""
        line, col = self.stream.position(self.pos if at is None else at)
        return SyntaxErrorML(message, line, col)

    def expected(self, want: str) -> SyntaxErrorML:
        tok = self.stream[self.pos]  # a string as its value, eof by its kind
        return SyntaxErrorML(f"expected {want!r}, found {tok.text or tok.kind!r}", tok.line, tok.col)

    def advance(self) -> str:
        text = self.text
        if text:  # only eof's text is empty
            self.pos += 1
            self.text = self.texts[self.pos]
        return text

    def expect(self, text: str) -> None:
        if self.text != text:
            raise self.expected(text)
        self.pos += 1  # advance, inlined: what is expected is never eof
        self.text = self.texts[self.pos]

    def expect_name(self) -> str:
        text = self.text
        if text[:1] not in NAME_START or text in KEYWORDS:
            raise self.expected("ident")
        self.pos += 1
        self.text = self.texts[self.pos]
        return text

    def int_value(self, text: str, at: int) -> int:
        try:
            return int(text)
        except ValueError:  # longer than int() converts
            raise self.error(f"integer literal of {len(text)} digits is too long", at) from None

    def number(self) -> tuple[int, bool]:
        """The LineId and //@vuln flag of the statement starting at the current token."""
        self.starts.append(self.pos)
        vuln = False
        if self.unclaimed:
            line = self.stream.line(self.pos)
            vuln = line in self.unclaimed
            self.unclaimed.discard(line)  # a marker goes to the first statement on its line
        return len(self.starts) - 1, vuln

    def nest(self, levels: int = 1) -> None:
        """Open nesting levels; the caller closes them with depth -= levels."""
        self.depth += levels
        if self.depth > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels")

    # ---- grammar

    def parse_program(self) -> Program:
        functions = []
        while self.text:
            functions.append(self.parse_function())
        if self.unclaimed:
            raise SyntaxErrorML("//@vuln marker not attached to any statement", min(self.unclaimed), 1)
        program = Program(functions)
        validate_program(program, self)
        return program

    def parse_function(self) -> FunctionDef:
        start = self.pos
        self.expect("func")
        name = self.expect_name()
        self.expect("(")
        params = self.parse_list(self.expect_name)
        # the parameters are every other token from the one after "("
        self.heads.append([start, *range(start + 3, self.pos - 1, 2)])
        return FunctionDef(name, params, self.parse_block())

    def parse_list(self, item: Callable[[], object]) -> list:
        """Comma-separated items, then the closing parenthesis."""
        items = []
        if self.text != ")":
            items.append(item())
            while self.text == ",":
                self.advance()
                items.append(item())
        self.expect(")")
        return items

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        self.nest()
        stmts: list[Stmt] = []
        while self.text != "}":
            if not self.text:
                raise self.error("unterminated block")
            stmts.append(self.parse_statement())
        self.advance()
        self.depth -= 1
        return stmts

    def parse_statement(self) -> Stmt:
        text = self.text
        start, line = self.pos, None
        if self.memo is not None:
            line = self.line_at.get(start)
            if line is not None:
                key = (line, self.depth)
                hit = self.memo.get(key)
                if hit is not None:
                    kind, values = hit
                    st = kind(*values)
                    st.line_id, st.vuln = self.number()
                    self.pos = start + len(line)  # the next line's first token
                    self.text = self.texts[self.pos]
                    return st
        mark = self.number()
        keyword = _STATEMENTS.get(text)
        if keyword is not None:
            st = keyword(self)
        elif text in KEYWORDS:
            raise self.error(f"unexpected keyword {text!r}")
        elif text[:1] in NAME_START:
            st = self.parse_simple()
        else:
            raise self.error("expected a statement")
        st.line_id, st.vuln = mark
        if line is not None and self.pos - start == len(line) and type(st) in _SIMPLE_FIELDS:
            self.memo[key] = (type(st), tuple(getattr(st, name) for name in _SIMPLE_FIELDS[type(st)]))
        return st

    # each parse_<keyword> starts at its keyword, which parse_statement saw

    def parse_var(self) -> Stmt:
        self.advance()
        name = self.expect_name()
        if self.text == "[":
            self.advance()
            at = self.pos
            if self.text[:1] not in DIGITS:
                raise self.expected("int")
            size_text = self.advance()
            self.expect("]")
            self.expect(";")
            size = self.int_value(size_text, at)
            if size < 1:
                raise self.error("array size must be positive", at)
            if size > MAX_ARRAY_SIZE:
                raise self.error(f"array size must be at most {MAX_ARRAY_SIZE}", at)
            return ArrayDecl(name, size)
        init = None
        if self.text == "=":
            self.advance()
            init = self.parse_expr()
        self.expect(";")
        return VarDecl(name, init)

    def parse_if(self) -> Stmt:
        self.advance()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_block()
        if self.text != "else":
            return If(cond, then_body, [])
        self.advance()
        return If(cond, then_body, self.parse_block())

    def parse_while(self) -> Stmt:
        self.advance()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return While(cond, self.parse_block())

    def parse_for(self) -> Stmt:
        self.advance()
        self.expect("(")
        init: Stmt | None = None
        if self.text != ";":
            mark = self.number()
            declares = self.text == "var"
            if declares:
                self.advance()
            name = self.expect_name()
            self.expect("=")
            init = (VarDecl if declares else Assign)(name, self.parse_expr())
            init.line_id, init.vuln = mark
        self.expect(";")
        cond = None if self.text == ";" else self.parse_expr()
        self.expect(";")
        step: Stmt | None = None
        if self.text != ")":
            mark = self.number()
            name = self.expect_name()
            self.expect("=")
            step = Assign(name, self.parse_expr())
            step.line_id, step.vuln = mark
        self.expect(")")
        return For(init, cond, step, self.parse_block())

    def parse_return(self) -> Stmt:
        self.advance()
        value = None if self.text == ";" else self.parse_expr()
        self.expect(";")
        return Return(value)

    def parse_simple(self) -> Stmt:
        """Assignment, array write, or call statement starting at an identifier."""
        name = self.advance()
        if self.text == "(":
            call = self.parse_call(name)
            self.expect(";")
            return CallStmt(call)
        if self.text == "[":
            self.advance()
            index = self.parse_expr()
            self.expect("]")
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return ArrayAssign(name, index, value)
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
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
        op = self.text
        prec = BINARY_PREC.get(op, 0)  # 0 for `=` and every other token
        if prec < min_prec:
            return left
        depth, last = self.depth, min_prec
        while prec >= min_prec:
            self.pos += 1  # advance, inlined: an operator is never eof
            self.text = self.texts[self.pos]
            if prec < last:
                self.depth = depth
            last = prec
            self.nest()
            left = BinOp(op, left, self.parse_binary(prec + 1))
            op = self.text
            prec = BINARY_PREC.get(op, 0)
        self.depth = depth
        return left

    def parse_unary(self) -> Expr:
        text = self.text
        first = text[:1]
        if first in NAME_START and text not in KEYWORDS:
            self.pos += 1  # advance, inlined, here and for a literal below
            nxt = self.text = self.texts[self.pos]
            if nxt == "(":
                return self.parse_call(text)
            if nxt == "[":
                self.advance()
                index = self.parse_expr()
                self.expect("]")
                return Index(text, index)
            return Var(text)
        if first in DIGITS:
            at = self.pos
            self.pos += 1
            self.text = self.texts[self.pos]
            return IntLit(self.int_value(text, at))
        if text == "-":
            self.advance()
            # the printer writes -e as 0 - (e), an operator and a parenthesis,
            # unless e is an integer literal
            levels = 1 if self.text[:1] in DIGITS else 2
            self.nest(levels)
            inner = self.parse_unary()
            self.depth -= levels
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            return BinOp("-", IntLit(0), inner)
        if first == '"':
            self.advance()
            return StrLit(string_value(text))
        if text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise self.error(f"expected an expression, found {text or 'eof'!r}")


# statement parsers by their leading keyword
_STATEMENTS = {kw: getattr(Parser, f"parse_{kw}") for kw in ("var", "if", "while", "for", "return")}


def parse(source: str, lines: StatementMemo | None = None) -> Program:
    """Parse, number, flag, and validate a program from source text,
    through the statement memo `lines` when given (see the module
    docstring); the program is the same with or without it."""
    return Parser(source, lines).parse_program()


# --------------------------------------------------------------------------
# static validation

def validate_program(program: Program, parsed: Parser | None = None) -> None:
    """Enforce the language's static rules.

    Unique function names, declaration-before-use, no shadowing, single
    namespace for variables and functions, and exact call arity
    (builtins included).  A for-loop is checked as its while form,
    ``nodes.desugar_for``, so its init joins the enclosing block and
    its step sees the body's declarations.  Raises UndeclaredIdentifierError
    or ValidationErrorML at a statement's first token, or at the func
    token or parameter of a function-level error, when ``parsed`` is the
    Parser that read ``program``; else at the statement's LineId and
    col 0, or at (1, 1).
    """
    def fail_head(message: str, k: int, at: int) -> NoReturn:
        line, col = parsed.stream.position(parsed.heads[k][at]) if parsed else (1, 1)
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
        line, col = parsed.stream.position(parsed.starts[st.line_id]) if parsed else (st.line_id, 0)
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

    try:
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
    finally:
        # check_block reaches itself through its closure cell; emptying the
        # cell frees the closures, and the parse that `fail` reads, now
        # rather than at the next garbage collection
        del check_block
