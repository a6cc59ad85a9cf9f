"""Recursive-descent parser and static validator for the mini language.

``parse`` performs syntax analysis, assigns LineIds in pre-order,
attaches //@vuln flags to the statement starting on the marked physical
line, and then runs the static validator (declaration-before-use, no
shadowing, unique function names, call arity).  Transform outputs that
never existed as text can be checked with ``validate_program``.  Any
failure, nesting deeper than ``MAX_DEPTH`` included, raises a
``MiniLangError``.
"""
from __future__ import annotations

from .errors import SyntaxErrorML, UndeclaredIdentifierError, ValidationErrorML
from .lexer import Token, lex
from .nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    BINARY_LEVELS,
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
    child_blocks,
    desugar_for,
    renumber,
    stmt_expressions,
    walk_expr,
    walk_statements,
)

# Deepest nesting ``parse`` accepts.  One level is a block, an expression
# (a statement's own, or one in parentheses, brackets or call arguments),
# a unary minus, or an operator in a chain such as a + b + c.  The parser
# and the passes after it recurse over the tree; the parser goes deepest,
# about 12 Python frames a level (nested calls), so at 40 levels parse and
# every later pass need at most 440 frames and stay inside the default
# recursion limit of 1000.  Programs from gen, from any one transform and
# from any pair of transforms reach 15.
MAX_DEPTH = 40

# Largest array ``parse`` accepts.  gen declares 5 to 9 elements; at this
# bound a chain of interp.MAX_CALL_DEPTH calls, each holding one such
# array, takes about 16 MB.
MAX_ARRAY_SIZE = 10_000


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens, self.vuln_lines = lex(source)
        self.pos = 0
        self.depth = 0
        # statement id -> (line, col) of its first token
        self.positions: dict[int, tuple[int, int]] = {}

    # ---- token plumbing

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, tok: Token | None = None) -> SyntaxErrorML:
        tok = tok or self.current
        return SyntaxErrorML(message, tok.line, tok.col)

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.current
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else tok.kind
            raise self.error(f"expected {want!r}, found {got!r}")
        return self.advance()

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.current
        return tok.kind == kind and (text is None or tok.text == text)

    def int_value(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # longer than int() converts
            raise self.error(f"integer literal of {len(tok.text)} digits is too long", tok) from None

    def nest(self) -> None:
        """Open one nesting level; the caller closes it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels")

    # ---- grammar

    def parse_program(self) -> Program:
        functions = []
        while not self.at("eof"):
            functions.append(self.parse_function())
        program = Program(functions)
        renumber(program)
        self._attach_vuln_flags(program)
        validate_program(program, positions=self.positions)
        return program

    def parse_function(self) -> FunctionDef:
        self.expect("keyword", "func")
        name = self.expect("ident").text
        self.expect("punct", "(")
        params: list[str] = []
        if not self.at("punct", ")"):
            params.append(self.expect("ident").text)
            while self.at("punct", ","):
                self.advance()
                params.append(self.expect("ident").text)
        self.expect("punct", ")")
        body = self.parse_block()
        return FunctionDef(name, params, body)

    def parse_block(self) -> list[Stmt]:
        self.expect("punct", "{")
        self.nest()
        stmts: list[Stmt] = []
        while not self.at("punct", "}"):
            if self.at("eof"):
                raise self.error("unterminated block")
            stmts.append(self.parse_statement())
        self.expect("punct", "}")
        self.depth -= 1
        return stmts

    def _done(self, st: Stmt, tok: Token) -> Stmt:
        self.positions[id(st)] = (tok.line, tok.col)
        return st

    def parse_statement(self) -> Stmt:
        tok = self.current
        if tok.kind == "keyword":
            if tok.text == "var":
                return self._done(self.parse_var_decl(), tok)
            if tok.text == "if":
                return self._done(self.parse_if(), tok)
            if tok.text == "while":
                return self._done(self.parse_while(), tok)
            if tok.text == "for":
                return self._done(self.parse_for(), tok)
            if tok.text == "return":
                return self._done(self.parse_return(), tok)
            raise self.error(f"unexpected keyword {tok.text!r}")
        if tok.kind == "ident":
            return self._done(self.parse_simple(), tok)
        raise self.error("expected a statement")

    def parse_var_decl(self) -> Stmt:
        self.expect("keyword", "var")
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
        self.expect("keyword", "if")
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        then_body = self.parse_block()
        else_body: list[Stmt] = []
        if self.at("keyword", "else"):
            self.advance()
            else_body = self.parse_block()
        return If(cond, then_body, else_body)

    def parse_while(self) -> Stmt:
        self.expect("keyword", "while")
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        return While(cond, self.parse_block())

    def parse_for(self) -> Stmt:
        self.expect("keyword", "for")
        self.expect("punct", "(")
        init: Stmt | None = None
        if not self.at("punct", ";"):
            tok = self.current
            if self.at("keyword", "var"):
                self.expect("keyword", "var")
                name = self.expect("ident").text
                self.expect("op", "=")
                init = VarDecl(name, self.parse_expr())
            else:
                name = self.expect("ident").text
                self.expect("op", "=")
                init = Assign(name, self.parse_expr())
            self._done(init, tok)
        self.expect("punct", ";")
        cond = None if self.at("punct", ";") else self.parse_expr()
        self.expect("punct", ";")
        step: Stmt | None = None
        if not self.at("punct", ")"):
            tok = self.current
            name = self.expect("ident").text
            self.expect("op", "=")
            step = Assign(name, self.parse_expr())
            self._done(step, tok)
        self.expect("punct", ")")
        return For(init, cond, step, self.parse_block())

    def parse_return(self) -> Stmt:
        self.expect("keyword", "return")
        value = None if self.at("punct", ";") else self.parse_expr()
        self.expect("punct", ";")
        return Return(value)

    def parse_simple(self) -> Stmt:
        """Assignment, array write, or call statement starting at an identifier."""
        name_tok = self.expect("ident")
        if self.at("punct", "("):
            call = self.parse_call(name_tok.text)
            self.expect("punct", ";")
            return CallStmt(call)
        if self.at("punct", "["):
            self.advance()
            index = self.parse_expr()
            self.expect("punct", "]")
            self.expect("op", "=")
            value = self.parse_expr()
            self.expect("punct", ";")
            return ArrayAssign(name_tok.text, index, value)
        self.expect("op", "=")
        value = self.parse_expr()
        self.expect("punct", ";")
        return Assign(name_tok.text, value)

    def parse_call(self, name: str) -> Call:
        self.expect("punct", "(")
        args: list[Expr] = []
        if not self.at("punct", ")"):
            args.append(self.parse_expr())
            while self.at("punct", ","):
                self.advance()
                args.append(self.parse_expr())
        self.expect("punct", ")")
        return Call(name, args)

    # ---- expressions, one recursion level per precedence level

    def parse_expr(self) -> Expr:
        self.nest()
        e = self.parse_binary(0)
        self.depth -= 1
        return e

    def parse_binary(self, level: int) -> Expr:
        """Left-associative chain of the operators at BINARY_LEVELS[level]."""
        if level == len(BINARY_LEVELS):
            return self.parse_unary()
        ops = BINARY_LEVELS[level]
        left = self.parse_binary(level + 1)
        depth = self.depth
        while self.current.kind == "op" and self.current.text in ops:
            op = self.advance().text
            self.nest()
            left = BinOp(op, left, self.parse_binary(level + 1))
        self.depth = depth
        return left

    def parse_unary(self) -> Expr:
        if self.at("op", "-"):
            self.advance()
            self.nest()
            inner = self.parse_unary()
            self.depth -= 1
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            return BinOp("-", IntLit(0), inner)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return IntLit(self.int_value(tok))
        if tok.kind == "str":
            self.advance()
            return StrLit(tok.text)
        if tok.kind == "ident":
            self.advance()
            if self.at("punct", "("):
                return self.parse_call(tok.text)
            if self.at("punct", "["):
                self.advance()
                index = self.parse_expr()
                self.expect("punct", "]")
                return Index(tok.text, index)
            return Var(tok.text)
        if self.at("punct", "("):
            self.advance()
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        raise self.error(f"expected an expression, found {tok.text or tok.kind!r}")

    # ---- vuln markers

    def _attach_vuln_flags(self, program: Program) -> None:
        if not self.vuln_lines:
            return
        claimed: set[int] = set()
        for fn in program.functions:
            for st in walk_statements(fn.body):
                pos = self.positions.get(id(st))
                if pos is None:
                    continue
                line = pos[0]
                if line in self.vuln_lines and line not in claimed:
                    st.vuln = True
                    claimed.add(line)
        dangling = self.vuln_lines - claimed
        if dangling:
            line = min(dangling)
            raise SyntaxErrorML("//@vuln marker not attached to any statement", line, 1)


def parse(source: str) -> Program:
    """Parse, number, flag, and validate a program from source text."""
    return Parser(source).parse_program()


# --------------------------------------------------------------------------
# static validation

def validate_program(program: Program, positions: dict[int, tuple[int, int]] | None = None) -> None:
    """Enforce the language's static rules.

    Unique function names, declaration-before-use, no shadowing, single
    namespace for variables and functions, and exact call arity
    (builtins included).  A for-loop is checked as its while form,
    ``nodes.desugar_for``, so its init joins the enclosing block and
    its step sees the body's declarations.  Raises UndeclaredIdentifierError or
    ValidationErrorML with the statement's source position when known,
    otherwise its LineId.
    """
    positions = positions or {}
    arity: dict[str, int] = {}
    for fn in program.functions:
        if fn.name in BUILTINS:
            raise ValidationErrorML(f"function name shadows builtin {fn.name!r}", 1, 1)
        if fn.name in arity:
            raise ValidationErrorML(f"duplicate function name {fn.name!r}", 1, 1)
        arity[fn.name] = len(fn.params)

    fn_names = set(arity)

    def pos_of(st: Stmt) -> tuple[int, int]:
        return positions.get(id(st), (st.line_id, 0))

    def check_expr(e: Expr, scopes: list[set[str]], st: Stmt) -> None:
        line, col = pos_of(st)
        for sub in walk_expr(e):
            if isinstance(sub, (Var, Index)):
                if not any(sub.name in s for s in scopes):
                    raise UndeclaredIdentifierError(f"use of undeclared identifier {sub.name!r}", line, col)
            elif isinstance(sub, Call):
                if sub.name in BUILTINS:
                    if len(sub.args) != BUILTINS[sub.name]:
                        raise ValidationErrorML(
                            f"builtin {sub.name!r} takes {BUILTINS[sub.name]} argument(s)", line, col
                        )
                elif sub.name in arity:
                    if len(sub.args) != arity[sub.name]:
                        raise ValidationErrorML(
                            f"call to {sub.name!r} with {len(sub.args)} args, expected {arity[sub.name]}",
                            line,
                            col,
                        )
                else:
                    raise UndeclaredIdentifierError(f"call to undeclared function {sub.name!r}", line, col)

    def declare(name: str, scopes: list[set[str]], st: Stmt) -> None:
        line, col = pos_of(st)
        if name in fn_names or name in BUILTINS:
            raise ValidationErrorML(f"variable {name!r} collides with a function name", line, col)
        if any(name in s for s in scopes):
            raise ValidationErrorML(f"redeclaration of {name!r}", line, col)
        scopes[-1].add(name)

    def check_target(name: str, scopes: list[set[str]], st: Stmt) -> None:
        if not any(name in s for s in scopes):
            line, col = pos_of(st)
            raise UndeclaredIdentifierError(f"assignment to undeclared identifier {name!r}", line, col)

    def check_seq(stmts: list[Stmt], scopes: list[set[str]]) -> None:
        scopes.append(set())
        work = stmts[::-1]  # the rest of the block, next statement last
        while work:
            st = work.pop()
            t = type(st)
            if t is For:
                # checked as its while form, whose init joins this block;
                # the while reports header errors at the for's position
                parts = desugar_for(st)
                positions[id(parts[-1])] = pos_of(st)
                work.extend(reversed(parts))
                continue
            for e in stmt_expressions(st):
                check_expr(e, scopes, st)
            if t is VarDecl or t is ArrayDecl:
                declare(st.name, scopes, st)
            elif t is Assign or t is ArrayAssign:
                check_target(st.name, scopes, st)
            for block in child_blocks(st):
                check_seq(block, scopes)
        scopes.pop()

    for fn in program.functions:
        if len(set(fn.params)) != len(fn.params):
            raise ValidationErrorML(f"duplicate parameter in {fn.name!r}", 1, 1)
        for p in fn.params:
            if p in fn_names or p in BUILTINS:
                raise ValidationErrorML(f"parameter {p!r} collides with a function name", 1, 1)
        check_seq(fn.body, [set(fn.params)])

    seen_ids: set[int] = set()
    for fn in program.functions:
        for st in walk_statements(fn.body):
            if st.line_id in seen_ids:
                raise ValidationErrorML(f"duplicate LineId {st.line_id}", st.line_id, 0)
            seen_ids.add(st.line_id)
