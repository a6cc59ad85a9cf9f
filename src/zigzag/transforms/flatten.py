"""Control-flow flattening (ct3).

Each eligible function body is lowered to numbered basic blocks driven
by a dispatch loop over a program-counter variable; block numbering is
shuffled with the pass seed.  Declarations are hoisted to a prologue
and their initializations stay in place as assignments, so declarations
inside loop bodies keep their per-iteration reset semantics.  A
function is eligible when it contains control flow and none of its
arrays are declared inside a loop or share a name across sibling
scopes.

The lowering walks each statement list once, continuing in a fresh
block after every if, while or dead tail, so only nesting recurses: a
long flat body costs no Python stack.  A for-loop is lowered as its
while form, ``nodes.desugar_for``, the form the interpreter runs.
"""
from __future__ import annotations

import numpy as np

from ..lang.nodes import (
    ArrayDecl,
    Assign,
    BinOp,
    For,
    FunctionDef,
    If,
    IntLit,
    Program,
    Return,
    Stmt,
    Var,
    VarDecl,
    While,
    child_blocks,
    derived,
    desugar_for,
    source_origin,
    walk_statements,
)
from .base import InapplicableTransform, Namer, clone_program


def has_control_flow(fn: FunctionDef) -> bool:
    return any(isinstance(st, (If, While, For)) for st in walk_statements(fn.body))


def _arrays_ok(fn: FunctionDef) -> bool:
    names: set[str] = set()

    def scan(stmts: list[Stmt], in_loop: bool) -> bool:
        for st in stmts:
            if isinstance(st, ArrayDecl):
                if in_loop or st.name in names:
                    return False
                names.add(st.name)
            # a for header's init is a VarDecl or Assign, never an array
            body_in_loop = in_loop or not isinstance(st, If)
            if not all(scan(block, body_in_loop) for block in child_blocks(st)):
                return False
        return True

    return scan(fn.body, False)


def flattenable(fn: FunctionDef) -> bool:
    return has_control_flow(fn) and _arrays_ok(fn)


class _Lowerer:
    """Compiles a statement list into jump-threaded basic blocks, moving
    the draft's statements and expressions into them."""

    EXIT = -1

    def __init__(self, pc: str, ret: str) -> None:
        self.pc = pc
        self.ret = ret
        self.blocks: list[list[Stmt]] = []
        self.jumps: list[tuple[IntLit, int]] = []  # literal to patch -> provisional block id

    def new_block(self) -> int:
        self.blocks.append([])
        return len(self.blocks) - 1

    def _jump_stmt(self, target: int) -> Stmt:
        lit = IntLit(target)
        if target != self.EXIT:
            self.jumps.append((lit, target))
        return Assign(self.pc, lit)

    def jump(self, block: int, target: int) -> None:
        self.blocks[block].append(self._jump_stmt(target))

    def cond_jump(self, block: int, cond, then_target: int, else_target: int, src: Stmt) -> None:
        st = If(cond, [self._jump_stmt(then_target)], [self._jump_stmt(else_target)])
        self.blocks[block].append(derived(st, src))

    def compile(self, stmts: list[Stmt], block: int, follow: int, hoist: dict[str, Stmt]) -> None:
        """Emit stmts into `block`, ending with a jump to `follow`."""
        cur = block
        work = stmts[::-1]  # the rest of the list, next statement last
        while work:
            st = work.pop()
            if isinstance(st, For):
                work.extend(reversed(desugar_for(st)))
            elif isinstance(st, VarDecl):
                if st.name not in hoist:
                    # origin only: the reset below carries the flag, so one
                    # flagged input gives one flagged output statement
                    decl = VarDecl(st.name)
                    decl.origin = source_origin(st)
                    hoist[st.name] = decl
                reset = Assign(st.name, st.init if st.init is not None else IntLit(0))
                self.blocks[cur].append(derived(reset, st))
            elif isinstance(st, ArrayDecl):
                if st.name not in hoist:
                    hoist[st.name] = st
                # eligibility guarantees single declaration outside loops
            elif isinstance(st, If):
                then_b = self.new_block()
                else_b = self.new_block()
                cont = self.new_block()
                self.cond_jump(cur, st.cond, then_b, else_b, st)
                self.compile(st.then_body, then_b, cont, hoist)
                self.compile(st.else_body, else_b, cont, hoist)
                cur = cont
            elif isinstance(st, While):
                header = self.new_block()
                body_b = self.new_block()
                cont = self.new_block()
                self.jump(cur, header)
                self.cond_jump(header, st.cond, body_b, cont, st)
                self.compile(st.body, body_b, header, hoist)
                cur = cont
            elif isinstance(st, Return):
                exit_jump = self._jump_stmt(self.EXIT)
                if st.value is None:
                    derived(exit_jump, st)
                else:
                    self.blocks[cur].append(derived(Assign(self.ret, st.value), st))
                    # origin only, for the same reason as a hoisted declaration:
                    # the assignment above carries the flag
                    exit_jump.origin = source_origin(st)
                self.blocks[cur].append(exit_jump)
                if not work:
                    return  # the exit jump ends the list; no jump to follow
                # statically unreachable tail keeps its LineMap images
                cur = self.new_block()
            else:
                self.blocks[cur].append(st)
        self.jump(cur, follow)


def _dispatch_tree(pc: str, ids: list[int], blocks: dict[int, list[Stmt]]) -> list[Stmt]:
    if len(ids) == 1:
        return blocks[ids[0]]
    mid = ids[len(ids) // 2]
    return [If(
        BinOp("<", Var(pc), IntLit(mid)),
        _dispatch_tree(pc, ids[: len(ids) // 2], blocks),
        _dispatch_tree(pc, ids[len(ids) // 2 :], blocks),
    )]


def flatten_function(fn: FunctionDef, rng: np.random.Generator, namer: Namer) -> FunctionDef:
    """The flattened form of a draft function; fn's statements move into it."""
    pc = namer.fresh("pc")
    ret = namer.fresh("ret")
    lower = _Lowerer(pc, ret)
    entry = lower.new_block()
    hoist: dict[str, Stmt] = {}
    lower.compile(fn.body, entry, _Lowerer.EXIT, hoist)

    perm = rng.permutation(len(lower.blocks))
    new_id = {old: int(perm[old]) for old in range(len(lower.blocks))}
    for lit, target in lower.jumps:
        lit.value = new_id[target]
    numbered = {new_id[old]: stmts for old, stmts in enumerate(lower.blocks)}

    body: list[Stmt] = list(hoist.values())
    body.append(VarDecl(pc, IntLit(new_id[entry])))
    body.append(VarDecl(ret, IntLit(0)))
    loop = While(
        BinOp(">=", Var(pc), IntLit(0)),
        _dispatch_tree(pc, sorted(numbered), numbered),
    )
    body.append(loop)
    body.append(Return(Var(ret)))
    return FunctionDef(fn.name, list(fn.params), body)


def pass_ct3(program: Program, rng: np.random.Generator) -> Program:
    draft = clone_program(program)
    namer = Namer(draft)
    eligible = [fn for fn in draft.functions if flattenable(fn)]
    if not eligible:
        raise InapplicableTransform("ct3", "no function with control flow to remove")
    replaced = {fn.name: flatten_function(fn, rng, namer) for fn in eligible}
    draft.functions = [replaced.get(fn.name, fn) for fn in draft.functions]
    return draft
