"""The CPE program as a flat instruction stream.

The verifier's :class:`~repro.verify.machine.ScheduleMachine` and the
simulator's :class:`~repro.runtime.executor.Executor` run the program
body lowered once to a flat instruction list that every CPE runs with
its own :class:`Cursor`.  This module is the lowering they share — loop
enter/next, branch/jump, expressions compiled to closures — while each
brings its own leaf instructions and scheduling loop.  An instruction
returns :data:`NEXT` to keep running, or ends the resume with one step
taken (:data:`STEP`), blocked (:data:`BLOCKED`, re-polled on the next
resume) or at the end of the program (:data:`DONE`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.poly.affine import AffExpr
from repro.poly.astnodes import (
    BINARY_OPS,
    AffRef,
    BinExpr,
    Block,
    CommentStmt,
    Expr,
    ForLoop,
    IfStmt,
    IntLit,
    Stmt,
    VarRef,
)

NEXT, STEP, BLOCKED, DONE = 0, 1, 2, 3


class Cursor:
    """Where one CPE is in a lowered program."""

    __slots__ = ("env", "ienv", "pc", "loops")

    def __init__(self, env: Dict[str, object], slots: int = 0) -> None:
        self.env = env
        #: The int bindings of ``env`` — all an ``AffRef`` may read.
        self.ienv = {k: v for k, v in env.items() if isinstance(v, int)}
        self.pc = 0
        #: loop slot -> the running loop's ``range`` iterator.
        self.loops: List[object] = [None] * slots


#: One lowered instruction: runs on a cursor, moves its program counter
#: and returns one of ``NEXT``/``STEP``/``BLOCKED``/``DONE``.
Instr = Callable[[Cursor], int]
#: A compiled expression: its value on a cursor.
Value = Callable[[Cursor], object]
Leaf = Callable[[Stmt], List[Instr]]


def lower(body: Stmt, leaf: Leaf) -> Tuple[List[Instr], int]:
    """``body`` as a flat instruction list ending in the end-of-program
    instruction, and the number of loop slots a cursor needs for it."""
    code: List[Optional[Instr]] = []
    slots = _emit(body, code, leaf, 0)
    code.append(_end)
    return code, slots


def _emit(stmt: Stmt, code: List[Optional[Instr]], leaf: Leaf, slots: int) -> int:
    """Append ``stmt``'s instructions to ``code``; returns the loop slots
    used so far.  Unknown jump targets are ``None`` until emitted.  (A
    self-recursive closure here would be a reference cycle.)"""
    if isinstance(stmt, Block):
        for inner in stmt.body:
            slots = _emit(inner, code, leaf, slots)
    elif isinstance(stmt, ForLoop):
        slot = slots
        code.append(_loop_enter(stmt, slot))
        head = len(code)
        code.append(None)
        slots = _emit(stmt.body, code, leaf, slots + 1)
        code.append(_jump(head))
        code[head] = _loop_next(stmt.var, slot, head + 1, len(code))
    elif isinstance(stmt, IfStmt):
        test = len(code)
        code.append(None)
        slots = _emit(stmt.then, code, leaf, slots)
        if stmt.els is None:
            code[test] = _branch(stmt.cond, test + 1, len(code))
        else:
            skip = len(code)
            code.append(None)
            code[test] = _branch(stmt.cond, test + 1, len(code))
            slots = _emit(stmt.els, code, leaf, slots)
            code[skip] = _jump(len(code))
    elif not isinstance(stmt, CommentStmt):
        code.extend(leaf(stmt))
    return slots


# -- control-flow instructions ---------------------------------------------


def _end(cursor: Cursor) -> int:
    return DONE


def _jump(target: int) -> Instr:
    def jump(cursor: Cursor) -> int:
        cursor.pc = target
        return NEXT

    return jump


def _branch(cond, then: int, other: int) -> Instr:
    cond_of = compile_expr(cond)

    def branch(cursor: Cursor) -> int:
        cursor.pc = then if cond_of(cursor) else other
        return NEXT

    return branch


def _loop_enter(loop: ForLoop, slot: int) -> Instr:
    """Python ``range`` semantics: both bounds are evaluated once, on
    entry."""
    lo_of = compile_expr(loop.lo)
    hi_of = compile_expr(loop.hi)
    step = loop.step

    def loop_enter(cursor: Cursor) -> int:
        lo = lo_of(cursor)
        cursor.loops[slot] = iter(range(lo, hi_of(cursor), step))
        cursor.pc += 1
        return NEXT

    return loop_enter


def _loop_next(var: str, slot: int, body: int, exit: int) -> Instr:
    """Bind the next loop value, or unbind the variable and leave."""

    def loop_next(cursor: Cursor) -> int:
        value = next(cursor.loops[slot], None)
        if value is None:
            cursor.env.pop(var, None)
            cursor.ienv.pop(var, None)
            cursor.pc = exit
        else:
            cursor.env[var] = value
            cursor.ienv[var] = value
            cursor.pc = body
        return NEXT

    return loop_next


# -- expressions -------------------------------------------------------------


def constant(value) -> Value:
    return lambda cursor: value


def compile_expr(expr, operand: bool = False) -> Value:
    """``expr`` as a closure, with the semantics of its ``evaluate``: an
    ``AffRef`` sees only the int bindings, ``BinExpr`` evaluates both
    operands first.  At the top level (``operand`` false) a bare int is
    its own value and anything else that is not an expression fails with
    a ``TypeError`` — when evaluated, never when compiled."""
    if isinstance(expr, IntLit):
        return constant(expr.value)
    if isinstance(expr, AffRef):
        return _compile_aff_ref(expr)
    if isinstance(expr, VarRef):
        name = expr.name

        def lookup(cursor: Cursor):
            try:
                return cursor.env[name]
            except KeyError:
                return expr.evaluate(cursor.env)  # raises: unbound

        return lookup
    if isinstance(expr, BinExpr) and expr.op in BINARY_OPS:
        op = BINARY_OPS[expr.op]
        lhs = compile_expr(expr.lhs, operand=True)
        rhs = compile_expr(expr.rhs, operand=True)
        return lambda cursor: op(lhs(cursor), rhs(cursor))
    if operand or isinstance(expr, Expr):
        return lambda cursor: expr.evaluate(cursor.env)
    if isinstance(expr, int):
        return constant(expr)

    def fail(cursor: Cursor):
        raise TypeError(f"cannot evaluate {expr!r} statically")

    return fail


def _compile_aff_ref(ref: AffRef) -> Value:
    aff = ref.aff
    if aff.is_constant():
        return constant(aff.const)
    value = _compile_aff(aff)

    def evaluate(cursor: Cursor) -> int:
        try:
            return value(cursor.ienv)
        except KeyError:
            return aff.evaluate(cursor.ienv)  # raises: unbound variable

    return evaluate


def _compile_aff(aff: AffExpr) -> Callable[[Dict[str, int]], int]:
    """``const + Σ c·env[v] + Σ c·(g(env) // d)`` as a closure."""
    const = aff.const
    terms = tuple(aff.coeffs.items())
    divs = tuple(
        (_compile_aff(term.arg), term.divisor, c) for term, c in aff.divs.items()
    )
    # The shapes slots and bounds take — ``c·v + k``, ``c·floor(g/d) + k``
    # and ``v mod d`` as ``v - d·floor(v/d)`` — skip the generic loops:
    # ~15% of a replay.
    if not divs and len(terms) == 1:
        ((var, c),) = terms
        if c == 1:
            return lambda env: const + env[var]
        return lambda env: const + c * env[var]
    if not terms and len(divs) == 1:
        ((inner, d, c),) = divs
        return lambda env: const + c * (inner(env) // d)
    if len(terms) == 1 and len(divs) == 1:
        ((var, c),) = terms
        ((inner, d, k),) = divs
        return lambda env: const + c * env[var] + k * (inner(env) // d)

    def value(env: Dict[str, int]) -> int:
        total = const
        for var, c in terms:
            total += c * env[var]
        for inner, d, c in divs:
            total += c * (inner(env) // d)
        return total

    return value


def reply_key(args) -> Value:
    """The reply counter a statement names: ``reply#slot``."""
    reply = args["reply"]
    slot_of = compile_expr(args["reply_slot"])
    return lambda cursor: f"{reply}#{slot_of(cursor)}"
