"""The k-step period of a timed chunk, found on the run itself.

After the §6 peel every iteration of a chunk's k-step loop does the same
work (Fig. 10), so once the executor's state at the start of an
iteration repeats, every later iteration repeats it too.  A *watched*
run checks this on itself (DESIGN.md §2a):

* :func:`k_loop` reads off the program what the check needs: the k-step
  loop, the modulus every period is a multiple of (the divisors the k
  index is taken modulo), and the guards that read ``K``, each as
  ``b·(steps − k) + c ≥ 0`` (or ``== 0``).  A program it cannot read so
  gets ``None`` and is run directly.
* :class:`Watch` keeps the snapshots the executor takes at the k-step
  boundaries of one run and compares each with those a multiple of the
  modulus earlier: the discrete state exactly, the times, relative to
  their boundaries, to within rounding.  On a match it returns the
  :class:`Period` found, whose step count is the run's less as many
  whole periods as keep it in the window below.

*Why finishing short is exact.*  A run of ``n`` iterations does
everything a run of ``steps`` does up to boundary ``s`` if every guard
evaluated before it — the loop bound for ``k ≤ s``, the K-dependent
guards for ``k < s`` — takes the same side under ``n``.
:meth:`KLoop.window` gives the counts ``n`` that do.  Lowering ``K`` to
one of them at boundary ``s`` (the printed program re-reads it, see
:class:`~repro.poly.pygen.Boundary`) turns the rest of the run into the
rest of that shorter run, bit for bit.

*Why a period extrapolates.*  Each K-dependent guard depends on the
remaining count ``steps − k`` alone, every other expression that takes
the k index modulo something repeats with the modulus, and what remains
of the k index are DMA addresses, which cost no time.  Let boundaries
``s − p`` and ``s`` hold the same state, times relative to the boundary.
Runs of ``n`` and ``n + p`` iterations, both in the window, share that
state up to boundary ``s``; from there the longer run performs the
iterations the shorter one performs from boundary ``s − p``, with the
same remaining counts, from the same state shifted by ``T(s) − T(s −
p)``.  So it takes exactly that much longer (the executor is
deterministic and time-invariant, up to rounding), and so on for every
further period.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import fields, is_dataclass
from typing import Deque, Iterator, List, NamedTuple, Optional, Tuple

from repro.poly.affine import AffExpr
from repro.poly.astnodes import (
    AddrOf,
    AffRef,
    ArrayRef,
    BinExpr,
    Block,
    CommStmt,
    DoubleLit,
    Expr,
    ForLoop,
    IfStmt,
    IntLit,
    Stmt,
    VarRef,
    walk_stmts,
)
from repro.sunway.cpe import ReplyRecord

#: Boundaries a watched run keeps: the longest period it can find.
WINDOW = 8

#: Relative tolerance of a snapshot's times, as a fraction of the
#: boundary time: rounding moves a relative time by some ulps of the
#: absolute one, and a state that has not settled differs by far more.
TOLERANCE = 1e-12

#: The operands of a communication statement that are main-memory
#: addresses: the k index may enter them freely, they take no time.
_ADDRESSES = frozenset({"row", "col"})


class Guard(NamedTuple):
    """A guard atom that reads ``K``: ``b·(steps − k) + c ≥ 0``, or
    ``== 0`` when ``eq``."""

    b: int
    c: int
    eq: bool

    def holds(self, remaining: int) -> bool:
        value = self.b * remaining + self.c
        return value == 0 if self.eq else value >= 0


class KLoop(NamedTuple):
    """What a watched run needs to know of a program's k-step loop."""

    #: the loop variable (``ko`` with RMA, ``ktile`` without)
    var: str
    #: the shape parameter the loop's bound reads (``K``)
    bound: str
    #: every period is a multiple of it
    modulus: int
    guards: Tuple[Guard, ...]

    def window(self, s: int, steps: int) -> Tuple[int, float]:
        """``(lo, hi)``: the step counts ``lo ≤ n ≤ hi`` whose runs take
        every guard evaluated before boundary ``s`` the way a run of
        ``steps`` does.  The loop bound was checked for ``k ≤ s``, so
        ``lo > s``."""
        lo, hi = s + 1, math.inf
        for guard in self.guards:
            for k in range(s):
                remaining = steps - k
                if guard.eq and guard.holds(remaining):
                    return steps, steps  # it holds at this count alone
                edge = _edge(guard, remaining)
                if edge is not None:
                    side, r = edge
                    if side == "lo":
                        lo = max(lo, k + r)
                    else:
                        hi = min(hi, k + r)
        return lo, hi


def _edge(guard: Guard, remaining: int) -> Optional[Tuple[str, int]]:
    """The counts of remaining steps for which ``guard`` keeps the side it
    takes at ``remaining``: ``("lo", r)`` for every count from ``r`` up,
    ``("hi", r)`` for every count up to ``r``, None for every count.  An
    equality must not hold at ``remaining``."""
    b, c = guard.b, guard.c
    if guard.eq:
        if c % b:
            return None  # never zero
        root = -c // b
        return ("lo", root + 1) if root < remaining else ("hi", root - 1)
    # b·r + c ≥ 0 flips between r = t − 1 and r = t (b > 0), or between
    # r = t and r = t + 1 (b < 0).
    if b > 0:
        t = -(c // b)  # ceil(-c / b)
        return ("lo", t) if guard.holds(remaining) else ("hi", t - 1)
    t = c // -b  # floor(c / -b)
    return ("hi", t) if guard.holds(remaining) else ("lo", t + 1)


class Period(NamedTuple):
    """A k-step period found by a watched run."""

    #: the step count the run finished at
    steps: int
    #: the period, in k steps, and the boundary that repeated the one a
    #: period before it
    period: int
    boundary: int
    #: the step counts whose runs share the run's boundaries
    lo: int
    hi: float
    #: chunk seconds and micro-kernel seconds one period adds
    seconds: float
    compute: float

    def covers(self, steps: int) -> bool:
        return self.lo <= steps <= self.hi and (steps - self.steps) % self.period == 0


class CPEState(NamedTuple):
    """One CPE's part of a :class:`Snapshot`; the fields up to
    ``pending`` are compared exactly, the times within rounding."""

    #: the generator's frame offset (``gi_frame.f_lasti``)
    position: int
    #: the int bindings' names and values, the k index relative to the
    #: boundary
    names: Tuple[str, ...]
    bindings: Tuple[int, ...]
    rma_armed: bool
    #: the SPM slots in flight, with their causes
    inflight: Tuple[Tuple[Tuple[str, int], str], ...]
    #: the reply counters' names and how many completions each holds
    counters: Tuple[str, ...]
    pending: Tuple[int, ...]
    clock: float
    #: the watchdog's start, or None when not blocked in a wait
    waited_since: Optional[float]
    #: every counter's completion records, in counter order
    records: Tuple[ReplyRecord, ...]


#: The fields of a :class:`CPEState` compared exactly.
_DISCRETE = CPEState._fields.index("clock")


class Snapshot(NamedTuple):
    """The executor's state at a k-step boundary (see
    :meth:`~repro.runtime.executor.Executor._snapshot`): the boundary
    time, the micro-kernel seconds so far, the mesh's discrete state
    (compared exactly), each CPE's state and the channels' free times."""

    time: float
    compute: float
    order: Tuple
    cpes: List[CPEState]
    channels: Tuple[float, ...]


class Watch:
    """The boundaries of one watched run of ``steps`` k steps."""

    #: The fewest steps that can show a period (a modulus of 1).
    SHORTEST = 3

    def __init__(self, loop: KLoop, steps: int) -> None:
        self.loop = loop
        self.steps = steps
        self._seen: Deque[Tuple[int, Optional[Snapshot]]] = deque(maxlen=WINDOW)
        #: the period found, once a boundary repeated an earlier one
        self.found: Optional[Period] = None

    @staticmethod
    def shows(loop: KLoop, steps: int) -> bool:
        """Whether a run of ``steps`` can show a period: the first
        boundaries compared are 1 and ``1 + modulus`` (at boundary 0
        every other CPE is still before the loop), and the last one a
        run reaches is ``steps − 1``."""
        return steps >= loop.modulus + 2

    def wants(self, s: int) -> bool:
        """Whether boundary ``s`` can take part in a match: one a
        multiple of the modulus earlier exists (boundary 1 at least), or
        one a multiple later is still to come."""
        modulus = self.loop.modulus
        return s > modulus or s + modulus < self.steps

    def observe(self, s: int, snapshot: Optional[Snapshot]) -> Optional[Period]:
        """Record boundary ``s`` (a snapshot of None matches nothing);
        the period found when it repeats an earlier boundary.  Its
        ``steps`` is the step count to finish at: ``self.steps`` less as
        many whole periods as keep it in the window."""
        loop = self.loop
        if snapshot is not None:
            for earlier, before in self._seen:
                p = s - earlier
                if before is not None and p % loop.modulus == 0 and same(before, snapshot):
                    lo, hi = loop.window(s, self.steps)
                    self.found = Period(
                        steps=self.steps - (self.steps - lo) // p * p,
                        period=p, boundary=s, lo=lo, hi=hi,
                        seconds=snapshot.time - before.time,
                        compute=snapshot.compute - before.compute,
                    )
                    self._seen.clear()
                    return self.found
        self._seen.append((s, snapshot))
        return None


def same(a: Snapshot, b: Snapshot) -> bool:
    """Whether two boundaries hold the same state: the discrete parts
    equal, each time equal to within :data:`TOLERANCE` once taken
    relative to its boundary.  A completion time is clamped at its CPE's
    clock, and a channel's free time at the earliest clock, first: a
    time below them can no longer delay anything."""
    if a.order != b.order:
        return False
    ta, tb = a.time, b.time
    tol = TOLERANCE * max(ta, tb)

    def close(x: float, y: float) -> bool:
        return abs((x - ta) - (y - tb)) <= tol

    for x, y in zip(a.cpes, b.cpes):
        if x[:_DISCRETE] != y[:_DISCRETE] or not close(x.clock, y.clock):
            return False
        if (x.waited_since is None) != (y.waited_since is None) or (
            x.waited_since is not None
            and not close(x.waited_since, y.waited_since)
        ):
            return False
        for r, q in zip(x.records, y.records):
            if r.buffer != q.buffer or not close(
                max(r.time, x.clock), max(q.time, y.clock)
            ):
                return False
    floor_a = min(x.clock for x in a.cpes)
    floor_b = min(y.clock for y in b.cpes)
    return all(
        close(max(f, floor_a), max(g, floor_b))
        for f, g in zip(a.channels, b.channels)
    )


# ---------------------------------------------------------------------------
# Reading the k-step loop off the program
# ---------------------------------------------------------------------------


class _Unreadable(Exception):
    """The program is not one :func:`k_loop` can vouch for."""


def k_loop(program) -> Optional[KLoop]:
    """The k-step loop of ``program``'s CPE code, or None unless:

    * one loop runs over the k index, from 0 in steps of 1 up to exactly
      ``K / k_step``, with no loop of the same name inside it;
    * ``K`` is read nowhere else but in guards inside that loop, each an
      ``&&``/``||`` of comparisons affine in the k index and ``K``
      alone that depend on ``steps − k`` only;
    * inside the loop, every guard, loop bound and operand other than a
      DMA address that reads the k index repeats with the modulus."""
    plan = program.plan
    var = "ko" if plan.use_rma else "ktile"
    bound = program.spec.k_param
    stmts = list(walk_stmts(program.cpe_program.body))
    # One loop of that name in the whole body: none nests inside it.
    loops = [s for s in stmts if isinstance(s, ForLoop) and s.var == var]
    if len(loops) != 1:
        return None
    (loop,) = loops
    try:
        hi = _steps_affine(_aff(loop.hi), var, bound, plan.k_step)
        if (
            loop.step != 1
            or _aff(loop.lo) != AffExpr.constant(0)
            or hi != (0, 1, 0)
        ):
            return None
        inner = list(walk_stmts(loop.body))
        inside = {id(s) for s in inner}
        for stmt in stmts:
            if stmt is not loop and id(stmt) not in inside:
                for _, expr in _exprs(stmt):
                    if bound in _vars(expr):
                        return None
        exprs = [pair for stmt in inner for pair in _exprs(stmt)]
        modulus = 1
        for _, expr in exprs:
            for term in _terms(expr):
                for div in term.divs:
                    if var in div.variables():
                        modulus = modulus * div.divisor // math.gcd(modulus, div.divisor)
        guards: List[Guard] = []
        for role, expr in exprs:
            names = _vars(expr)
            if role == "guard" and bound in names:
                guards.extend(_guards(expr, var, bound, plan.k_step))
            elif bound in names:
                return None
            elif var in names and role not in _ADDRESSES:
                if any(_shift(aff, var, modulus) for aff in _terms(expr)):
                    return None
    except _Unreadable:
        return None
    return KLoop(var, bound, modulus, tuple(guards))


def _aff(expr: object) -> AffExpr:
    if isinstance(expr, AffRef) and isinstance(expr.aff, AffExpr):
        return expr.aff
    if isinstance(expr, IntLit) and type(expr.value) is int:
        return AffExpr.constant(expr.value)
    raise _Unreadable


def _terms(expr: Expr) -> Iterator[AffExpr]:
    """The affine pieces of an expression the k index may enter."""
    if isinstance(expr, BinExpr):
        if expr.op in ("/", "%") and _vars(expr.rhs):
            raise _Unreadable
        yield from _terms(expr.lhs)
        yield from _terms(expr.rhs)
    elif isinstance(expr, (AffRef, IntLit)):
        yield _aff(expr)
    elif isinstance(expr, ArrayRef):
        for index in expr.indices:
            yield from _terms(index)
    elif isinstance(expr, AddrOf):
        yield from _terms(expr.ref)
    elif isinstance(expr, VarRef):
        yield AffExpr.var(expr.name) if type(expr.name) is str else AffExpr.constant(0)


def _shift(aff: AffExpr, var: str, by: int) -> int:
    """How much ``aff`` moves when the k index moves by ``by`` (a
    multiple of every divisor the k index enters)."""
    moved = aff.coefficient(var) * by
    for div, coeff in aff.divs.items():
        arg = div.arg
        if var in arg.variables():
            if arg.divs:
                raise _Unreadable
            moved += coeff * (arg.coefficient(var) * by // div.divisor)
    return moved


def _steps_affine(aff: AffExpr, var: str, bound: str, k_step: int) -> Tuple[int, int, int]:
    """``(a, b, c)`` with ``aff = a·k + b·steps + c`` for every ``K =
    steps·k_step``; raises when ``aff`` reads anything else."""
    if not aff.variables() <= {var, bound}:
        raise _Unreadable
    a, b = aff.coefficient(var), aff.coefficient(bound) * k_step
    c = aff.const
    for div, coeff in aff.divs.items():
        arg = div.arg
        alpha = arg.coefficient(bound)
        if arg.variables() != {bound} or arg.divs or (alpha * k_step) % div.divisor:
            raise _Unreadable
        b += coeff * (alpha * k_step // div.divisor)
        c += coeff * (arg.const // div.divisor)
    if not all(type(x) is int for x in (a, b, c)):
        raise _Unreadable
    return a, b, c


_COMPARE = {">=": (1, 0, False), ">": (1, -1, False), "<=": (-1, 0, False),
            "<": (-1, -1, False), "==": (1, 0, True), "!=": (1, 0, True)}


def _guards(cond: Expr, var: str, bound: str, k_step: int) -> Iterator[Guard]:
    """The comparisons of a guard that reads ``K``, each as a
    :class:`Guard`; raises unless each depends on ``steps − k`` only."""
    if isinstance(cond, BinExpr) and cond.op in ("&&", "||"):
        yield from _guards(cond.lhs, var, bound, k_step)
        yield from _guards(cond.rhs, var, bound, k_step)
        return
    if not (isinstance(cond, BinExpr) and cond.op in _COMPARE):
        raise _Unreadable
    sign, offset, eq = _COMPARE[cond.op]
    diff = (_aff(cond.lhs) - _aff(cond.rhs)) * sign + offset
    a, b, c = _steps_affine(diff, var, bound, k_step)
    if b == 0:
        if a:
            raise _Unreadable  # a guard on k alone: it does not repeat
        return
    if a + b:
        raise _Unreadable  # not a function of steps − k
    yield Guard(b, c, eq)


def _vars(expr: object) -> frozenset:
    """The names an expression reads; raises for one it cannot tell."""
    if isinstance(expr, AffRef):
        if not isinstance(expr.aff, AffExpr):
            raise _Unreadable
        return expr.aff.variables()
    if isinstance(expr, VarRef):
        return frozenset({expr.name})
    if isinstance(expr, (IntLit, DoubleLit)):
        return frozenset()
    if isinstance(expr, BinExpr):
        return _vars(expr.lhs) | _vars(expr.rhs)
    if isinstance(expr, ArrayRef):
        return frozenset().union(*(_vars(i) for i in expr.indices))
    if isinstance(expr, AddrOf):
        return _vars(expr.ref)
    if isinstance(expr, Expr):
        raise _Unreadable
    return frozenset()  # a plain value: no name to read


def _exprs(stmt: Stmt) -> Iterator[Tuple[str, object]]:
    """``(role, expression)`` for every expression ``stmt`` itself holds
    (not those of the statements it nests): ``guard`` for a condition,
    ``bound`` for a loop bound, an operand's argument name for a
    communication statement, and ``operand`` otherwise."""
    if isinstance(stmt, IfStmt):
        yield "guard", stmt.cond
    elif isinstance(stmt, ForLoop):
        yield "bound", stmt.lo
        yield "bound", stmt.hi
    elif isinstance(stmt, CommStmt):
        for name, value in stmt.args.items():
            yield str(name), value
    elif is_dataclass(stmt) and not isinstance(stmt, Block):
        for f in fields(stmt):
            value = getattr(stmt, f.name)
            for item in value if isinstance(value, (tuple, list)) else (value,):
                yield "operand", item
