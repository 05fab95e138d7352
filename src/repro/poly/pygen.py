"""The CPE program printed as one Python generator function.

§7 of the paper scans the schedule tree to an AST and prints athread C
from it.  The simulator's :class:`~repro.runtime.executor.Executor` and
the verifier's :class:`~repro.verify.machine.ScheduleMachine` run the
same AST printed as Python instead: :func:`lower` emits the whole body
as the source of one generator function, in which ``for`` and ``if`` are
Python control flow, loop variables are locals, every ``AffRef`` and
``BinExpr`` is inlined arithmetic, and each leaf statement is a call to
the interpreter's leaf function with its evaluated operands.  Every CPE
runs the function as its own generator (its :class:`Cursor`), and one
*resume* runs it to the next ``yield``: :data:`STEP` after a leaf that
did work, :data:`BLOCKED` inside a wait's re-poll loop, whatever an
interpreter's :data:`YIELD` leaf returns, and :data:`DONE` at the end.
``reply_reset``, the machine's barrier arrival and control flow do not
yield.  The source is compiled once per distinct text; each run binds
its leaf functions through the new function's globals.

Program data never becomes code: the only text taken from the AST is a
plain ASCII identifier, an exact int or bool literal, or the ``repr`` of
an exact ``str`` key.  Every other value (a leaf function, an
expression to evaluate, a non-str key, a reply-name prefix) is a global
of the function.
"""

from __future__ import annotations

import builtins
import functools
import keyword
from types import CodeType, FunctionType
from typing import (
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    NamedTuple,
    FrozenSet,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ExecutionError
from repro.poly.affine import AffExpr
from repro.poly.astnodes import (
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

STEP, BLOCKED, DONE = 1, 2, 3

#: How the printed program resumes around a leaf call ``fn(cursor, ...)``:
#: run on after it; ``yield STEP`` after it; ``while fn(...): yield
#: BLOCKED`` and then ``yield STEP``; or yield what it returns.
RUN_ON, STEP_AFTER, WAIT, YIELD = "run-on", "step", "wait", "yield"


class Leaf(NamedTuple):
    """One call a leaf statement prints to: ``fn(cursor, *operands)``,
    resumed as ``resume`` says.  Operands are expressions or
    :class:`Reply` names; a ``None`` ``fn`` prints a bare ``yield STEP``."""

    fn: Optional[Callable[..., object]]
    operands: Tuple[object, ...] = ()
    resume: str = STEP_AFTER


class Reply(NamedTuple):
    """A reply-counter operand: the name ``f"{base}#{slot}"``."""

    base: object
    slot: object

    @classmethod
    def of(cls, args: Mapping[str, object]) -> "Reply":
        """The counter a communication statement names: ``reply#slot``."""
        return cls(args["reply"], args["reply_slot"])


class Cursor:
    """One CPE running a printed program: its bindings and its generator.

    ``ienv`` holds the int bindings of ``env``, all an ``AffRef`` may
    read.  The program mirrors each loop variable into both, so a
    suspended CPE's position is ``gen.gi_frame.f_lasti`` plus ``ienv``.
    """

    __slots__ = ("env", "ienv", "gen")

    def __init__(self, env: Dict[str, object]) -> None:
        self.env = env
        self.ienv = {k: v for k, v in env.items() if isinstance(v, int)}
        self.gen: Optional[Generator[int, None, None]] = None

    def start(self, program: Callable[..., Generator[int, None, None]]) -> None:
        self.gen = program(self, self.env, self.ienv)


LeafBuilder = Callable[[Stmt], Sequence[Leaf]]


def lower(body: Stmt, leaf: LeafBuilder, env: Mapping[str, object]):
    """``body`` as a generator function of ``(cursor, env, ienv)``.

    ``leaf`` gives the calls each leaf statement prints to; ``env`` is the
    bindings every CPE starts with (the same names, of the same types, on
    every CPE).  The function's globals hold the leaf functions, so it is
    local to one run; its code object comes from a cache keyed on the
    source text.  A program CPython cannot compile (more than 20 nested
    blocks, or expressions nested past the parser's limits) is refused
    with an :class:`~repro.errors.ExecutionError`."""
    source, namespace = render(body, leaf, env)
    try:
        code = _code(source)
    except (SyntaxError, RecursionError) as exc:
        raise ExecutionError(f"cannot run the printed CPE program: {exc}") from None
    return FunctionType(code, namespace)


def render(
    body: Stmt, leaf: LeafBuilder, env: Mapping[str, object]
) -> Tuple[str, Dict[str, object]]:
    """The source :func:`lower` compiles, and the globals it runs in."""
    printer = _Printer(leaf, env)
    return printer.source(body), printer.globals


@functools.lru_cache(maxsize=64)
def _code(source: str) -> CodeType:
    """The generator function's code object, compiled once per text."""
    module = compile(source, "<cpe program>", "exec")
    (code,) = (c for c in module.co_consts if isinstance(c, CodeType))
    return code


def _unevaluable(value: object):
    raise TypeError(f"cannot evaluate {value!r} statically")


#: How each operator of :data:`~repro.poly.astnodes.BINARY_OPS` prints
#: over its two printed operands; both are always evaluated.
_OPS = {
    "+": "({} + {})", "-": "({} - {})", "*": "({} * {})", "/": "({} // {})",
    "%": "({} % {})", "<": "({} < {})", "<=": "({} <= {})", ">": "({} > {})",
    ">=": "({} >= {})", "==": "({} == {})", "!=": "({} != {})",
    "&&": "(bool({}) & bool({}))", "||": "(bool({}) | bool({}))",
    "min": "min({}, {})", "max": "max({}, {})",
}
#: Identifiers the printed code uses unqualified; a program variable of
#: the same name (or one starting with ``_``) is renamed.
_RESERVED = frozenset({"range", "bool", "min", "max", "STEP", "BLOCKED", "DONE"})


class _Printer:
    """Prints one program.  An expression whose names are bound for sure
    where it runs prints as inline arithmetic over locals; any other
    prints as a call of its own ``evaluate`` over the mirrored bindings,
    which returns what it returned before or raises what it raised."""

    def __init__(self, leaf: LeafBuilder, env: Mapping[str, object]) -> None:
        self.leaf = leaf
        #: starting binding -> whether it is an exact int (an ``AffRef``
        #: may read only those; a ``VarRef`` reads any)
        self.start = {name: type(value) is int for name, value in env.items()}
        self.globals: Dict[str, object] = {
            "__builtins__": builtins, "STEP": STEP, "BLOCKED": BLOCKED,
            "DONE": DONE, "_unevaluable": _unevaluable,
        }
        #: program name -> its Python identifier
        self.idents: Dict[str, str] = {}
        #: identifier -> the load of a starting binding read as a local
        self.loads: Dict[str, str] = {}
        self.lines: List[str] = []
        #: every loop variable, and those a loop of the same name nests in
        self.loop_vars: Set[str] = set()
        self.shadowed: Set[str] = set()

    def source(self, body: Stmt) -> str:
        _loop_vars(body, frozenset(), self.loop_vars, self.shadowed)
        self._stmt(body, frozenset(), 1)
        self._emit(1, "yield DONE")
        prologue = [f"    {ident} = {load}" for ident, load in self.loads.items()]
        return "\n".join(["def cpe(_cur, _env, _ienv):", *prologue, *self.lines]) + "\n"

    def _emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def _global(self, value: object, prefix: str) -> str:
        name = f"{prefix}{len(self.globals)}"
        self.globals[name] = value
        return name

    def _const(self, value: object) -> str:
        """``value`` as printed text: a literal for an exact int or bool,
        else a global holding it."""
        if type(value) in (int, bool):
            return f"({value!r})" if value < 0 else repr(value)
        return self._global(value, "_c")

    def _key(self, name: object) -> str:
        """``name`` as an ``env`` key: a literal for an exact str, else a
        global holding it."""
        return repr(name) if type(name) is str else self._global(name, "_k")

    # -- statements ----------------------------------------------------------

    def _stmt(self, stmt: Stmt, loops: FrozenSet[str], depth: int) -> None:
        """Print ``stmt`` inside the loops over ``loops``."""
        if isinstance(stmt, Block):
            for inner in stmt.body:
                self._stmt(inner, loops, depth)
        elif isinstance(stmt, ForLoop):
            self._loop(stmt, loops, depth)
        elif isinstance(stmt, IfStmt):
            self._emit(depth, f"if {self._expr(stmt.cond, loops)}:")
            self._body(stmt.then, loops, depth + 1)
            if stmt.els is not None:
                self._emit(depth, "else:")
                self._body(stmt.els, loops, depth + 1)
        elif not isinstance(stmt, CommentStmt):
            for call in self.leaf(stmt):
                self._leaf(call, loops, depth)

    def _body(self, block: Block, loops: FrozenSet[str], depth: int) -> None:
        emitted = len(self.lines)
        self._stmt(block, loops, depth)
        if len(self.lines) == emitted:
            self._emit(depth, "pass")

    def _loop(self, loop: ForLoop, loops: FrozenSet[str], depth: int) -> None:
        """Python ``range`` semantics: ``lo`` then ``hi`` evaluated once, on
        entry.  The variable is mirrored into ``env``/``ienv`` on every
        iteration and unbound from both on exit.  Only a str variable is
        read back as a local; any other is a key like any other."""
        var = loop.var
        named = type(var) is str
        ident = self._ident(var) if named else f"_n{depth}"
        key = self._key(var)
        bounds = f"{self._expr(loop.lo, loops)}, {self._expr(loop.hi, loops)}"
        self._emit(depth, f"for {ident} in range({bounds}, {self._const(loop.step)}):")
        self._emit(depth + 1, f"_env[{key}] = _ienv[{key}] = {ident}")
        if named and var not in self.shadowed:
            loops = loops | {var}
        self._stmt(loop.body, loops, depth + 1)
        self._emit(depth, f"_env.pop({key}, None)")
        self._emit(depth, f"_ienv.pop({key}, None)")

    def _leaf(self, leaf: Leaf, loops: FrozenSet[str], depth: int) -> None:
        if leaf.fn is None:
            self._emit(depth, "yield STEP")
            return
        operands = [self._operand(o, loops) for o in leaf.operands]
        if leaf.resume == WAIT:
            # Evaluated once per wait, not once per poll.
            for index, operand in enumerate(operands):
                if not operand.isidentifier():
                    self._emit(depth, f"_w{index} = {operand}")
                    operands[index] = f"_w{index}"
        call = f"{self._global(leaf.fn, '_l')}({', '.join(['_cur', *operands])})"
        if leaf.resume == RUN_ON:
            self._emit(depth, call)
        elif leaf.resume == STEP_AFTER:
            self._emit(depth, call)
            self._emit(depth, "yield STEP")
        elif leaf.resume == WAIT:
            self._emit(depth, f"while {call}:")
            self._emit(depth + 1, "yield BLOCKED")
            self._emit(depth, "yield STEP")
        else:
            self._emit(depth, f"yield {call}")

    # -- expressions ---------------------------------------------------------

    def _operand(self, operand: object, loops: FrozenSet[str]) -> str:
        if isinstance(operand, Reply):
            # ``f"{base}#{slot}"``, with the prefix formatted once, and the
            # whole name when the slot prints as an int literal (its text).
            prefix = f"{operand.base}#"
            slot = self._expr(operand.slot, loops)
            if slot.isdecimal():
                return self._global(prefix + slot, "_p")
            return f'f"{{{self._global(prefix, "_p")}}}{{{slot}}}"'
        return self._expr(operand, loops)

    def _expr(self, expr: object, loops: FrozenSet[str], operand: bool = False) -> str:
        """``expr`` as an atomic Python expression (a name, a literal, a
        call or a parenthesised form), with the semantics of its
        ``evaluate``: an ``AffRef`` sees only the int bindings,
        ``BinExpr`` evaluates both operands first.  At the top level
        (``operand`` false) a bare int is its own value and anything else
        that is not an expression fails with a ``TypeError`` — when
        evaluated, never when printed."""
        if isinstance(expr, IntLit):
            return self._const(expr.value)
        if isinstance(expr, AffRef):
            return self._aff_ref(expr.aff, loops)
        if isinstance(expr, VarRef) and self._bound(expr.name, loops) is not None:
            return self._read(expr.name, loops)
        if isinstance(expr, BinExpr) and expr.op in _OPS:
            lhs = self._expr(expr.lhs, loops, operand=True)
            rhs = self._expr(expr.rhs, loops, operand=True)
            return _OPS[expr.op].format(lhs, rhs)
        if operand or isinstance(expr, Expr):
            return f"{self._global(expr, '_e')}.evaluate(_env)"
        if isinstance(expr, int):
            return self._const(expr)
        return f"_unevaluable({self._global(expr, '_e')})"

    def _aff_ref(self, aff: AffExpr, loops: FrozenSet[str]) -> str:
        if aff.is_constant():
            return self._const(aff.const)
        if _exact(aff) and all(self._bound(v, loops) for v in aff.variables()):
            return self._affine(aff, loops)
        return f"{self._global(aff, '_e')}.evaluate(_ienv)"

    def _affine(self, aff: AffExpr, loops: FrozenSet[str]) -> str:
        """``const + Σ c·v + Σ c·(g // d)`` over exact ints."""
        terms = [(c, self._read(v, loops)) for v, c in aff.coeffs.items()]
        terms += [
            (c, f"({self._affine(t.arg, loops)} // {t.divisor})")
            for t, c in aff.divs.items()
        ]
        if aff.const or not terms:
            terms.append((aff.const, None))
        if len(terms) == 1 and terms[0][1] is None:
            return self._const(aff.const)
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        text = ""
        for c, atom in terms:
            term = str(abs(c)) if atom is None else (
                atom if abs(c) == 1 else f"{abs(c)} * {atom}")
            if not text:
                text = f"-{term}" if c < 0 else term
            else:
                text += f" {'-' if c < 0 else '+'} {term}"
        return f"({text})"

    def _bound(self, name: object, loops: FrozenSet[str]) -> Optional[bool]:
        """Whether ``name`` is bound for sure inside the loops over
        ``loops``, to an exact int (True) or to anything (False); None
        when it is not, or is not a str.  A loop unbinds its variable on
        exit, so a loop variable is bound for sure only inside its own
        loops, and nowhere when a loop of the same name nests in one; a
        starting binding no loop shares is bound everywhere."""
        if type(name) is not str:
            return None
        if name in loops:
            return True
        if name in self.loop_vars:
            return None
        return self.start.get(name)

    def _read(self, name: str, loops: FrozenSet[str]) -> str:
        """A bound name as a local: a starting binding is loaded once, at
        the top of the function."""
        ident = self._ident(name)
        if name not in loops and ident not in self.loads:
            self.loads[ident] = f"{'_ienv' if self.start[name] else '_env'}[{self._key(name)}]"
        return ident

    def _ident(self, name: str) -> str:
        """The local for ``name``: itself when it is a plain ASCII
        identifier no printed name can clash with, else ``_vN``."""
        ident = self.idents.get(name)
        if ident is None:
            plain = (
                name.isascii() and name.isidentifier()
                and not keyword.iskeyword(name) and not name.startswith("_")
                and name not in _RESERVED
            )
            ident = self.idents[name] = name if plain else f"_v{len(self.idents)}"
        return ident


def _exact(aff: AffExpr) -> bool:
    """Whether every number in ``aff`` is an exact int, so that it prints
    as int arithmetic (a decoded coefficient may be anything)."""
    return (
        type(aff.const) is int
        and all(type(c) is int for c in aff.coeffs.values())
        and all(
            type(c) is int and type(t.divisor) is int and _exact(t.arg)
            for t, c in aff.divs.items()
        )
    )


def _loop_vars(stmt: Stmt, enclosing: FrozenSet[str], found: Set[str],
               shadowed: Set[str]) -> None:
    """Collect every str loop variable of ``stmt`` in ``found``, and in
    ``shadowed`` those with a loop nested in a loop of the same name."""
    if isinstance(stmt, Block):
        for inner in stmt.body:
            _loop_vars(inner, enclosing, found, shadowed)
    elif isinstance(stmt, ForLoop):
        var = stmt.var
        if type(var) is str:
            found.add(var)
            if var in enclosing:
                shadowed.add(var)
            enclosing = enclosing | {var}
        _loop_vars(stmt.body, enclosing, found, shadowed)
    elif isinstance(stmt, IfStmt):
        _loop_vars(stmt.then, enclosing, found, shadowed)
        if stmt.els is not None:
            _loop_vars(stmt.els, enclosing, found, shadowed)
