"""The CPE program printer: the printed text, expression semantics, no
reference cycles, one compile per program text.

Both interpreters run the program :func:`repro.poly.pygen.lower` prints,
and their golden corpora pin every result.  These tests pin what the
corpora do not: where the printed program yields; that a printed
expression evaluates exactly as its own ``evaluate`` does (value, or
exception type and message) wherever its names are or are not bound;
that program data never becomes code; that no run leaves cyclic garbage
behind, on the normal or the exception path; and that a program's code
is compiled once.
"""

import dataclasses
import functools
import gc
from types import GeneratorType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, NonAffineError
from repro.poly import pygen
from repro.poly.affine import AffExpr, FloorDiv, aff_var
from repro.poly.astnodes import (
    BINARY_OPS,
    AffRef,
    BinExpr,
    Block,
    CommStmt,
    ForLoop,
    IfStmt,
    IntLit,
    Stmt,
    VarRef,
)
from repro.poly.pygen import RUN_ON, Cursor, Leaf, Reply, lower, render
from repro.runtime.executor import run_gemm
from repro.verify.machine import ScheduleMachine
from repro.verify.verifier import replay_schedule
from tests.runtime.test_executor_golden import build, chunk, compiled
from tests.verify.test_machine import dma_get, dma_wait, program, read

# -- the printed program -------------------------------------------------------


def test_the_printed_program_yields_at_the_resume_boundaries():
    """Loops and branches are Python's; a leaf that did work is followed by
    ``yield STEP``, a wait (and the machine's barrier half of ``synch()``)
    by its re-poll loop, ``reply_reset`` and the arrival by nothing."""
    slot = AffRef(aff_var("i").mod(2))
    cpe = program(
        CommStmt("reply_reset", {"reply": "r", "reply_slot": IntLit(0)}),
        ForLoop("i", IntLit(0), AffRef(aff_var("K")), Block([
            dma_get("buf", slot, reply_slot=slot),
            dma_wait("r", slot),
            IfStmt(BinExpr("==", VarRef("Rid"), IntLit(0)),
                   Block([CommStmt("synch", {})])),
            read("buf", slot),
        ])),
    )
    machine = ScheduleMachine(cpe, 2, {"K": 4})
    source, _ = render(cpe.body, machine._leaf, machine.states[0][0].env)
    assert source == """\
def cpe(_cur, _env, _ienv):
    K = _ienv['K']
    Rid = _ienv['Rid']
    _l6(_cur, _p5)
    for i in range(0, K, 1):
        _env['i'] = _ienv['i'] = i
        _l8(_cur, (i - 2 * (i // 2)), f"{_p7}{(i - 2 * (i // 2))}")
        yield STEP
        _w0 = f"{_p9}{(i - 2 * (i // 2))}"
        while _l10(_cur, _w0):
            yield BLOCKED
        yield STEP
        if (Rid == 0):
            _l11(_cur)
            while _l12(_cur):
                yield BLOCKED
            yield STEP
        _l13(_cur, (i - 2 * (i // 2)))
        yield STEP
    _env.pop('i', None)
    _ienv.pop('i', None)
    yield DONE
"""


# -- program data never becomes code --------------------------------------------

#: What the injected code below appends to when it runs.
RAN = []
#: A variable name that, pasted into the printed text, still parses and
#: runs the append when the loop starts.
INJECTED = f"0) if 0 else (__import__('sys').modules[{__name__!r}].RAN.append(1)"


def _crafted_loop():
    """A loop over a crafted ``AffExpr`` variable whose body fails on an
    unbound name, as it would under any loop."""
    reset = CommStmt("reply_reset", {"reply": "r", "reply_slot": AffRef(aff_var("nowhere"))})
    return ForLoop(AffExpr({INJECTED: 1}), IntLit(0), IntLit(2), Block([reset]))


def test_a_crafted_loop_variable_runs_no_code_in_the_executor():
    program = build("toy", "plain", "recipe")
    program.cpe_program.body = Block([_crafted_loop()])
    assert chunk(program, 2)["error"] == (
        "NonAffineError: unbound variable 'nowhere' in nowhere"
    )
    assert RAN == []


def test_a_crafted_loop_variable_runs_no_code_in_the_replay():
    program = compiled("toy", "plain", "recipe")
    crafted = dataclasses.replace(program.cpe_program, body=Block([_crafted_loop()]))
    with pytest.raises(NonAffineError, match="unbound variable 'nowhere'"):
        replay_schedule(crafted, program.plan, program.spec)
    assert RAN == []


class Opaque:
    """A value whose every text form is a marker."""

    def __repr__(self):
        return "MARKER"

    __str__ = __repr__

    def __format__(self, spec):
        return "MARKER"


def test_only_identifiers_int_literals_and_str_keys_reach_the_text():
    """Every other value the AST holds is a global of the printed
    function, wherever it appears."""
    anything = Opaque()
    crafted = [
        VarRef(anything),
        IntLit(anything),
        BinExpr(anything, IntLit(1), IntLit(2)),
        AffRef(AffExpr({anything: 1})),
        AffRef(AffExpr({"i": anything})),
        AffRef(AffExpr(divs={FloorDiv(AffExpr({"i": anything}), 2): 1})),
        Reply(anything, IntLit(anything)),
        anything,
    ]

    def leaf(stmt):
        return [Leaf(print, tuple(crafted), RUN_ON)]

    body = Block([ForLoop(anything, IntLit(0), IntLit(1), Block([
        ForLoop("i", IntLit(0), IntLit(1), Block([Probe()]), step=anything),
    ]))])
    source, namespace = render(body, leaf, {"M": 1})
    assert "MARKER" not in source
    assert anything in namespace.values()


@pytest.mark.parametrize("name", ["i'] = 0 #", "é", "for", "_cur", "min"])
def test_a_name_that_is_not_a_plain_identifier_is_still_read(name):
    """A loop variable that cannot be its own local still reads back."""
    seen = []

    def leaf(stmt):
        return [Leaf(lambda cursor, value: seen.append(value),
                     (AffRef(aff_var(name) * 2),), RUN_ON)]

    body = Block([ForLoop(name, IntLit(0), IntLit(3), Block([Probe()]))])
    cursor = Cursor({"M": 1})
    cursor.start(lower(body, leaf, cursor.env))
    assert next(cursor.gen) == pygen.DONE
    cursor.gen.close()
    assert seen == [0, 2, 4]


def _nested(depth):
    body = Block([])
    for level in range(depth):
        body = Block([ForLoop(f"i{level}", IntLit(0), IntLit(1), body)])
    return body


def test_a_program_python_cannot_compile_is_an_execution_error():
    """CPython refuses more than 20 statically nested blocks; the
    interpreters report it as an ExecutionError, not a SyntaxError."""
    program = build("toy", "plain", "recipe")
    program.cpe_program.body = _nested(21)
    assert chunk(program, 2)["error"].startswith(
        "ExecutionError: cannot run the printed CPE program: "
        "too many statically nested blocks"
    )
    with pytest.raises(ExecutionError, match="too many statically nested blocks"):
        replay_schedule(program.cpe_program, program.plan, program.spec)
    program.cpe_program.body = _nested(20)
    assert "error" not in chunk(program, 2)


# -- expression semantics -------------------------------------------------------

#: A loop variable, an int, a float and a bool binding, and an unbound name.
NAMES = ("i", "M", "alpha", "flag", "nowhere")
ENV = {"M": 6, "alpha": 1.5, "flag": True}


def _aff(name, coeff, const, divisor, shape):
    aff = aff_var(name) * coeff + const
    if shape == "div":
        return aff.floordiv(divisor)
    if shape == "mod":
        return aff.mod(divisor)
    return aff


AFFS = st.builds(
    _aff, st.sampled_from(NAMES), st.integers(-3, 3), st.integers(-4, 4),
    st.integers(1, 4), st.sampled_from(("linear", "div", "mod")),
)
#: Coefficients a decoded artifact may hold that are not exact ints.
ODD_AFFS = st.builds(
    lambda name, coeff: AffExpr({name: coeff}),
    st.sampled_from(NAMES), st.sampled_from((0.5, float("inf"), True)),
)
LEAVES = st.one_of(
    st.integers(-3, 3).map(IntLit),
    st.sampled_from(NAMES).map(VarRef),
    AFFS.map(AffRef),
    ODD_AFFS.map(AffRef),
)
EXPRS = st.recursive(
    LEAVES,
    lambda inner: st.builds(
        BinExpr, st.sampled_from(sorted(BINARY_OPS) + ["^"]), inner, inner
    ),
    max_leaves=6,
)


class Probe(Stmt):
    """A leaf statement that hands its evaluated operand to the test."""


def _outcome(evaluate):
    try:
        value = evaluate()
    except Exception as exc:  # the failure itself is the outcome
        return "raised", type(exc), str(exc)
    return "returned", type(value), repr(value)


@settings(max_examples=300, deadline=None)
@given(expr=EXPRS)
def test_printed_expressions_evaluate_as_the_ast_does(expr):
    """Inside a loop over ``i`` and after it, where ``i`` is unbound
    again, the printed expression returns or raises exactly what its
    ``evaluate`` does over the same bindings."""
    printed = []

    def leaf(stmt):
        def probe(cursor, value):
            printed.append(("returned", type(value), repr(value)))

        return [Leaf(probe, (expr,), RUN_ON)]

    body = Block([ForLoop("i", IntLit(0), IntLit(3), Block([Probe()])), Probe()])
    cursor = Cursor(dict(ENV))
    cursor.start(lower(body, leaf, cursor.env))
    # The probes do not yield: the whole program is one resume.
    printed.append(_outcome(lambda: next(cursor.gen)))
    cursor.gen.close()

    expected = []
    for env in [dict(ENV, i=i) for i in range(3)] + [dict(ENV)]:
        expected.append(_outcome(lambda: expr.evaluate(env)))
        if expected[-1][0] == "raised":
            break
    else:
        expected.append(("returned", int, repr(pygen.DONE)))
    assert printed == expected


@pytest.mark.parametrize("operand,error", [
    (AffRef(aff_var("alpha")), "NonAffineError: unbound variable 'alpha' in alpha"),
    (AffRef(aff_var("i") + aff_var("beta")),
     "NonAffineError: unbound variable 'beta' in beta + i"),
    (VarRef("nowhere"), "ExecutionError: unbound variable 'nowhere'"),
])
def test_an_unevaluable_operand_fails_the_executor_run(operand, error):
    """On the executor side too, an expression that cannot be evaluated
    fails when its statement runs, with the error its ``evaluate``
    raises."""
    program = build("toy", "plain", "recipe")
    reset = CommStmt("reply_reset", {"reply": "r", "reply_slot": operand})
    program.cpe_program.body = Block(
        [ForLoop("i", IntLit(0), IntLit(2), Block([reset]))]
    )
    assert chunk(program, 2)["error"] == error


def test_a_float_loop_bound_fails_where_range_does():
    program = build("toy", "plain", "recipe")
    program.cpe_program.body = Block([ForLoop("i", IntLit(0), VarRef("beta"), Block([]))])
    assert chunk(program, 2)["error"] == (
        "TypeError: 'float' object cannot be interpreted as an integer"
    )


# -- no reference cycles --------------------------------------------------------


def _functional():
    program = compiled("toy", "plain", "recipe")
    rng = np.random.default_rng(0)
    run_gemm(program, rng.standard_normal((24, 20)), rng.standard_normal((20, 40)))


def _timing():
    chunk(compiled("toy", "plain", "optimize"), 3)


@functools.lru_cache(maxsize=None)
def _toy_with_body(kind):
    """A toy program whose body deadlocks (row 0 parks at a barrier
    row 1 never reaches) or raises (an unknown statement)."""
    program = build("toy", "plain", "recipe")
    if kind == "deadlock":
        rid_is_0 = BinExpr("==", VarRef("Rid"), IntLit(0))
        body = [IfStmt(rid_is_0, Block([CommStmt("synch", {})]))]
    else:
        body = [CommStmt("dma_fence", {})]
    program.cpe_program.body = Block(body)
    return program


def _deadlock():
    outcome = chunk(_toy_with_body("deadlock"), 3)
    assert outcome["error"].startswith("ExecutionError: deadlock:")


def _replay():
    program = compiled("toy", "batched", "recipe")
    assert replay_schedule(program.cpe_program, program.plan, program.spec).completed


def _raised():
    try:
        run_gemm(_toy_with_body("raise"), np.ones((8, 8)), np.ones((8, 8)))
    except ExecutionError as exc:
        assert "unknown communication statement" in str(exc)


@pytest.mark.parametrize("run", [_functional, _timing, _deadlock, _replay, _raised],
                         ids=lambda run: run.__name__.strip("_"))
def test_a_run_leaves_no_cyclic_garbage(run):
    """Each run closes its generators, and the printed function is not
    kept in its own globals, so nothing waits for the cyclic collector.
    A suspended generator in a cycle would not show in the count
    ``gc.collect()`` returns (its finalizer breaks the cycle, and it is
    freed by reference counting), so the test also looks for live ones."""
    run()  # compiles and caches what later runs share
    gc.collect()
    gc.disable()
    try:
        run()
        assert not [
            obj for obj in gc.get_objects()
            if isinstance(obj, GeneratorType) and obj.gi_code.co_name == "cpe"
        ]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_second_run_compiles_no_code():
    """The code object is cached on the source text: running the same
    program again (executor and machine) compiles nothing."""
    program = compiled("toy", "epilogue", "recipe")

    def run_both():
        chunk(program, 2)
        replay_schedule(program.cpe_program, program.plan, program.spec)

    run_both()
    before = pygen._code.cache_info()
    run_both()
    after = pygen._code.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2
