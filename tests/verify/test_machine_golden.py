"""Golden ``MachineResult``s: the schedule machine replays exactly as pinned.

Every result the :class:`~repro.verify.machine.ScheduleMachine` returns
for a fixed corpus is committed under ``tests/golden/machine/`` — the
completion flag, the deadlock string, every hazard and discipline
witness in order, and the stats (``steps`` included) — and must match
exactly.  The corpus:

* ``compiled.json`` — every replay one compile makes, per arch (toy,
  SW26010Pro) × variant × schedule mode: the verify pass's replay, the
  only one, ``optimize`` included (its rewrites are proven there);
* ``tampered.json`` — the replays of the tampered pipelines of
  ``tests/verify/test_admission.py`` (dropped waits and ``synch()``, an
  oversized buffer plan, a shifted DMA start);
* ``random.json`` — fixed-seed random small programs over the
  ``tests/verify/test_machine.py`` builders: nested loops and if/else,
  blocked waits, deadlocks, broadcasts without ``synch()``, and
  expressions that fail to evaluate.

After an intentional change to the machine's semantics, review the diff
and regenerate with::

    PYTHONPATH=src python -c \\
      "from tests.verify.test_machine_golden import regenerate; regenerate()"
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.core.options import SchedulePolicy
from repro.errors import KernelAdmissionError
from repro.poly.affine import aff_var
from repro.poly.astnodes import (
    AffRef,
    ArrayRef,
    AssignStmt,
    BinExpr,
    Block,
    CommentStmt,
    CommStmt,
    ForLoop,
    IfStmt,
    IntLit,
    KernelCall,
    NaiveComputeStmt,
    VarRef,
)
from repro.sunway.arch import SW26010PRO, TOY_ARCH
from repro.verify.machine import MAX_STEPS, ScheduleMachine
from tests.verify import test_admission as admission
from tests.verify.test_machine import (
    dma_get,
    dma_wait,
    program,
    read,
    rma_wait,
    row_bcast,
)

GOLDEN = Path(__file__).parent.parent / "golden" / "machine"

ARCHS = {"toy": TOY_ARCH, "sw26010pro": SW26010PRO}
#: variant name -> (spec, option overrides), the compile-grid variants.
VARIANTS = {
    "plain": (GemmSpec(), {}),
    "batched": (GemmSpec(batch_param="BS"), {"batch": True}),
    "prologue": (GemmSpec(prologue_func="quant"), {}),
    "epilogue": (GemmSpec(epilogue_func="sigmoid"), {}),
    "no-rma": (GemmSpec(), {"enable_rma": False}),
    "transposed": (GemmSpec(trans_a=True), {}),
}
SCHEDULES = ("recipe", "optimize", "off")
#: tamper name -> (replaced pass, tampering subclass).
TAMPERED = {
    "dropped-dma-wait": ("ast-generation", admission.DroppedWaitAstPass),
    "dropped-synch": ("ast-generation", admission.DroppedSynchAstPass),
    "dropped-rma-wait": ("ast-generation", admission.DroppedRmaWaitAstPass),
    "oversized-buffer": ("ast-generation", admission.OversizedAstPass),
    "shifted-dma": ("dma-derivation", admission.ShiftedDmaPass),
}
RANDOM_SEEDS = range(100)

COMPILED_IDS = [
    f"{arch}/{variant}/{mode}"
    for arch in ARCHS
    for variant in VARIANTS
    for mode in SCHEDULES
]


def encode(outcome):
    """A machine result (or the exception a run raised) as plain JSON,
    plus a digest of its ``repr`` so tuple/list and key order count."""
    if isinstance(outcome, Exception):
        return {"error": f"{type(outcome).__name__}: {outcome}"}
    plain = json.loads(json.dumps(dataclasses.asdict(outcome)))
    plain["repr_sha256"] = hashlib.sha256(repr(outcome).encode()).hexdigest()
    return plain


def _replays(compile_fn):
    """Every machine result ``compile_fn`` produced, in call order."""
    results = []
    run = ScheduleMachine.run

    def recording_run(machine):
        result = run(machine)
        results.append(encode(result))
        return result

    with mock.patch.object(ScheduleMachine, "run", recording_run):
        try:
            compile_fn()
        except KernelAdmissionError:
            pass  # tampered pipelines are refused after their replay
    return results


def compiled_replays(case_id):
    arch_name, variant, mode = case_id.split("/")
    spec, overrides = VARIANTS[variant]
    options = CompilerOptions.full().with_(
        schedule=SchedulePolicy.parse(mode), **overrides
    )
    compiler = GemmCompiler(ARCHS[arch_name], options)
    return _replays(lambda: compiler.compile(spec))


def tampered_replays(case_id):
    slot, tamper = TAMPERED[case_id]
    return _replays(lambda: admission.compile_tampered({slot: tamper()}))


# -- random small programs ---------------------------------------------------


class RandomProgram:
    """Seeded random CPE programs over the handcrafted-test builders."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.scope = []

    def names(self):
        return self.scope + ["Rid", "Cid"]

    def slot(self):
        rng = self.rng
        pick = rng.random()
        if pick < 0.35:
            return IntLit(rng.randrange(2))
        name = rng.choice(self.names())
        if pick < 0.65:
            return AffRef(aff_var(name).mod(2))
        if pick < 0.85:
            return AffRef((aff_var(name) + rng.randrange(3)).floordiv(2).mod(2))
        return BinExpr("%", VarRef(name), IntLit(2))

    def cond(self):
        rng = self.rng
        name = rng.choice(self.names())
        pick = rng.random()
        if pick < 0.4:
            return BinExpr("==", VarRef(name), IntLit(rng.randrange(2)))
        if pick < 0.6:
            return BinExpr("<", AffRef(aff_var(name) + 1), IntLit(2))
        if pick < 0.8:
            return AffRef(aff_var(name).mod(2))
        return BinExpr(
            rng.choice(("&&", "||")),
            BinExpr(">=", VarRef(name), IntLit(1)),
            BinExpr("!=", VarRef("Cid"), IntLit(0)),
        )

    def leaf(self):
        rng = self.rng
        buffer = rng.choice(("buf", "s", "d"))
        kind = rng.choices(*zip(
            ("get", 3), ("put", 2), ("wait", 1), ("rma-wait", 1),
            ("read", 3), ("bcast", 1), ("synch", 1), ("reset", 2),
            ("comment", 1), ("kernel", 2), ("naive", 2), ("assign", 1),
            ("other", 1), ("transfer", 5), ("broadcast", 3),
        ))[0]
        if kind in ("get", "put"):
            return [dma_get(
                buffer, self.slot(), reply=rng.choice(("r", "q")),
                reply_slot=self.slot(),
                kind="dma_iget" if kind == "get" else "dma_iput",
            )]
        if kind == "wait":
            return [dma_wait(
                rng.choice(("r", "q")), self.slot(), value=rng.choice((1, 1, 2))
            )]
        if kind == "rma-wait":
            return [rma_wait(
                rng.choice(("rma_rr", "rma_rs", "bcast_x")), self.slot(),
                value=rng.choice((1, 1, 2)),
            )]
        if kind == "read":
            return [read(buffer, self.slot())]
        if kind == "bcast":
            return [row_bcast(
                slot=self.slot(),
                kind=rng.choice(("rma_row_ibcast", "rma_col_ibcast")),
            )]
        if kind == "synch":
            return [CommStmt("synch", {})]
        if kind == "reset":
            return [CommStmt(
                "reply_reset",
                {"reply": rng.choice(("r", "rma_rr")), "reply_slot": self.slot()},
            )]
        if kind == "comment":
            return [CommentStmt("note")]
        if kind == "kernel":
            return [KernelCall(
                "k",
                c_ref=ArrayRef("buf", (self.slot(),), memory="spm"),
                a_ref=ArrayRef("s", (), memory="spm"),
                b_ref=ArrayRef("B", (IntLit(0),)),
                mt=1, nt=1, kt=1, alpha=VarRef("alpha"),
            )]
        if kind == "naive":
            return [NaiveComputeStmt(
                target=ArrayRef("d", (self.slot(),), memory="spm"),
                value=BinExpr(
                    "*",
                    ArrayRef("buf", (self.slot(),), memory="spm"),
                    ArrayRef("s", (IntLit(0),), memory="spm"),
                ),
            )]
        if kind == "assign":
            return [AssignStmt(VarRef("x"), IntLit(1))]
        if kind == "other":
            return [CommStmt("dma_fence", {})]
        slot = self.slot()
        if kind == "transfer":
            return [
                dma_get(buffer, slot, reply_slot=slot),
                dma_wait("r", slot),
                read(buffer, slot),
            ]
        return [
            CommStmt("synch", {}),
            row_bcast(slot=slot),
            rma_wait("rma_rr", slot),
            rma_wait("rma_rs", slot),
        ]

    def block(self, depth, length):
        body = []
        for _ in range(length):
            pick = self.rng.random()
            if depth < 3 and pick < 0.2:
                body.append(self.loop(depth))
            elif depth < 3 and pick < 0.35:
                then = self.block(depth + 1, self.rng.randint(1, 3))
                els = (
                    self.block(depth + 1, self.rng.randint(1, 2))
                    if self.rng.random() < 0.5
                    else None
                )
                body.append(IfStmt(self.cond(), then, els))
            else:
                body.extend(self.leaf())
        return Block(body)

    def loop(self, depth):
        rng = self.rng
        var = f"i{depth}"
        lo = rng.choice((IntLit(0), AffRef(aff_var("Rid").mod(2))))
        hi = (
            IntLit(rng.randint(1, 3))
            if not self.scope or rng.random() < 0.5
            else AffRef(aff_var(rng.choice(self.scope)) + 2)
        )
        self.scope.append(var)
        body = self.block(depth + 1, rng.randint(1, 3))
        self.scope.pop()
        return ForLoop(var, lo, hi, body, step=rng.choice((1, 1, 2)))

    def build(self):
        mesh = self.rng.choice((1, 2, 2, 3))
        body = self.block(0, self.rng.randint(2, 6))
        return program(*body.body), mesh


#: Hand-written edge cases, each with the step ceiling it runs under:
#: programs whose replay raises (an AffRef over a non-int binding —
#: ``alpha`` is a float, and the name of a blocked CPE's reason is
#: never bound, even after blocking in ``synch()`` — an unbound variable
#: and a float loop bound) and a run cut off at its step ceiling.
EDGE_CASES = {
    "affref-alpha": (
        lambda: program(read("buf", AffRef(aff_var("alpha")))), MAX_STEPS
    ),
    "affref-blocked": (
        lambda: program(
            CommStmt("synch", {}),
            read("buf", AffRef(aff_var("__blocked__"))),
        ),
        MAX_STEPS,
    ),
    "varref-unbound": (
        lambda: program(dma_get("buf", VarRef("nowhere"))), MAX_STEPS
    ),
    "loop-float-bound": (
        lambda: program(
            ForLoop("i", IntLit(0), VarRef("beta"), Block([read("buf")]))
        ),
        MAX_STEPS,
    ),
    "step-ceiling": (
        lambda: program(
            ForLoop("i", IntLit(0), IntLit(50), Block([
                CommStmt("synch", {}),
                dma_get("buf", AffRef(aff_var("i").mod(2))),
            ]))
        ),
        120,
    ),
}

RANDOM_IDS = [f"seed-{seed:03d}" for seed in RANDOM_SEEDS] + sorted(EDGE_CASES)


def random_replay(case_id):
    if case_id in EDGE_CASES:
        build, max_steps = EDGE_CASES[case_id]
        cpe_program, mesh = build(), 2
    else:
        cpe_program, mesh = RandomProgram(int(case_id[5:])).build()
        max_steps = MAX_STEPS
    try:
        with mock.patch("repro.verify.machine.MAX_STEPS", max_steps):
            outcome = ScheduleMachine(cpe_program, mesh, {"K": 4}).run()
    except Exception as exc:  # the failure itself is the pinned outcome
        outcome = exc
    return [encode(outcome)]


GROUPS = {
    "compiled": (COMPILED_IDS, compiled_replays),
    "tampered": (sorted(TAMPERED), tampered_replays),
    "random": (RANDOM_IDS, random_replay),
}


def _golden(group):
    return json.loads((GOLDEN / f"{group}.json").read_text())


def regenerate() -> None:  # pragma: no cover - maintenance helper
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for group, (ids, replay) in GROUPS.items():
        # One case per line, so a diff names the cases that moved.
        lines = [
            f"{json.dumps(case_id)}: {json.dumps(replay(case_id), sort_keys=True)}"
            for case_id in ids
        ]
        (GOLDEN / f"{group}.json").write_text(
            "{\n" + ",\n".join(lines) + "\n}\n"
        )


@pytest.mark.parametrize(
    "group,case_id",
    [(group, case_id) for group, (ids, _) in GROUPS.items() for case_id in ids],
)
def test_machine_result_matches_golden(group, case_id):
    expected = _golden(group)[case_id]
    assert GROUPS[group][1](case_id) == expected


def test_random_corpus_covers_every_outcome():
    """The random programs exercise clean runs, hazards, discipline
    violations, deadlocks and evaluation failures alike."""
    outcomes = [entry[0] for entry in _golden("random").values()]
    assert any("error" in o for o in outcomes)
    runs = [o for o in outcomes if "error" not in o]
    assert any(o["completed"] and not o["hazards"] and not o["discipline"]
               for o in runs)
    assert any(o["hazards"] for o in runs)
    assert any(o["discipline"] for o in runs)
    assert any(o["deadlock"] and "synch" in o["deadlock"] for o in runs)
    assert any(o["deadlock"] and "wait_value" in o["deadlock"] for o in runs)
    assert any(
        w["violation"] == "rma-without-synch"
        for o in runs
        for w in o["discipline"]
    )
