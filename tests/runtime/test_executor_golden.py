"""Golden ``ExecutionReport``s: the executor runs exactly as pinned.

Every run of a fixed corpus is committed under ``tests/golden/executor/``
and must match exactly: ``float.hex`` of ``elapsed_seconds``, of the
flop counts and of every stat, a digest of the per-CPE virtual clocks
and, for data-moving runs, a digest of the output — or, for a run that
fails, the exception type and message next to the clocks it stopped at.
The corpus:

* ``chunk.json`` — timing-only chunk runs at ``K = 2·k_step`` and
  ``3·k_step`` on toy and SW26010Pro, across the variants and the
  ``recipe``/``optimize``/``off`` schedules;
* ``functional.json`` — data-moving toy runs of the same grid on a
  ragged, padded shape, unguarded and guarded;
* ``oracle.json`` — the scalar ``--no-use-asm`` test oracle;
* ``faults.json`` — seeded chaos, reply-drop, transient-fault and
  tight-watchdog runs;
* ``tampered.json`` — programs with one statement kind stripped or
  injected (deadlocks, hazards, unarmed broadcasts, unknown statements).

After an intentional change to the executor's semantics, review the diff
and regenerate with::

    PYTHONPATH=src python -c \\
      "from tests.runtime.test_executor_golden import regenerate; regenerate()"
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.core.options import SchedulePolicy
from repro.faults import FaultPolicy, RetryPolicy
from repro.poly.astnodes import (
    AssignStmt,
    BinExpr,
    Block,
    CommStmt,
    IfStmt,
    IntLit,
    VarRef,
)
from repro.runtime.executor import Executor, run_gemm
from repro.sunway.arch import SW26010PRO, TOY_ARCH
from repro.sunway.mesh import Cluster
from tests.runtime.test_discipline import strip_statements
from tests.runtime.test_run_queue import keys_are_clocks  # noqa: F401 (fixture)

GOLDEN = Path(__file__).parent.parent / "golden" / "executor"

ARCHS = {"toy": TOY_ARCH, "sw26010pro": SW26010PRO}
#: variant name -> (spec, option overrides).
VARIANTS = {
    "plain": (GemmSpec(), {}),
    "batched": (GemmSpec(batch_param="BS"), {"batch": True}),
    "prologue": (GemmSpec(prologue_func="quant"), {}),
    "epilogue": (GemmSpec(epilogue_func="sigmoid"), {}),
    "no-rma": (GemmSpec(), {"enable_rma": False}),
    "trans-a": (GemmSpec(trans_a=True), {}),
    "trans-b": (GemmSpec(trans_b=True), {}),
    "dma-only": (GemmSpec(), {"kernel_backend": "naive", "enable_rma": False}),
    "sgemm": (GemmSpec(dtype="float32"), {}),
    "parametric": (GemmSpec(), {"kernel_backend": "parametric"}),
}
SCHEDULES = ("recipe", "optimize", "off")


def schedules(variant):
    # ``optimize`` needs the asm kernel: the option set refuses it.
    if VARIANTS[variant][1].get("kernel_backend") == "naive":
        return ("recipe", "off")
    return SCHEDULES


def build(arch_name, variant, mode, fault_policy=None, retry_policy=None):
    spec, overrides = VARIANTS[variant]
    options = CompilerOptions.full().with_(
        schedule=SchedulePolicy.parse(mode),
        fault_policy=fault_policy,
        retry_policy=retry_policy,
        **overrides,
    )
    return GemmCompiler(ARCHS[arch_name], options).compile(spec)


#: Programs the runs only read are compiled once per session.
compiled = functools.lru_cache(maxsize=None)(build)


# -- observation ---------------------------------------------------------------


def _exact(value):
    return float.hex(value) if isinstance(value, float) else value


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def clocks(cluster):
    return _digest(",".join(float.hex(cpe.clock) for cpe in cluster.all_cpes()))


def observe(run, cluster):
    """Run ``run()`` and encode what it returned or raised."""
    try:
        returned = run()
    except Exception as exc:  # the failure itself is the pinned outcome
        return {"error": f"{type(exc).__name__}: {exc}", "clocks": clocks(cluster)}
    output = None
    if isinstance(returned, tuple):
        output, report = returned
    else:
        report = returned
    outcome = {
        "elapsed_seconds": float.hex(report.elapsed_seconds),
        "useful_flops": float.hex(report.useful_flops),
        "padded_flops": float.hex(report.padded_flops),
        "stats": {key: _exact(value) for key, value in report.stats.items()},
        "clocks": clocks(cluster),
    }
    if output is not None:
        outcome["output"] = _digest(
            f"{output.dtype.str}{output.shape}" + output.tobytes().hex()
        )
    return outcome


def cluster_for(program):
    return Cluster(
        program.arch,
        fault_policy=program.options.fault_policy,
        retry_policy=program.options.retry_policy,
    )


def chunk(program, mult):
    """Timing-only run of one mesh chunk at ``K = mult·k_step``."""
    spec, plan = program.spec, program.plan
    K = mult * plan.k_step
    cm, cn = plan.chunk_m, plan.chunk_n
    cluster = cluster_for(program)
    lead = (1,) if spec.is_batched else ()
    cluster.memory.alloc(spec.a_name, lead + ((K, cm) if spec.trans_a else (cm, K)))
    cluster.memory.alloc(spec.b_name, lead + ((cn, K) if spec.trans_b else (K, cn)))
    cluster.memory.alloc(spec.c_name, lead + (cm, cn))
    params = {spec.m_param: cm, spec.n_param: cn, spec.k_param: K}
    if lead:
        params[spec.batch_param] = 1
    executor = Executor(program, cluster, move_data=False)
    return observe(lambda: executor.run(params), cluster)


def functional(program, shape=(24, 40, 20), batch=2, seed=0, **kwargs):
    """A data-moving ``run_gemm`` on a ragged shape (zero-padded)."""
    spec = program.spec
    M, N, K = shape
    rng = np.random.default_rng(seed)
    lead = (batch,) if spec.is_batched else ()
    A = rng.standard_normal(lead + ((K, M) if spec.trans_a else (M, K)))
    B = rng.standard_normal(lead + ((N, K) if spec.trans_b else (K, N)))
    C = rng.standard_normal(lead + (M, N))
    cluster = cluster_for(program)
    return observe(
        lambda: run_gemm(
            program, A, B, C, alpha=1.5, beta=0.5, cluster=cluster, **kwargs
        ),
        cluster,
    )


# -- the groups ----------------------------------------------------------------

CHUNK_IDS = [
    f"{arch}/{variant}/{mode}/K{mult}"
    for arch in ARCHS
    for variant in VARIANTS
    for mode in schedules(variant)
    for mult in (2, 3)
]


def chunk_case(case_id):
    arch_name, variant, mode, mult = case_id.split("/")
    return chunk(compiled(arch_name, variant, mode), int(mult[1:]))


FUNCTIONAL_IDS = [
    f"{variant}/{mode}/{guard}"
    for variant in VARIANTS
    for mode in schedules(variant)
    for guard in ("unguarded", "guarded")
]


def functional_case(case_id):
    variant, mode, guard = case_id.split("/")
    program = compiled("toy", variant, mode)
    return functional(program, guarded=guard == "guarded")


#: oracle case -> (variant, shape)
ORACLE = {
    "aligned": ("dma-only", (16, 16, 8)),
    "ragged": ("dma-only", (12, 20, 6)),
    "batched": ("batched", (10, 16, 8)),
    "trans-a": ("trans-a", (16, 12, 8)),
}


def oracle_case(case_id):
    variant, shape = ORACLE[case_id]
    spec, overrides = VARIANTS[variant]
    options = CompilerOptions.baseline().with_(
        **{k: v for k, v in overrides.items() if k == "batch"}
    )
    program = GemmCompiler(TOY_ARCH, options).compile(spec)
    return functional(program, shape=shape, scalar_naive=True)


#: fault case -> (fault policy, retry policy, timing-only?, tampering)
FAULTS = {
    **{
        f"chaos-{seed}": (FaultPolicy.chaos(seed=seed, rate=0.05), None, False, None)
        for seed in (0, 1, 2022)
    },
    "chaos-heavy": (
        FaultPolicy.chaos(seed=7, rate=0.2), RetryPolicy(max_retries=8), False, None
    ),
    "chaos-timing": (FaultPolicy.chaos(seed=3, rate=0.1), None, True, None),
    **{
        f"reply-drop-{seed}": (
            FaultPolicy(enabled=True, seed=seed, reply_drop_rate=rate),
            None, False, None,
        )
        for seed, rate in ((3, 1.0), (11, 0.3), (5, 0.05))
    },
    "reply-drop-timing": (
        FaultPolicy(enabled=True, seed=4, reply_drop_rate=0.1), None, True, None
    ),
    "dma-fault-exhausted": (
        FaultPolicy(enabled=True, seed=3, dma_fault_rate=1.0),
        RetryPolicy(max_retries=2), False, None,
    ),
    "dma-fault-retried": (
        FaultPolicy(enabled=True, seed=3, dma_fault_rate=0.3, checksums=True),
        RetryPolicy(max_retries=10), False, None,
    ),
    "rma-fault-exhausted": (
        FaultPolicy(enabled=True, seed=3, rma_fault_rate=1.0), None, False, None
    ),
    "latency-spikes": (
        FaultPolicy(enabled=True, seed=9, latency_spike_rate=0.3), None, False, None
    ),
    # A tight budget never fires on a clean run; with row 1's broadcasts
    # gone its receivers stall while row 0 computes on.
    **{
        f"watchdog-{budget}{'-stall' if tamper else ''}": (
            FaultPolicy(watchdog_timeout_s=budget), None, False, tamper
        )
        for budget in (1e-9, 1e-7, 1e-6)
        for tamper in (None, "row0-row-bcast")
    },
}


def fault_case(case_id):
    policy, retry, timing, tamper = FAULTS[case_id]
    if tamper is None:
        program = compiled("toy", "plain", "recipe", policy, retry)
    else:
        program = build("toy", "plain", "recipe", policy, retry)
        TAMPERS[tamper](program)
    return chunk(program, 3) if timing else functional(program)


def _strip(kind):
    def tamper(program):
        strip_statements(
            program.cpe_program.body,
            lambda s: isinstance(s, CommStmt) and s.kind == kind,
        )

    return tamper


def _row0(kind):
    """Only mesh row 0 reaches each statement of ``kind``."""

    def rewrite(block):
        for i, stmt in enumerate(block.body):
            if isinstance(stmt, CommStmt) and stmt.kind == kind:
                cond = BinExpr("==", VarRef("Rid"), IntLit(0))
                block.body[i] = IfStmt(cond, Block([stmt]))
            else:
                for inner in ("body", "then", "els"):
                    child = getattr(stmt, inner, None)
                    if isinstance(child, Block):
                        rewrite(child)

    def tamper(program):
        rewrite(program.cpe_program.body)

    return tamper


def _append(stmt):
    def tamper(program):
        program.cpe_program.body.body.append(stmt)

    return tamper


def _prepend(stmt):
    def tamper(program):
        program.cpe_program.body.body.insert(0, stmt)

    return tamper


#: tamper name -> tampering of a fresh toy program, in place
TAMPERS = {
    "no-dma-wait": _strip("dma_wait_value"),
    "no-rma-wait": _strip("rma_wait_value"),
    "no-synch": _strip("synch"),
    "no-row-bcast": _strip("rma_row_ibcast"),
    "no-col-bcast": _strip("rma_col_ibcast"),
    "no-reply-reset": _strip("reply_reset"),
    "no-dma-put": _strip("dma_iput"),
    "no-dma-get": _strip("dma_iget"),
    "row0-synch": _row0("synch"),
    "row0-row-bcast": _row0("rma_row_ibcast"),
    "unknown-comm-first": _prepend(CommStmt("dma_fence", {})),
    "unknown-comm-last": _append(CommStmt("dma_fence", {})),
    "assign-last": _append(AssignStmt(VarRef("x"), IntLit(1))),
}
TAMPERED_IDS = [
    f"{name}/{mode}/{how}"
    for name in TAMPERS
    for mode in SCHEDULES
    for how in ("functional", "timing")
]


def tampered_case(case_id):
    name, mode, how = case_id.split("/")
    program = build("toy", "plain", mode)
    TAMPERS[name](program)
    return chunk(program, 3) if how == "timing" else functional(program)


GROUPS = {
    "chunk": (CHUNK_IDS, chunk_case),
    "functional": (FUNCTIONAL_IDS, functional_case),
    "oracle": (sorted(ORACLE), oracle_case),
    "faults": (sorted(FAULTS), fault_case),
    "tampered": (TAMPERED_IDS, tampered_case),
}


def _golden(group):
    return json.loads((GOLDEN / f"{group}.json").read_text())


def regenerate() -> None:  # pragma: no cover - maintenance helper
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for group, (ids, run) in GROUPS.items():
        # One case per line, so a diff names the cases that moved.
        lines = [
            f"{json.dumps(case_id)}: {json.dumps(run(case_id), sort_keys=True)}"
            for case_id in ids
        ]
        (GOLDEN / f"{group}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.mark.parametrize(
    "group,case_id",
    [(group, case_id) for group, (ids, _) in GROUPS.items() for case_id in ids],
)
def test_execution_matches_golden(group, case_id, keys_are_clocks):
    expected = _golden(group)[case_id]
    assert GROUPS[group][1](case_id) == expected


def test_corpus_covers_every_outcome():
    """The corpus exercises clean runs and every failure the executor
    reports: deadlocks, hazards, unarmed broadcasts, watchdog stalls on
    lost and on late replies, exhausted retries and unknown statements."""
    outcomes = [o for group in GROUPS for o in _golden(group).values()]
    errors = [o["error"] for o in outcomes if "error" in o]
    assert any("output" in o for o in outcomes)
    assert any("deadlock" in e for e in errors)
    assert any("in flight" in e for e in errors)
    assert any("without a preceding synch()" in e for e in errors)
    assert any("dropped in transit" in e for e in errors)
    assert any("watchdog budget" in e for e in errors)
    assert any("retry budget" in e for e in errors)
    assert any("unknown communication statement" in e for e in errors)
    assert any("cannot interpret statement" in e for e in errors)
