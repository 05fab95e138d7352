"""A timing-only run holds no data and fails as a data-moving run does.

The simulator times a chunk with ``move_data=False``: its operands are
declared shapes with no bytes behind them, and each CPE's SPM buffers
are plans that the engines and the executor's compute leaves check
without creating an array.  So after a timing-only chunk no SPM holds
an array and no operand holds bytes, while a data-moving run creates
every array before its first statement.  A program that breaks the SPM
discipline — a slot out of range or not an int, a DMA or RMA bigger
than its tile, a read of an in-flight tile — raises the same exception
with the same text in both modes.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.poly.astnodes import BlockOpStmt, Block, CommStmt, IntLit, KernelCall
from repro.runtime.executor import Executor, run_gemm
from repro.runtime.simulator import PerformanceSimulator
from repro.service import CompileService
from repro.sunway.arch import SW26010PRO, TOY_ARCH
from repro.sunway.mesh import Cluster
from tests.runtime.test_discipline import strip_statements

#: name -> (spec, option overrides)
VARIANTS = {
    "plain": (GemmSpec(), {}),
    "batched": (GemmSpec(batch_param="BS"), {"batch": True}),
    "epilogue": (GemmSpec(epilogue_func="sigmoid"), {}),
    "dma-only": (GemmSpec(), {"kernel_backend": "naive", "enable_rma": False}),
    "sgemm": (GemmSpec(dtype="float32"), {}),
}


def options_for(variant):
    return CompilerOptions.full().with_(**VARIANTS[variant][1])


def compile_toy(variant="plain"):
    spec, _ = VARIANTS[variant]
    return GemmCompiler(TOY_ARCH, options_for(variant)).compile(spec)


@pytest.fixture
def executors(monkeypatch):
    """Every executor whose run completes, in run order."""
    runs = []
    run = Executor.run

    def recorded(self, *args, **kwargs):
        report = run(self, *args, **kwargs)
        runs.append(self)
        return report

    monkeypatch.setattr(Executor, "run", recorded)
    return runs


@pytest.mark.parametrize("arch", [TOY_ARCH, SW26010PRO], ids=lambda a: a.name)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_timing_only_chunk_holds_no_data(arch, variant, executors):
    spec, _ = VARIANTS[variant]
    simulator = PerformanceSimulator(arch, service=CompileService())
    options = options_for(variant)
    program = simulator.program_for(options, spec)
    simulator.chunk_stats(3 * program.plan.k_step, options, spec)
    (executor,) = executors
    assert not executor.move_data
    buffers = {decl.name for decl in program.cpe_program.buffers}
    for cpe in executor.cluster.all_cpes():
        assert set(cpe.spm._plans) == buffers
        assert not cpe.spm._arrays, f"{cpe!r} touched SPM data"
    memory = executor.cluster.memory
    assert set(memory._arrays) == {spec.a_name, spec.b_name, spec.c_name}
    for name in memory._arrays:
        operand = memory[name]
        assert operand.size > 1 and not any(operand.strides)
        with pytest.raises(ValueError, match="read-only"):
            operand[...] = 1.0


def test_data_moving_run_creates_every_array_up_front(executors):
    program = compile_toy()
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((16, 24)), rng.standard_normal((24, 16))
    C, _ = run_gemm(program, A, B)
    np.testing.assert_allclose(C, A @ B)
    (executor,) = executors
    buffers = {decl.name for decl in program.cpe_program.buffers}
    for cpe in executor.cluster.all_cpes():
        assert set(cpe.spm._arrays) == buffers


# -- the same failure in both modes ------------------------------------------


def rewrite(block, edit):
    """Replace each statement ``s`` of ``block``, at any depth, by
    ``edit(s)`` (None keeps it)."""
    for i, stmt in enumerate(block.body):
        new = edit(stmt)
        if new is not None:
            block.body[i] = new
        for inner in ("body", "then", "els"):
            child = getattr(stmt, inner, None)
            if isinstance(child, Block):
                rewrite(child, edit)


def each(edit):
    """The body edit that replaces each statement ``s`` by ``edit(s)``."""
    return lambda body: rewrite(body, edit)


def comm_args(kind, on=None, **changes):
    """Change the args of every ``kind`` statement (that names ``on``)."""

    def edit(stmt):
        if not isinstance(stmt, CommStmt) or stmt.kind != kind:
            return None
        if on is not None and on not in stmt.args.values():
            return None
        args = dict(stmt.args)
        for key, value in changes.items():
            args[key] = value(args[key]) if callable(value) else value
        return CommStmt(kind, args)

    return edit


def kernel_operand(field, slot):
    def edit(stmt):
        if not isinstance(stmt, KernelCall):
            return None
        ref = getattr(stmt, field)
        return dataclasses.replace(
            stmt, **{field: dataclasses.replace(ref, indices=(IntLit(slot),))}
        )

    return edit


def block_op_slot(slot):
    def edit(stmt):
        if not isinstance(stmt, BlockOpStmt):
            return None
        dst = dataclasses.replace(stmt.dst, indices=(IntLit(slot),))
        return dataclasses.replace(stmt, dst=dst)

    return edit


def strip(kind, *replies):
    """The body edit that removes every ``kind`` statement (on one of
    ``replies``, when given)."""
    return lambda body: strip_statements(
        body,
        lambda s: isinstance(s, CommStmt) and s.kind == kind
        and (not replies or s.args["reply"] in replies),
    )


def doubled(value):
    return 2 * value


#: tamper -> (variant, edit of the program body, expected error text)
TAMPERS = {
    "kernel-slot": ("plain", each(kernel_operand("a_ref", 2)), "out of range"),
    "kernel-single-slot": ("plain", each(kernel_operand("c_ref", 1)), "single-slot"),
    # A decoded artifact's literal need not be an int; NumPy refuses it.
    "kernel-float-slot": ("plain", each(kernel_operand("b_ref", 1.0)), "only integers"),
    "block-op-slot": ("epilogue", each(block_op_slot(1)), "single-slot"),
    "dma-get-slot": (
        "plain", each(comm_args("dma_iget", "local_B_dma", slot=IntLit(2))),
        "out of range",
    ),
    "dma-get-size": (
        "plain", each(comm_args("dma_iget", "local_A_dma", size=doubled)),
        "exceeds SPM tile",
    ),
    "dma-put-size": (
        "plain", each(comm_args("dma_iput", size=doubled)), "exceeds SPM tile"
    ),
    "rma-src-slot": (
        "plain", each(comm_args("rma_row_ibcast", src_slot=IntLit(3))),
        "out of range",
    ),
    "rma-dst-slot": (
        "plain", each(comm_args("rma_col_ibcast", dst_slot=IntLit(2))),
        "out of range",
    ),
    "rma-size": (
        "plain", each(comm_args("rma_col_ibcast", size=doubled)),
        "outside source tile",
    ),
    "rma-dst-size": (
        "plain",
        each(comm_args("rma_row_ibcast", src_buffer="local_C",
                       src_slot=IntLit(0), size=64)),
        "exceeds destination tile",
    ),
    "dma-inflight-read": ("plain", strip("dma_wait_value"), "in flight"),
    "rma-inflight-read": ("plain", strip("rma_wait_value"), "in flight"),
    # Only the A/B waits go: a stripped C wait would trip the put first.
    "naive-inflight-read": (
        "dma-only", strip("dma_wait_value", "get_replyA", "get_replyB"),
        "in flight",
    ),
    "unallocated-buffer": (
        "plain", each(comm_args("dma_iget", "local_A_dma", buffer="local_X")),
        "not allocated",
    ),
}


def tampered(name):
    variant, edit, _ = TAMPERS[name]
    program = compile_toy(variant)
    edit(program.cpe_program.body)
    return program


def failure(program, move_data):
    """The error of one chunk run at ``K = 3·k_step``: operands declared
    (timing only) or allocated (data-moving), as each mode's callers do."""
    spec, plan = program.spec, program.plan
    params = {spec.m_param: plan.chunk_m, spec.n_param: plan.chunk_n,
              spec.k_param: 3 * plan.k_step}
    cluster = Cluster(program.arch)
    reserve = cluster.memory.alloc if move_data else cluster.memory.declare
    for name, dims in ((spec.a_name, spec.a_dims()), (spec.b_name, spec.b_dims()),
                       (spec.c_name, spec.c_dims())):
        reserve(name, tuple(params[d] for d in dims))
    with pytest.raises(Exception) as err:
        Executor(program, cluster, move_data=move_data).run(params)
    clocks = [cpe.clock for cpe in cluster.all_cpes()]
    return f"{type(err.value).__name__}: {err.value}", clocks


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tampered_program_fails_alike_in_both_modes(name):
    timing = failure(tampered(name), move_data=False)
    moving = failure(tampered(name), move_data=True)
    assert timing == moving
    assert TAMPERS[name][2] in timing[0]
