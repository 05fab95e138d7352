"""The simulator as a verifier: broken schedules must fail loudly.

These tests mutate correct programs into incorrect ones (dropping waits,
oversizing buffers, desynchronising the mesh) and assert that the
simulator's discipline checks catch each class of bug — the property that
makes the functional tests meaningful evidence for the latency-hiding
pass's correctness.
"""

import copy

import numpy as np
import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.errors import (
    ExecutionError,
    SPMOverflowError,
    SynchronizationError,
)
from repro.poly.astnodes import (
    Block,
    BufferDecl,
    CommStmt,
    ForLoop,
    IfStmt,
    KernelCall,
    Stmt,
)
from repro.runtime.executor import Executor, run_gemm
from repro.sunway.arch import TOY_ARCH
from repro.sunway.mesh import Cluster


def fresh_program(options=None):
    return GemmCompiler(
        TOY_ARCH, options or CompilerOptions.full()
    ).compile(GemmSpec())


def strip_statements(stmt: Stmt, predicate) -> None:
    """Remove matching statements in place throughout the AST."""
    if isinstance(stmt, Block):
        stmt.body = [s for s in stmt.body if not predicate(s)]
        for s in stmt.body:
            strip_statements(s, predicate)
    elif isinstance(stmt, ForLoop):
        strip_statements(stmt.body, predicate)
    elif isinstance(stmt, IfStmt):
        strip_statements(stmt.then, predicate)
        if stmt.els is not None:
            strip_statements(stmt.els, predicate)


def run(program, M=16, N=16, K=16):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((M, K))
    B = rng.standard_normal((K, N))
    return run_gemm(program, A, B, np.zeros((M, N)), beta=0.0)


def test_missing_dma_wait_detected():
    program = fresh_program(CompilerOptions.with_rma())
    strip_statements(
        program.cpe_program.body,
        lambda s: isinstance(s, CommStmt)
        and s.kind == "dma_wait_value"
        and s.args.get("reply") == "get_replyA",
    )
    with pytest.raises(SynchronizationError, match="in flight"):
        run(program)


def test_missing_rma_wait_detected():
    program = fresh_program(CompilerOptions.with_rma())
    strip_statements(
        program.cpe_program.body,
        lambda s: isinstance(s, CommStmt)
        and s.kind == "rma_wait_value"
        and "replyr" in str(s.args.get("reply")),
    )
    with pytest.raises(SynchronizationError):
        run(program)


def test_missing_synch_detected():
    program = fresh_program(CompilerOptions.with_rma())
    strip_statements(
        program.cpe_program.body,
        lambda s: isinstance(s, CommStmt) and s.kind == "synch",
    )
    with pytest.raises((SynchronizationError, ExecutionError)):
        run(program)


def test_desynchronised_mesh_detected():
    """If only some CPEs execute the synch(), the others launch their
    broadcasts unarmed and the engine rejects the program — the mesh can
    never silently run with mismatched synchronisation."""
    program = fresh_program(CompilerOptions.with_rma())

    class Broken(Stmt):
        pass

    # Wrap every synch in a condition only some CPEs satisfy.
    def poison(stmt):
        if isinstance(stmt, Block):
            new = []
            for s in stmt.body:
                if isinstance(s, CommStmt) and s.kind == "synch":
                    from repro.poly.astnodes import BinExpr, IntLit, VarRef

                    new.append(
                        IfStmt(
                            BinExpr("==", VarRef("Rid"), IntLit(0)),
                            Block([s]),
                        )
                    )
                else:
                    poison(s)
                    new.append(s)
            stmt.body = new
        elif isinstance(stmt, ForLoop):
            poison(stmt.body)
        elif isinstance(stmt, IfStmt):
            poison(stmt.then)

    poison(program.cpe_program.body)
    with pytest.raises((SynchronizationError, ExecutionError)):
        run(program)


def test_spm_overflow_detected_at_allocation():
    program = fresh_program()
    program.cpe_program.buffers.append(
        BufferDecl("way_too_big", (4, 512, 512))
    )
    with pytest.raises(SPMOverflowError):
        run(program)


def test_kernel_shape_contract_enforced():
    program = fresh_program()
    # Lie about the C buffer's shape: same element count, wrong geometry,
    # so the DMA succeeds but the micro kernel must refuse its operand.
    for decl in program.cpe_program.buffers:
        if decl.name == "local_C":
            program.cpe_program.buffers.remove(decl)
            break
    program.cpe_program.buffers.append(BufferDecl("local_C", (16, 4)))
    with pytest.raises(ExecutionError, match="contract"):
        run(program)


def test_deadlock_reports_blocking_reasons():
    program = fresh_program(CompilerOptions.with_rma())
    strip_statements(
        program.cpe_program.body,
        lambda s: isinstance(s, CommStmt) and s.kind == "rma_row_ibcast",
    )
    with pytest.raises(ExecutionError) as excinfo:
        run(program)
    waiting = "rma_wait_value rbcast_replyrA#0 >= 1"
    assert str(excinfo.value) == (
        "deadlock: 4 CPEs blocked with no progress — "
        f"CPE(0,0): {waiting}; CPE(0,1): {waiting}; "
        f"CPE(1,0): {waiting}; CPE(1,1): {waiting}"
    )
