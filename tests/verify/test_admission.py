"""Each of the four safety checks rejects a deliberately broken
schedule at admission time with a structured diagnostic.

The breakage is injected through the pass-replacement hook: a tampering
subclass of a real pass runs the genuine lowering and then corrupts one
specific invariant — an oversized buffer plan (SPM §6.3), a shifted DMA
start coordinate (bounds §4, Eq. 1), a dropped reply-counter wait
(double-buffer hazard §6), and a dropped ``synch()`` (RMA discipline
§5).  Admission must refuse each one with ``KernelAdmissionError``
carrying the failing :class:`VerificationReport` and a witness naming
the offending buffer / tile / counter.
"""

import dataclasses

import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.core.passes import AstGenerationPass, DmaDerivationPass
from repro.errors import KernelAdmissionError
from repro.poly.astnodes import Block, BufferDecl, CommStmt, ForLoop, IfStmt
from repro.sunway.arch import TOY_ARCH
from repro.verify import FAILED


def compile_tampered(replacements, options=None):
    compiler = GemmCompiler(
        TOY_ARCH, options or CompilerOptions.full(), replacements=replacements
    )
    return compiler.compile(GemmSpec())


def rejection(replacements, options=None):
    with pytest.raises(KernelAdmissionError) as err:
        compile_tampered(replacements, options)
    report = err.value.report
    assert report is not None and not report.ok
    return err.value, report


def strip_first(block, kind):
    """Remove the first CommStmt of ``kind`` anywhere in the AST."""

    def walk(node):
        if isinstance(node, Block):
            for i, inner in enumerate(node.body):
                if isinstance(inner, CommStmt) and inner.kind == kind:
                    del node.body[i]
                    return True
                if walk(inner):
                    return True
            return False
        if isinstance(node, ForLoop):
            return walk(node.body)
        if isinstance(node, IfStmt):
            if walk(node.then):
                return True
            return node.els is not None and walk(node.els)
        return False

    assert walk(block), f"no {kind!r} statement to strip"


# -- check 1: SPM budget (§6.3) ---------------------------------------------


class OversizedAstPass(AstGenerationPass):
    """Declares one buffer that alone exceeds the scratch pad."""

    def run(self, ctx):
        super().run(ctx)
        ctx.cpe_program.buffers.append(
            BufferDecl("runaway_scratch", (4096, 4096), "double")
        )


def test_spm_budget_rejects_oversized_buffer_plan():
    err, report = rejection({"ast-generation": OversizedAstPass()})
    check = report.check("spm-budget")
    assert check.status == FAILED
    assert "runaway_scratch" in check.witness["buffers"]
    assert check.witness["spm_bytes"] > check.witness["usable_bytes"]
    assert "spm-budget" in str(err)
    assert "runaway_scratch" in str(err)


# -- check 2: DMA bounds (§4, Eq. 1) ----------------------------------------


class ShiftedDmaPass(DmaDerivationPass):
    """Shifts getA's row start by one chunk — off the end of A for the
    ragged last row chunk."""

    def run(self, ctx):
        super().run(ctx)
        spec = ctx.dma_specs["getA"]
        ctx.dma_specs["getA"] = dataclasses.replace(
            spec, row_expr=spec.row_expr + ctx.plan.chunk_m
        )


def test_dma_bounds_rejects_shifted_start_coordinate():
    err, report = rejection({"dma-derivation": ShiftedDmaPass()})
    check = report.check("dma-bounds")
    assert check.status == FAILED
    witness = check.witness
    assert witness["transfer"] == "getA"
    assert witness["array"] == "A"
    assert witness["axis"] == "row"
    assert witness["overflow"] > 0
    # The witness pins down a concrete out-of-bounds edge tile.
    assert witness["tile_index"], "expected a concrete tile assignment"
    assert "dma-bounds" in str(err) and "getA" in str(err)


# -- check 3: double-buffer hazards (§6) ------------------------------------


class DroppedWaitAstPass(AstGenerationPass):
    """Removes the first ``dma_wait_value`` — a buffer is then read
    while its transfer is still in flight."""

    def run(self, ctx):
        super().run(ctx)
        strip_first(ctx.cpe_program.body, "dma_wait_value")


def test_hazard_check_rejects_missing_dma_wait():
    err, report = rejection({"ast-generation": DroppedWaitAstPass()})
    check = report.check("double-buffer-hazards")
    assert check.status == FAILED
    witness = check.witness
    assert witness["violation"] in (
        "read-while-in-flight",
        "unbalanced-reply-counter",
        "in-flight-at-exit",
    )
    # The witness names the CPE and the buffer or counter involved.
    assert "cpe" in witness
    assert "buffer" in witness or "counter" in witness
    assert "double-buffer-hazards" in str(err)


# -- check 4: RMA discipline (§5) -------------------------------------------


class DroppedSynchAstPass(AstGenerationPass):
    """Removes the first ``synch()`` — a broadcast then launches on an
    unarmed mesh, violating the §5 re-arm discipline."""

    def run(self, ctx):
        super().run(ctx)
        strip_first(ctx.cpe_program.body, "synch")


def test_rma_discipline_rejects_missing_synch():
    err, report = rejection({"ast-generation": DroppedSynchAstPass()})
    check = report.check("rma-discipline")
    assert check.status == FAILED
    witness = check.witness
    assert witness["violation"] == "rma-without-synch"
    assert "cpe" in witness and "src" in witness
    # The rejection names a failed check with its witness either way
    # (dropping the synch also perturbs the pipelined DMA ledger, so the
    # hazards check may fire first in the message).
    assert "rejected at admission" in str(err)


class DroppedRmaWaitAstPass(AstGenerationPass):
    """Removes the first ``rma_wait_value`` — the receive-side reply
    ledger is then unbalanced at the end of the schedule."""

    def run(self, ctx):
        super().run(ctx)
        strip_first(ctx.cpe_program.body, "rma_wait_value")


def test_rma_discipline_rejects_unbalanced_reply_counter():
    _, report = rejection({"ast-generation": DroppedRmaWaitAstPass()})
    check = report.check("rma-discipline")
    assert check.status == FAILED
    witness = check.witness
    assert witness["violation"] in (
        "unbalanced-reply-counter",
        "in-flight-at-exit",
    )
    assert "counter" in witness or "buffer" in witness
