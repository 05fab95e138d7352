"""Lowering delegate: extension statements and marks → AST nodes.

:class:`repro.poly.astgen.AstGenerator` is generic; everything specific to
the GEMM pipeline — how a ``dma_issue`` payload becomes the athread
``reply = 0; dma_iget(...)`` pair, how the micro-kernel mark becomes a
:class:`~repro.poly.astnodes.KernelCall`, what the ``--no-use-asm`` loop
body looks like — lives here.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import CodegenError
from repro.core.decomposition import Decomposition
from repro.core.dma import DmaSpec
from repro.core.rma import RmaSpec
from repro.codegen.backend import resolve_kernel
from repro.poly.affine import AffExpr
from repro.poly.astgen import ScanContext
from repro.poly.astnodes import (
    AffRef,
    ArrayRef,
    BinExpr,
    Block,
    BlockOpStmt,
    CommStmt,
    IfStmt,
    IntLit,
    KernelCall,
    NaiveComputeStmt,
    Stmt,
    VarRef,
)
from repro.poly.schedule_tree import ExtensionStmt, MarkNode

MICRO_KERNEL_MARK = "micro_kernel"


class GemmLowering:
    """The delegate for one compiled GEMM program."""

    def __init__(self, dec: Decomposition) -> None:
        self.dec = dec
        self.spec = dec.spec
        self.plan = dec.plan
        self.options = dec.options
        self.kernel = resolve_kernel(
            _arch_of(dec), dec.options, dec.plan.kernel_shape
        )

    # ------------------------------------------------------------------
    # Extension statements
    # ------------------------------------------------------------------

    def lower_extension(self, stmt: ExtensionStmt, ctx: ScanContext) -> List[Stmt]:
        role = stmt.role
        if role == "dma_issue":
            return self._lower_dma_issue(stmt.payload["spec"])
        if role == "dma_wait":
            return [
                CommStmt(
                    "dma_wait_value",
                    {
                        "reply": stmt.payload["reply"],
                        "reply_slot": AffRef(stmt.payload["reply_slot_expr"]),
                        "value": 1,
                    },
                )
            ]
        if role == "rma_reset":
            out: List[Stmt] = []
            for spec in stmt.payload["specs"]:
                for reply in (spec.replys, spec.replyr):
                    out.append(
                        CommStmt(
                            "reply_reset",
                            {"reply": reply, "reply_slot": AffRef(spec.reply_slot_expr)},
                        )
                    )
            return out
        if role == "synch":
            return [CommStmt("synch", {})]
        if role == "rma_issue":
            return self._lower_rma_issue(
                stmt.payload["spec"], stmt.payload["target_expr"]
            )
        if role == "rma_wait":
            return self._lower_rma_wait(
                stmt.payload["spec"], stmt.payload["target_expr"]
            )
        if role == "scale_c":
            if not self.spec.has_beta:
                return []
            shape = stmt.payload["shape"]
            return [
                BlockOpStmt(
                    "scale",
                    ArrayRef(stmt.payload["buffer"], (IntLit(0),), "spm"),
                    shape,
                    factor=VarRef("beta"),
                )
            ]
        if role in ("prologue", "epilogue"):
            return [
                BlockOpStmt(
                    "apply",
                    ArrayRef(
                        stmt.payload["buffer"],
                        (AffRef(stmt.payload["slot_expr"]),),
                        "spm",
                    ),
                    stmt.payload["shape"],
                    func=stmt.payload["func"],
                )
            ]
        raise CodegenError(f"no lowering for extension role {role!r}")

    def _lower_dma_issue(self, spec: DmaSpec) -> List[Stmt]:
        args: Dict[str, object] = {
            "array": spec.array,
            "row": AffRef(spec.row_expr),
            "col": AffRef(spec.col_expr),
            "batch": AffRef(spec.batch_expr) if spec.batch_expr is not None else None,
            "buffer": spec.buffer,
            "slot": AffRef(spec.slot_expr),
            "size": spec.size,
            "len": spec.cols,
            "rows": spec.rows,
            "ld_param": spec.ld_param,
            "reply": spec.reply,
            "reply_slot": AffRef(spec.reply_slot_expr),
        }
        kind = "dma_iget" if spec.direction == "get" else "dma_iput"
        return [
            CommStmt(
                "reply_reset",
                {"reply": spec.reply, "reply_slot": AffRef(spec.reply_slot_expr)},
            ),
            CommStmt(kind, args),
        ]

    def _lower_rma_issue(self, spec: RmaSpec, target: AffExpr) -> List[Stmt]:
        comm = CommStmt(
            "rma_row_ibcast" if spec.kind == "row" else "rma_col_ibcast",
            {
                "src_buffer": spec.src_buffer,
                "src_slot": AffRef(spec.src_slot_expr),
                "dst_buffer": spec.dst_buffer,
                "dst_slot": AffRef(spec.dst_slot_expr),
                "size": spec.size,
                "replys": spec.replys,
                "replyr": spec.replyr,
                "reply_slot": AffRef(spec.reply_slot_expr),
            },
        )
        owner_is_target = BinExpr("==", VarRef(spec.owner_var), AffRef(target))
        return [IfStmt(owner_is_target, Block([comm]))]

    def _lower_rma_wait(self, spec: RmaSpec, target: AffExpr) -> List[Stmt]:
        wait_recv = CommStmt(
            "rma_wait_value",
            {
                "reply": spec.replyr,
                "reply_slot": AffRef(spec.reply_slot_expr),
                "value": 1,
            },
        )
        wait_send = CommStmt(
            "rma_wait_value",
            {
                "reply": spec.replys,
                "reply_slot": AffRef(spec.reply_slot_expr),
                "value": 1,
            },
        )
        owner_is_target = BinExpr("==", VarRef(spec.owner_var), AffRef(target))
        return [wait_recv, IfStmt(owner_is_target, Block([wait_send]))]

    # ------------------------------------------------------------------
    # Marks (the micro kernel, §7.2)
    # ------------------------------------------------------------------

    def lower_mark(self, mark: MarkNode, ctx: ScanContext) -> Optional[List[Stmt]]:
        if mark.mark != MICRO_KERNEL_MARK:
            return None  # descend normally
        p = mark.payload
        a_ref = ArrayRef(p["a_buffer"], (AffRef(p["a_slot"]),), "spm")
        b_ref = ArrayRef(p["b_buffer"], (AffRef(p["b_slot"]),), "spm")
        c_ref = ArrayRef("local_C", (IntLit(0),), "spm")
        mt, nt, kt = self.plan.mt, self.plan.nt, self.plan.kt
        if self.options.use_asm:
            return [
                KernelCall(
                    name=self.kernel.name,
                    c_ref=c_ref,
                    a_ref=a_ref,
                    b_ref=b_ref,
                    mt=mt,
                    nt=nt,
                    kt=kt,
                    alpha=VarRef("alpha") if self.spec.has_alpha else IntLit(1),
                    trans_a=self.spec.trans_a,
                    trans_b=self.spec.trans_b,
                )
            ]
        # --no-use-asm: a plain scalar loop nest over the point band.  The
        # statement carries its own loops so the interpreter can execute
        # the whole box vectorised while the printer emits scalar C.
        target = ArrayRef(
            "local_C", (IntLit(0), VarRef("ip"), VarRef("jp")), "spm"
        )
        a_idx = ("kp", "ip") if self.spec.trans_a else ("ip", "kp")
        b_idx = ("jp", "kp") if self.spec.trans_b else ("kp", "jp")
        a_elem = ArrayRef(
            p["a_buffer"],
            (AffRef(p["a_slot"]), VarRef(a_idx[0]), VarRef(a_idx[1])),
            "spm",
        )
        b_elem = ArrayRef(
            p["b_buffer"],
            (AffRef(p["b_slot"]), VarRef(b_idx[0]), VarRef(b_idx[1])),
            "spm",
        )
        alpha: object = VarRef("alpha") if self.spec.has_alpha else IntLit(1)
        value = BinExpr("*", BinExpr("*", alpha, a_elem), b_elem)
        return [
            NaiveComputeStmt(
                target=target,
                value=value,
                loop_vars=("ip", "jp", "kp"),
                extents=(mt, nt, kt),
                trans_a=self.spec.trans_a,
                trans_b=self.spec.trans_b,
            )
        ]

    # ------------------------------------------------------------------
    # Leaf compute statements (only reached without a mark — kept for
    # generality and exercised by unit tests of the scanner)
    # ------------------------------------------------------------------

    def lower_compute(self, name: str, ctx: ScanContext) -> List[Stmt]:
        raise CodegenError(
            f"statement {name!r} reached an unmarked leaf; the pipeline "
            "always wraps the point band in a micro-kernel mark"
        )


def _arch_of(dec: Decomposition):
    # ``Decomposition.arch`` is a proper field, populated by ``decompose``
    # when called through the compiler facade; it is only ``None`` for
    # hand-built decompositions, which cannot be lowered.
    if dec.arch is None:
        raise CodegenError("decomposition is missing its architecture reference")
    return dec.arch
