"""Communication insertion and memory latency hiding (§§4-6).

This pass turns the decomposed band skeleton into the paper's final
schedule tree by inserting extension nodes, sequences and (for the
pipelined variants) the peeling filters of Fig. 11:

* **no hiding** (Fig. 9): every communication statement is scheduled
  together with its wait (the ⊗ grouping) — ``getC``/``get_replyC``
  before the k loops, ``getA``/``getB`` per outer k iteration,
  ``synch``/broadcast/wait per inner k iteration, ``putC`` at the end;

* **two-level hiding** (Figs. 10-11): the ⊕-separable groups are split by
  loop peeling.  The first DMA/RMA issue is peeled in front of its loop,
  each iteration waits for the *current* transfer and issues the *next*
  one (guarded by ``x < bound − 1``), and double buffering gives every
  buffer and reply counter a parity selector.  DMA prefetch for iteration
  ``x+1`` then overlaps the whole inner pipeline of iteration ``x``
  (level 1), and the broadcasts of slice ``l+1`` overlap micro-kernel
  ``l`` (level 2).

The inserted :class:`ExtensionStmt` objects carry structured payloads
(:class:`~repro.core.dma.DmaSpec` / :class:`~repro.core.rma.RmaSpec`,
already rewritten for issue-ahead) that the lowering delegate turns into
``CommStmt`` AST nodes.

Reply-counter resets are always scheduled *before* the ``synch()`` that
precedes an RMA launch group, so no CPE can zero a counter that another
CPE has already bumped — the simulator's min-clock scheduler would turn
such a race into a deadlock, and the test-suite checks it stays absent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import CompilationError
from repro.core.decomposition import Decomposition
from repro.core.dma import DmaSpec
from repro.core.rma import RmaSpec
from repro.poly.affine import aff_const, aff_var
from repro.poly.imap import AffineMap
from repro.poly.iset import Constraint, le
from repro.poly.schedule_tree import (
    ExtensionNode,
    ExtensionStmt,
    FilterNode,
    ScheduleNode,
    SequenceNode,
)
from repro.poly.space import Space


def _ext(name: str, role: str, relation: Optional[AffineMap] = None, **payload) -> ExtensionStmt:
    return ExtensionStmt(name, role, relation, dict(payload))


def _dma_relation(spec: DmaSpec, domain_dims: Sequence[str]) -> AffineMap:
    """The Fig. 2e-style affine relation attached for documentation: outer
    schedule dims -> promoted footprint start."""
    domain = Space("sched", tuple(domain_dims))
    target = Space(f"read{spec.array}" if spec.direction == "get" else f"write{spec.array}", ("r", "c"))
    return AffineMap(domain, [spec.row_expr, spec.col_expr], target)


class CommunicationBuilder:
    """Builds the final schedule tree for one decomposition."""

    def __init__(
        self,
        dec: Decomposition,
        dma_specs: Dict[str, DmaSpec],
        rma_specs: Optional[Dict[str, RmaSpec]],
    ) -> None:
        self.dec = dec
        self.plan = dec.plan
        self.dma_specs = dma_specs
        self.rma_specs = rma_specs or {}
        self.hide = dec.plan.double_buffered
        self.stmt = dec.spec.stmt_name
        if self.plan.use_rma and not self.rma_specs:
            raise CompilationError("RMA plan without RMA specs")

    # -- public ------------------------------------------------------------

    def build(self) -> None:
        """Mutate the decomposition's tree in place."""
        if self.plan.use_rma:
            self._wrap_inner_rma()
        self._wrap_k_dma()
        self._wrap_chunk_c()

    # -- level 0: C tile around the whole k loop ---------------------------------

    def _wrap_chunk_c(self) -> None:
        dec = self.dec
        mesh_band = dec.bands["mesh"]
        k_top = dec.bands["kouter" if self.plan.use_rma else "ktile"]
        getC = self.dma_specs["getC"]
        putC = self.dma_specs["putC"]
        dims = ["Rid", "Cid"]
        pre: List[ExtensionStmt] = [
            _ext("getC", "dma_issue", _dma_relation(getC, dims), spec=getC),
            _ext("get_replyC", "dma_wait", None, reply=getC.reply,
                 reply_slot_expr=getC.reply_slot_expr),
        ]
        scale = [
            _ext("scaleC", "scale_c", None, buffer="local_C",
                 shape=(self.plan.mt, self.plan.nt)),
        ]
        post_groups: List[List[ExtensionStmt]] = []
        if dec.spec.epilogue_func:
            post_groups.append([
                _ext("epilogueC", "epilogue", None, buffer="local_C",
                     slot_expr=aff_const(0),
                     shape=(self.plan.mt, self.plan.nt),
                     func=dec.spec.epilogue_func),
            ])
        post_groups.append([
            _ext("putC", "dma_issue", _dma_relation(putC, dims), spec=putC),
            _ext("put_replyC", "dma_wait", None, reply=putC.reply,
                 reply_slot_expr=putC.reply_slot_expr),
        ])
        # Wrap whatever now tops the k loop nest (after the DMA pass ran,
        # that is its extension node rather than the bare band).
        del k_top
        subtree = mesh_band.child
        all_stmts = pre + scale + [s for g in post_groups for s in g]
        filters = [
            FilterNode([s.name for s in pre]),
            FilterNode([s.name for s in scale]),
            FilterNode([self.stmt], [subtree]),
        ]
        for group in post_groups:
            filters.append(FilterNode([s.name for s in group]))
        ext = ExtensionNode(all_stmts, [SequenceNode(filters)])
        mesh_band.set_child(ext)

    # -- level 1: A/B DMA around the (outer) k loop --------------------------------

    def _wrap_k_dma(self) -> None:
        dec = self.dec
        band = dec.bands["kouter" if self.plan.use_rma else "ktile"]
        iter_var = band.members[0].var
        extent_hi = band.members[0].extent[1]
        getA, getB = self.dma_specs["getA"], self.dma_specs["getB"]
        inner_subtree = band.child

        prologue_stmt: List[ExtensionStmt] = []
        if dec.spec.prologue_func:
            slot = getA.slot_expr
            prologue_stmt.append(
                _ext("prologueA", "prologue", None, buffer=getA.buffer,
                     slot_expr=slot, shape=(getA.rows, getA.cols),
                     func=dec.spec.prologue_func)
            )

        if not self.hide:
            # Fig. 9: issue ⊗ wait per iteration, single buffer slot.
            # Both input movements are issued before either is waited on:
            # the A and B transfers take place simultaneously (§6.1).
            groups: List[List[ExtensionStmt]] = [[
                _ext("getA", "dma_issue", _dma_relation(getA, [iter_var]), spec=getA),
                _ext("getB", "dma_issue", _dma_relation(getB, [iter_var]), spec=getB),
                _ext("get_replyA", "dma_wait", None, reply=getA.reply,
                     reply_slot_expr=getA.reply_slot_expr),
                _ext("get_replyB", "dma_wait", None, reply=getB.reply,
                     reply_slot_expr=getB.reply_slot_expr),
            ]]
            if prologue_stmt:
                groups.append(prologue_stmt)
            filters = [FilterNode([s.name for s in g]) for g in groups]
            filters.append(FilterNode([self.stmt], [inner_subtree]))
            ext = ExtensionNode(
                [s for g in groups for s in g], [SequenceNode(filters)]
            )
            band.set_child(ext)
            return

        # Fig. 11: peel the first issue in front of the loop; inside the
        # loop wait for the current slot, then issue the next iteration's
        # prefetch guarded by  iter <= bound - 2.
        first = {iter_var: aff_const(0)}
        ahead = {iter_var: aff_var(iter_var) + 1}
        getA_first, getB_first = getA.substituted(first), getB.substituted(first)
        getA_next, getB_next = getA.substituted(ahead), getB.substituted(ahead)
        guard: Constraint = le(aff_var(iter_var), extent_hi - 2)

        issue_first = [
            _ext("getA_0", "dma_issue", _dma_relation(getA_first, []), spec=getA_first),
            _ext("getB_0", "dma_issue", _dma_relation(getB_first, []), spec=getB_first),
        ]
        wait_cur = [
            _ext("get_replyA", "dma_wait", None, reply=getA.reply,
                 reply_slot_expr=getA.reply_slot_expr),
            _ext("get_replyB", "dma_wait", None, reply=getB.reply,
                 reply_slot_expr=getB.reply_slot_expr),
        ]
        issue_next = [
            _ext("getA_x1", "dma_issue", _dma_relation(getA_next, [iter_var]),
                 spec=getA_next),
            _ext("getB_x1", "dma_issue", _dma_relation(getB_next, [iter_var]),
                 spec=getB_next),
        ]
        loop_filters: List[FilterNode] = [FilterNode([s.name for s in wait_cur])]
        loop_filters.append(
            FilterNode([s.name for s in issue_next], constraints=[guard],
                       label="outer k dimension")
        )
        if prologue_stmt:
            # The quantisation of the freshly waited A slice runs after the
            # next prefetch is in flight — §8.4 notes the prologue makes the
            # pipelined stages heavier, but it need not delay the issue.
            loop_filters.append(FilterNode([s.name for s in prologue_stmt]))
        loop_filters.append(FilterNode([self.stmt], [inner_subtree]))
        loop_ext = ExtensionNode(
            wait_cur + prologue_stmt + issue_next, [SequenceNode(loop_filters)]
        )
        band.set_child(loop_ext)
        top_filters = [
            FilterNode([s.name for s in issue_first]),
            FilterNode([self.stmt], [band]),
        ]
        top_ext = ExtensionNode(issue_first, [SequenceNode(top_filters)])
        # Splice: the parent of `band` must now point at top_ext.
        self._replace_in_parent(band, top_ext)

    # -- level 2: RMA around the inner k loop ------------------------------------

    def _wrap_inner_rma(self) -> None:
        dec = self.dec
        band = dec.bands["kmid"]
        iter_var = band.members[0].var  # "km"
        mesh = self.plan.mesh
        rbA = self.rma_specs["rbcastA"]
        cbB = self.rma_specs["cbcastB"]
        point_subtree = band.child

        if not self.hide:
            group = [
                _ext("rma_reset", "rma_reset", None, specs=[rbA, cbB]),
                _ext("synch", "synch", None),
                _ext("rbcastA", "rma_issue", None, spec=rbA,
                     target_expr=aff_var(iter_var)),
                _ext("cbcastB", "rma_issue", None, spec=cbB,
                     target_expr=aff_var(iter_var)),
                _ext("rbcast_replyA", "rma_wait", None, spec=rbA,
                     target_expr=aff_var(iter_var)),
                _ext("cbcast_replyB", "rma_wait", None, spec=cbB,
                     target_expr=aff_var(iter_var)),
            ]
            filters = [
                FilterNode([s.name for s in group]),
                FilterNode([self.stmt], [point_subtree]),
            ]
            band.set_child(ExtensionNode(group, [SequenceNode(filters)]))
            return

        first = {iter_var: aff_const(0)}
        ahead = {iter_var: aff_var(iter_var) + 1}
        rbA_first, cbB_first = rbA.substituted(first), cbB.substituted(first)
        rbA_next, cbB_next = rbA.substituted(ahead), cbB.substituted(ahead)
        guard = le(aff_var(iter_var), aff_const(mesh - 2))

        issue_first = [
            _ext("rma_reset_0", "rma_reset", None, specs=[rbA_first, cbB_first]),
            _ext("synch_0", "synch", None),
            _ext("rbcastA_0", "rma_issue", None, spec=rbA_first,
                 target_expr=aff_const(0)),
            _ext("cbcastB_0", "rma_issue", None, spec=cbB_first,
                 target_expr=aff_const(0)),
        ]
        wait_cur = [
            _ext("rbcast_replyA", "rma_wait", None, spec=rbA,
                 target_expr=aff_var(iter_var)),
            _ext("cbcast_replyB", "rma_wait", None, spec=cbB,
                 target_expr=aff_var(iter_var)),
        ]
        issue_next = [
            _ext("rma_reset_l1", "rma_reset", None, specs=[rbA_next, cbB_next]),
            _ext("synch_l", "synch", None),
            _ext("rbcastA_l1", "rma_issue", None, spec=rbA_next,
                 target_expr=aff_var(iter_var) + 1),
            _ext("cbcastB_l1", "rma_issue", None, spec=cbB_next,
                 target_expr=aff_var(iter_var) + 1),
        ]
        loop_filters = [
            FilterNode([s.name for s in wait_cur]),
            FilterNode([s.name for s in issue_next], constraints=[guard],
                       label="inner k dimension"),
            FilterNode([self.stmt], [point_subtree]),
        ]
        loop_ext = ExtensionNode(wait_cur + issue_next, [SequenceNode(loop_filters)])
        band.set_child(loop_ext)
        top_filters = [
            FilterNode([s.name for s in issue_first]),
            FilterNode([self.stmt], [band]),
        ]
        top_ext = ExtensionNode(issue_first, [SequenceNode(top_filters)])
        self._replace_in_parent(band, top_ext)

    # -- tree surgery helper ------------------------------------------------------

    def _replace_in_parent(self, node: ScheduleNode, new: ScheduleNode) -> None:
        for candidate in self.dec.root.walk():
            if candidate is new:
                continue
            for i, child in enumerate(candidate.children):
                if child is node:
                    candidate.children[i] = new
                    return
        raise CompilationError("could not locate the node to replace in the tree")


def insert_communication(
    dec: Decomposition,
    dma_specs: Dict[str, DmaSpec],
    rma_specs: Optional[Dict[str, RmaSpec]] = None,
) -> None:
    """Run the pass (mutates ``dec.root``)."""
    CommunicationBuilder(dec, dma_specs, rma_specs).build()
