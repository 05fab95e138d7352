"""The schedule rewrites and their in-place application.

Three composable rewrites over :class:`~repro.schedule.ir.Timeline`
(modelled on zero-bubble pipeline schedulers, where the per-stage
timeline is a node list rewritten by small passes such as
``merge_consecutive_bw``); ``--schedule=optimize`` runs all of them, in
registry order:

``split-waits``
    Break a multi-statement wait group so work scheduled between the
    fragments (the fused prologue, the prefetch issue) overlaps the
    transfer still in flight.
``reorder-issues``
    Move independent issue groups ahead of the waits in each loop body
    (back-to-back RMA launches, prefetch before the current wait) and
    hoist the inner pipeline's buffer-swap prefix (reset + synch) out
    of the broadcast peel, decollectivizing the barrier away from the
    DMA drain.
``merge-transfers``
    Merge the outer peel's unguarded DMA issues into the chunk's first
    transfer group, so the C/A/B gets share one issue burst.

Every rewrite mutates the timeline only; :func:`apply_rewrite` writes
it back into the decomposition's schedule tree in place.  The rewrites
propose and the pipeline's terminal ``verify`` pass admits: the final
program is replayed on the verifier's ``ScheduleMachine`` and checked
against the SPM budget once, like every other kernel, and a refusal
fails the compile with the verifier's witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.errors import CompilationError
from repro.schedule.extract import extract_timeline, materialize
from repro.schedule.ir import ScheduleStep, Segment, Timeline


def _is_wait(step: ScheduleStep) -> bool:
    return step.kind in ("dma_wait", "rma_wait")


def _is_compute(step: ScheduleStep) -> bool:
    return step.kind == "compute"


def _issue_only(seg: Segment) -> bool:
    """True when nothing in the segment waits or computes — it can move
    ahead of waits without reordering any dependence."""
    return bool(seg.steps) and not any(
        _is_wait(s) or _is_compute(s) for s in seg.steps
    )


# ---------------------------------------------------------------------------
# The rewrites (Timeline -> changed?)
# ---------------------------------------------------------------------------


def split_waits(tl: Timeline) -> bool:
    """Split the first multi-wait group of each loop body.

    The popped wait lands at the end of the body, directly in front of
    the compute subtree: everything originally scheduled after the
    group (prologue, prefetch issue) now overlaps the second transfer
    while it is still in flight."""
    changed = False
    for name in ("kouter", "kmid"):
        lvl = tl.level(name)
        if lvl is None:
            continue
        for seg in lvl.body:
            if (
                len(seg.steps) >= 2
                and not seg.constraints
                and all(_is_wait(s) for s in seg.steps)
            ):
                last = seg.steps.pop()
                lvl.body.append(Segment([last]))
                changed = True
                break
    return changed


def reorder_issues(tl: Timeline) -> bool:
    """Issue-ahead reordering.

    1. Hoist the inner (RMA) peel's leading buffer-swap prefix — the
       reply-counter reset and the ``synch`` — to the front of the outer
       loop body.  The reset-before-synch-before-issue invariant the
       recipe documents is preserved (the pair moves as a unit and every
       broadcast issue still follows the barrier in program order), but
       the barrier no longer sits *behind* the outer DMA wait: a CPE
       whose transfer drains late no longer holds the whole mesh out of
       its broadcast phase.
    2. In each loop body, stably move every pure-issue segment ahead of
       the waits, so the next transfers are in flight (back to back, on
       the RMA level) before the current ones are waited on.  Parity
       selectors keep the moved issues targeting the other buffer slot,
       which the verify pass's replay proves on the final program.
    """
    changed = False
    kmid = tl.level("kmid")
    kouter = tl.level("kouter")
    if kmid is not None and kouter is not None and kmid.peel:
        seg = kmid.peel[0]
        prefix = 0
        while (
            prefix < len(seg.steps)
            and seg.steps[prefix].kind == "buffer_swap"
        ):
            prefix += 1
        if 0 < prefix < len(seg.steps) and not seg.constraints:
            moved = seg.steps[:prefix]
            del seg.steps[:prefix]
            kouter.body.insert(0, Segment(moved))
            changed = True
    for name in ("kouter", "kmid"):
        lvl = tl.level(name)
        if lvl is None:
            continue
        ahead = [s for s in lvl.body if _issue_only(s)]
        ahead_ids = {id(s) for s in ahead}
        rest = [s for s in lvl.body if id(s) not in ahead_ids]
        new = ahead + rest
        if [id(s) for s in new] != [id(s) for s in lvl.body]:
            lvl.body = new
            changed = True
    return changed


def merge_transfers(tl: Timeline) -> bool:
    """Merge the outer peel's unguarded DMA issues into the chunk's
    first transfer group (after its last issue, before its wait).

    Only the *outer* (DMA) peel is eligible: the inner peel's broadcasts
    source freshly DMA'd tiles and must stay behind their wait.  When
    the whole peel moves, the now-empty top extension dissolves at
    materialization."""
    kouter = tl.level("kouter")
    chunk = tl.level("chunk")
    if kouter is None or chunk is None or not kouter.peel or not chunk.body:
        return False
    movable = [
        seg
        for seg in kouter.peel
        if seg.steps
        and not seg.constraints
        and all(s.kind == "dma_issue" for s in seg.steps)
    ]
    if not movable:
        return False
    target = chunk.body[0]
    issue_positions = [
        i for i, s in enumerate(target.steps) if s.kind == "dma_issue"
    ]
    if not issue_positions:
        return False
    insert_at = issue_positions[-1] + 1
    moved = [s for seg in movable for s in seg.steps]
    target.steps[insert_at:insert_at] = moved
    movable_ids = {id(s) for s in movable}
    kouter.peel = [s for s in kouter.peel if id(s) not in movable_ids]
    return True


@dataclass(frozen=True)
class Rewrite:
    name: str
    summary: str
    fn: Callable[[Timeline], bool]


REWRITES: Dict[str, Rewrite] = {
    r.name: r
    for r in (
        Rewrite(
            "split-waits",
            "split multi-wait groups so later work overlaps the "
            "transfer still in flight",
            split_waits,
        ),
        Rewrite(
            "reorder-issues",
            "move independent issue groups ahead of waits; hoist the "
            "inner buffer swap out of the broadcast peel",
            reorder_issues,
        ),
        Rewrite(
            "merge-transfers",
            "merge the outer peel's DMA issues into the chunk's first "
            "transfer burst",
            merge_transfers,
        ),
    )
}


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def apply_rewrite(dec, name: str) -> bool:
    """Apply one rewrite to ``dec``'s schedule tree, in place.

    Extracts the timeline, runs the rewrite and materializes it back
    into the same tree when it changed anything; returns whether it
    did.  The band handles in ``dec.bands`` stay live (materialization
    rebuilds extensions and filters, never bands).  Legality is not
    checked here: the pipeline's terminal ``verify`` pass admits the
    rewritten program like every other kernel."""
    rewrite = REWRITES.get(name)
    if rewrite is None:
        raise CompilationError(
            f"unknown schedule rewrite {name!r}; known: "
            f"{', '.join(REWRITES)}"
        )
    timeline = extract_timeline(dec.root)
    if not rewrite.fn(timeline):
        return False
    materialize(timeline)
    return True
