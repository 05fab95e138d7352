"""The schedule IR: per-CPE DMA/RMA/compute timelines.

The §6 latency-hiding recipe builds one fixed schedule tree; this module
gives the communication part of that tree a first-class, rewritable
form.  A :class:`Timeline` is the per-CPE execution order of the
communication statements, organised by pipeline level:

``chunk``
    Around the whole k loop nest: the C tile's get/scale before the
    compute subtree, epilogue/put after it.
``kouter``
    The (outer) k DMA pipeline: the peeled first issue in front of the
    loop, then per-iteration waits/prefetch-issues/prologue.
``kmid``
    The inner RMA pipeline (only for RMA variants): the peeled first
    broadcast group, then per-iteration broadcast waits and guarded
    next-slice launches.

Each level holds ordered :class:`Segment` lists — ``peel`` (the top
extension's statements, executed once before the loop), ``body``
(per-iteration statements before the compute subtree) and ``post``
(statements after the compute subtree; only the chunk level has any).
A :class:`Segment` corresponds to one schedule-tree filter and keeps its
guard constraints and label; its :class:`ScheduleStep` entries wrap the
underlying :class:`~repro.poly.schedule_tree.ExtensionStmt` objects and
classify them into the six timeline stages the passes reason about:
``dma_issue``, ``dma_wait``, ``rma_put``, ``rma_wait``, ``compute`` and
``buffer_swap`` (the parity reset + synch that rotates the double
buffers).

``Timeline.dump()`` is deterministic text — the golden files under
``tests/golden/schedule/`` lock the before/after timelines of every
variant, and the confluence property tests compare pass compositions by
dump equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CompilationError
from repro.poly.schedule_tree import ExtensionStmt

#: role (on the ExtensionStmt) -> timeline stage kind.
ROLE_TO_KIND: Dict[str, str] = {
    "dma_issue": "dma_issue",
    "dma_wait": "dma_wait",
    "rma_issue": "rma_put",
    "rma_wait": "rma_wait",
    "rma_reset": "buffer_swap",
    "synch": "buffer_swap",
    "scale_c": "compute",
    "prologue": "compute",
    "epilogue": "compute",
}

#: Every stage kind a step may carry, in canonical order.
STEP_KINDS = (
    "dma_issue",
    "dma_wait",
    "rma_put",
    "rma_wait",
    "compute",
    "buffer_swap",
)


@dataclass
class ScheduleStep:
    """One timeline entry: a communication/compute statement with its
    stage classification.  ``stmt`` is the live ExtensionStmt the
    materializer re-attaches to the tree."""

    name: str
    kind: str
    role: str
    stmt: ExtensionStmt

    @staticmethod
    def of(stmt: ExtensionStmt) -> "ScheduleStep":
        kind = ROLE_TO_KIND.get(stmt.role)
        if kind is None:
            raise CompilationError(
                f"extension statement {stmt.name!r} has role {stmt.role!r}, "
                f"which maps to no timeline stage (known: {sorted(ROLE_TO_KIND)})"
            )
        return ScheduleStep(stmt.name, kind, stmt.role, stmt)


@dataclass
class Segment:
    """An ordered statement group — one schedule-tree filter.

    ``constraints`` are the filter's guard constraints (the
    ``x <= bound-2`` issue guards of Fig. 11); ``label`` its
    documentation label."""

    steps: List[ScheduleStep]
    constraints: Tuple = ()
    label: str = ""

    def step_names(self) -> List[str]:
        return [s.name for s in self.steps]

    def describe(self) -> str:
        body = "; ".join(f"{s.kind} {s.name}" for s in self.steps)
        guard = (
            " if " + " and ".join(str(c) for c in self.constraints)
            if self.constraints
            else ""
        )
        tag = f" <{self.label}>" if self.label else ""
        return f"{guard}{tag}: {body}".lstrip()


@dataclass
class LevelTimeline:
    """The timeline of one pipeline level."""

    level: str
    peel: List[Segment] = field(default_factory=list)
    body: List[Segment] = field(default_factory=list)
    post: List[Segment] = field(default_factory=list)

    def dump_lines(self) -> List[str]:
        lines = [f"{self.level}:"]
        for seg in self.peel:
            lines.append(f"  peel {seg.describe()}")
        for seg in self.body:
            lines.append(f"  body {seg.describe()}")
        lines.append("  -- compute --")
        for seg in self.post:
            lines.append(f"  post {seg.describe()}")
        return lines


@dataclass
class Timeline:
    """The whole per-CPE timeline, outermost level first.

    ``anchors`` is the extractor's private handle back into the schedule
    tree (see :mod:`repro.schedule.extract`); passes must treat it as
    opaque."""

    levels: Dict[str, LevelTimeline]
    anchors: Optional[object] = None

    def level(self, name: str) -> Optional[LevelTimeline]:
        return self.levels.get(name)

    def dump(self) -> str:
        lines: List[str] = ["timeline:"]
        for lvl in self.levels.values():
            lines.extend("  " + l for l in lvl.dump_lines())
        return "\n".join(lines) + "\n"
