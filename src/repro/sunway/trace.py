"""Execution tracing and overlap analysis.

Fig. 10 of the paper *draws* the two-level latency-hiding pipeline; this
module lets the reproduction *measure* it.  A :class:`TraceRecorder`
attached to a cluster collects activity spans — micro-kernel executions
per CPE, DMA-channel occupancy, RMA-channel occupancy — during a timed
run, and :class:`OverlapReport` computes how much of the communication
time was hidden behind computation.

The test-suite asserts the paper's central mechanism directly: with the
§6 schedule the DMA channel's busy time is almost entirely covered by
concurrently running kernels, and with hiding disabled it is not.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

Span = Tuple[float, float]  # [start, end)


@dataclass(frozen=True)
class TraceEvent:
    """One activity span."""

    kind: str  # "kernel" | "dma" | "rma" | "blockop"
    start: float
    end: float
    who: str  # "CPE(r,c)" or "channel"
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Collects spans; negligible overhead when disabled (``None``)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(
        self, kind: str, start: float, end: float, who: str, detail: str = ""
    ) -> None:
        if end > start:
            self.events.append(TraceEvent(kind, start, end, who, detail))

    def spans(self, kind: str) -> List[Span]:
        return sorted(
            (e.start, e.end) for e in self.events if e.kind == kind
        )

    def busy_time(self, kind: str) -> float:
        return _union_length(self.spans(kind))

    def clear(self) -> None:
        self.events.clear()


def _merge(spans: Sequence[Span]) -> List[Span]:
    """Union of intervals as a sorted disjoint list."""
    merged: List[Span] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _union_length(spans: Sequence[Span]) -> float:
    return sum(end - start for start, end in _merge(spans))


def _intersection_length(spans: Sequence[Span], cover: Sequence[Span]) -> float:
    """Length of ``spans`` covered by the union ``cover``."""
    cover = _merge(cover)
    if not cover:
        return 0.0
    starts = [c[0] for c in cover]
    total = 0.0
    for start, end in _merge(spans):
        # Walk the cover intervals overlapping [start, end).
        index = max(0, bisect.bisect_right(starts, start) - 1)
        while index < len(cover) and cover[index][0] < end:
            c0, c1 = cover[index]
            total += max(0.0, min(end, c1) - max(start, c0))
            index += 1
    return total


@dataclass
class OverlapReport:
    """How much communication hid behind computation."""

    kernel_busy: float
    dma_busy: float
    rma_busy: float
    dma_hidden_fraction: float
    rma_hidden_fraction: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"kernel {self.kernel_busy * 1e3:.3f} ms | "
            f"dma {self.dma_busy * 1e3:.3f} ms "
            f"({100 * self.dma_hidden_fraction:.1f}% hidden) | "
            f"rma {self.rma_busy * 1e3:.3f} ms "
            f"({100 * self.rma_hidden_fraction:.1f}% hidden)"
        )


def analyze_overlap(recorder: TraceRecorder) -> OverlapReport:
    """Fraction of DMA/RMA channel time covered by *any* CPE computing.

    This is exactly the quantity Fig. 10 shades: a communication interval
    is "hidden" while at least one kernel is executing somewhere on the
    mesh (the mesh-wide schedule is lockstep, so mesh-level cover is the
    right granularity)."""
    compute = recorder.spans("kernel") + recorder.spans("blockop")
    dma = recorder.spans("dma")
    rma = recorder.spans("rma")
    dma_busy = _union_length(dma)
    rma_busy = _union_length(rma)
    return OverlapReport(
        kernel_busy=_union_length(compute),
        dma_busy=dma_busy,
        rma_busy=rma_busy,
        dma_hidden_fraction=(
            _intersection_length(dma, compute) / dma_busy if dma_busy else 0.0
        ),
        rma_hidden_fraction=(
            _intersection_length(rma, compute) / rma_busy if rma_busy else 0.0
        ),
    )
