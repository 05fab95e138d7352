"""Compute processing element (CPE) state.

Each CPE owns its SPM, a set of DMA/RMA reply counters, a virtual clock
(seconds since kernel launch) and the RMA arming flag that models the
``synch()``-before-RMA rule of §5.  The clock is advanced by the executor:
compute advances it by modelled kernel time, waits advance it to the
completion time of the transfer being waited on — which is precisely how
the overlap created by the software-pipelined schedule (Fig. 10) turns
into measured time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import HardwareError, SynchronizationError
from repro.sunway.spm import ScratchPadMemory


def is_rma_counter(name: str) -> bool:
    """Whether completing a wait on reply counter ``name`` disarms the
    CPE: RMA and broadcast counters do (§5)."""
    return name.startswith("rma") or "bcast" in name


@dataclass
class ReplyRecord:
    """One pending transfer completion."""

    time: float
    buffer: Optional[Tuple[str, int]] = None  # (spm buffer, slot) to un-poison


class ReplyCounter:
    """A DMA/RMA reply signal (§4).

    Initialised to zero, incremented once per completed message; the
    generated code resets it before issuing and waits for a target value
    afterwards (``reply = 0; ... ; dma_wait_value(&reply, 1);``).
    """

    __slots__ = ("name", "value", "records")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.records: List[ReplyRecord] = []

    def reset(self) -> None:
        self.value = 0
        self.records.clear()

    def add(self, record: ReplyRecord) -> None:
        self.value += 1
        self.records.append(record)

    def satisfied(self, target: int) -> bool:
        return self.value >= target

    def completion_time(self, target: int) -> float:
        if not self.satisfied(target):
            raise SynchronizationError(
                f"reply {self.name!r} waited to {target} but only "
                f"{self.value} messages completed"
            )
        return max(r.time for r in self.records[:target])

    def consume(self, target: int) -> List[ReplyRecord]:
        """Records for the first ``target`` completions."""
        return self.records[:target]


class CPE:
    """One compute processing element of the mesh."""

    def __init__(self, rid: int, cid: int, spm_bytes: int) -> None:
        self.rid = rid
        self.cid = cid
        self.spm = ScratchPadMemory(spm_bytes, owner=f"CPE({rid},{cid})")
        self.replies: Dict[str, ReplyCounter] = {}
        self.clock: float = 0.0
        # §5: an RMA may only be launched after a synch(); the flag is set
        # by the barrier and cleared when the RMA pair has been waited on.
        self.rma_armed: bool = False
        # Reply counters whose increment was dropped by the fault
        # injector: reply name -> (poisoned buffer slot, completion time).
        # The executor watchdog uses this to name the lost transfer.
        self.lost_replies: Dict[str, Tuple[Optional[Tuple[str, int]], float]] = {}
        # Simple counters for reporting/tests.
        self.stats: Dict[str, float] = {
            "dma_messages": 0,
            "dma_bytes": 0,
            "rma_messages": 0,
            "rma_bytes": 0,
            "kernel_calls": 0,
            "compute_seconds": 0.0,
            "dma_retries": 0,
            "rma_retries": 0,
            "lost_replies": 0,
        }

    # -- reply counters ----------------------------------------------------

    def reply(self, name: str) -> ReplyCounter:
        counter = self.replies.get(name)
        if counter is None:
            counter = ReplyCounter(name)
            self.replies[name] = counter
        return counter

    def reset_reply(self, name: str) -> None:
        """``reply = 0``: zero a counter before its transfers are issued."""
        self.reply(name).reset()
        # A reset opens a new transfer window: any reply loss recorded for
        # the previous window no longer explains a stall on this counter.
        self.lost_replies.pop(name, None)

    def finish_wait(self, name: str, value: int) -> None:
        """Commit a completed ``*_wait_value``: advance the clock to the
        completion time and un-poison the buffers the wait covered."""
        counter = self.reply(name)
        self.sync_to(counter.completion_time(value))
        for record in counter.consume(value):
            if record.buffer is not None:
                self.spm.clear_inflight(record.buffer[0], record.buffer[1])
        # A completed RMA wait disarms the launch window (§5): the next
        # launch group needs a fresh synch().
        if is_rma_counter(name):
            self.rma_armed = False

    # -- clock ---------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise HardwareError(f"cannot advance clock by {seconds}")
        self.clock += seconds

    def sync_to(self, time: float) -> None:
        if time > self.clock:
            self.clock = time

    def reset(self) -> None:
        self.spm.free_all()
        self.replies.clear()
        self.lost_replies.clear()
        self.clock = 0.0
        self.rma_armed = False
        for key in self.stats:
            self.stats[key] = 0 if isinstance(self.stats[key], int) else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CPE({self.rid},{self.cid})"
