"""athread-style runtime facade.

The generated CPE code of the paper calls the athread programming model:
``dma_iget``/``dma_iput`` with reply counters (§4), ``rma_row_ibcast``/
``rma_col_ibcast`` with ``replys``/``replyr`` (§5), ``synch()`` and the
``*_wait_value`` spin waits.  This class exposes exactly that interface on
top of the simulated cluster so the AST interpreter reads like the
generated C program.

Waits are split into a *poll* (``reply_satisfied``) and a *commit*
(``finish_wait``) so the executor's wait instruction can block between
polls and hand the mesh to another CPE — cross-CPE blocking (a receiver
waiting for a broadcast the sender has not issued yet) then works exactly
like the hardware's spin loop.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import HardwareError
from repro.sunway.cpe import CPE
from repro.sunway.mesh import Cluster


def is_rma_counter(name: str) -> bool:
    """Whether completing a wait on reply counter ``name`` disarms the
    CPE: RMA and broadcast counters do (§5)."""
    return name.startswith("rma") or "bcast" in name


class AthreadRuntime:
    """Per-cluster runtime services for interpreted CPE programs."""

    def __init__(
        self, cluster: Cluster, move_data: bool = True, elem_bytes: int = 8
    ) -> None:
        self.cluster = cluster
        self.move_data = move_data
        #: element width of the matrices (8 for DGEMM, 4 for SGEMM)
        self.elem_bytes = elem_bytes

    # -- DMA (§4) -----------------------------------------------------------

    def dma_iget(
        self,
        cpe: CPE,
        dst_key: Tuple[str, int],
        array_name: str,
        offset: int,
        size: int,
        length: int,
        strip: int,
        reply: str,
    ) -> float:
        dst = cpe.spm.slot(dst_key[0], dst_key[1])
        src = self.cluster.memory[array_name]
        return self.cluster.dma.iget(
            cpe,
            dst,
            dst_key,
            src if self.move_data else None,
            src.size,
            offset,
            size,
            length,
            strip,
            reply,
            move_data=self.move_data,
            elem_bytes=self.elem_bytes,
        )

    def dma_iput(
        self,
        cpe: CPE,
        array_name: str,
        offset: int,
        src_key: Tuple[str, int],
        size: int,
        length: int,
        strip: int,
        reply: str,
    ) -> float:
        src = cpe.spm.slot(src_key[0], src_key[1])
        dst = self.cluster.memory[array_name]
        return self.cluster.dma.iput(
            cpe,
            dst if self.move_data else None,
            dst.size,
            offset,
            src if self.move_data else None,
            src_key,
            size,
            length,
            strip,
            reply,
            move_data=self.move_data,
            elem_bytes=self.elem_bytes,
        )

    # -- RMA (§5) ----------------------------------------------------------------

    def rma_row_ibcast(
        self,
        cpe: CPE,
        src_key: Tuple[str, int],
        dst_key: Tuple[str, int],
        size: int,
        replys: str,
        replyr: str,
    ) -> float:
        return self.cluster.rma.row_ibcast(
            cpe, src_key, dst_key, size, replys, replyr,
            move_data=self.move_data, elem_bytes=self.elem_bytes,
        )

    def rma_col_ibcast(
        self,
        cpe: CPE,
        src_key: Tuple[str, int],
        dst_key: Tuple[str, int],
        size: int,
        replys: str,
        replyr: str,
    ) -> float:
        return self.cluster.rma.col_ibcast(
            cpe, src_key, dst_key, size, replys, replyr,
            move_data=self.move_data, elem_bytes=self.elem_bytes,
        )

    # -- reply counters -------------------------------------------------------------

    def reply_reset(self, cpe: CPE, name: str) -> None:
        cpe.reply(name).reset()
        # A reset opens a new transfer window: any reply loss recorded for
        # the previous window no longer explains a stall on this counter.
        cpe.lost_replies.pop(name, None)

    def reply_satisfied(self, cpe: CPE, name: str, value: int) -> bool:
        return cpe.reply(name).satisfied(value)

    def finish_wait(self, cpe: CPE, name: str, value: int) -> None:
        """Commit a completed ``*_wait_value``: advance the CPE clock to
        the completion time and un-poison the buffers it covered."""
        counter = cpe.reply(name)
        cpe.sync_to(counter.completion_time(value))
        for record in counter.consume(value):
            if record.buffer is not None:
                cpe.spm.clear_inflight(record.buffer[0], record.buffer[1])
        # A completed RMA wait disarms the launch window (§5): the next
        # launch group needs a fresh synch().
        if is_rma_counter(name):
            cpe.rma_armed = False

    # -- barrier ----------------------------------------------------------------------

    def barrier_arrive(self, cpe: CPE) -> int:
        return self.cluster.barrier.arrive(cpe)

    def barrier_passed(self, token: int) -> bool:
        return self.cluster.barrier.passed(token)

    # -- compute helpers -----------------------------------------------------------------

    def charge_compute(self, cpe: CPE, seconds: float, kind: str = "kernel") -> None:
        start = cpe.clock
        cpe.advance(seconds)
        cpe.stats["compute_seconds"] += seconds
        if self.cluster.trace is not None:
            self.cluster.trace.record(
                kind, start, cpe.clock, f"CPE({cpe.rid},{cpe.cid})"
            )

    def main_array(self, name: str) -> np.ndarray:
        return self.cluster.memory[name]
