"""The core group (cluster): 8×8 CPE mesh + engines + barrier.

The cluster object is what a compiled program executes against.  It owns
the main memory, the DMA and RMA engines, the mesh barrier that implements
``synch()``, and the per-CPE state.  The barrier also models the §5 rule
that synchronisation *arms* subsequent RMA launches.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import MeshError
from repro.faults import FaultInjector, FaultPolicy, RetryPolicy
from repro.sunway.arch import ArchSpec
from repro.sunway.cpe import CPE
from repro.sunway.dma_engine import DMAEngine
from repro.sunway.memory import MainMemory
from repro.sunway.rma_engine import RMAEngine


class Barrier:
    """A generation-counting mesh barrier.

    The executor's ``synch()`` leaf call runs :meth:`arrive` once per
    CPE; an arrival that has not :meth:`passed` parks its CPE until the
    last participant arrives.  Then every clock is advanced to the common
    release time (``max(clocks) + sync cost``) and RMA launches are armed.
    """

    def __init__(self, arch: ArchSpec, cpes: List[CPE]) -> None:
        self.arch = arch
        self.expected = len(cpes)
        self.generation = 0
        #: the CPEs that arrived in this generation, in arrival order
        self._arrived: Dict[CPE, None] = {}

    def arrive(self, cpe: CPE) -> int:
        if cpe in self._arrived:
            raise MeshError(f"{cpe!r} arrived twice at the same barrier")
        token = self.generation
        self._arrived[cpe] = None
        if len(self._arrived) == self.expected:
            release = max(c.clock for c in self._arrived) + self.arch.sync_us * 1e-6
            for c in self._arrived:
                c.sync_to(release)
                c.rma_armed = True
            self._arrived.clear()
            self.generation += 1
        return token

    def passed(self, token: int) -> bool:
        return self.generation > token

    def arrivals(self) -> List[CPE]:
        """The CPEs that arrived in this generation, in arrival order."""
        return list(self._arrived)

    def reset(self) -> None:
        self.generation = 0
        self._arrived.clear()


class Cluster:
    """One simulated SW26010Pro core group."""

    def __init__(
        self,
        arch: ArchSpec,
        fault_policy: Optional[FaultPolicy] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.arch = arch
        self.memory = MainMemory()
        self.cpes: List[List[CPE]] = [
            [CPE(r, c, arch.spm_bytes) for c in range(arch.mesh_cols)]
            for r in range(arch.mesh_rows)
        ]
        #: fault plane shared by every engine of this core group
        self.fault_policy = fault_policy or FaultPolicy()
        self.retry_policy = retry_policy or RetryPolicy()
        self.dma = DMAEngine(arch, self.fault_policy, self.retry_policy)
        self.rma = RMAEngine(arch, self.cpes, self.fault_policy, self.retry_policy)
        if self.fault_policy.enabled:
            # Named streams: the DMA and RMA engines draw independently,
            # so a run with the same seed replays the same fault sequence
            # on each plane regardless of the other's traffic.
            root = FaultInjector(self.fault_policy)
            self.dma.injector = root.fork("dma")
            self.rma.injector = root.fork("rma")
        self.barrier = Barrier(arch, self.all_cpes())
        self.spawn_count = 0
        self.trace = None

    def enable_tracing(self):
        """Attach a TraceRecorder to every engine; returns it."""
        from repro.sunway.trace import TraceRecorder

        self.trace = TraceRecorder()
        self.dma.trace = self.trace
        self.rma.trace = self.trace
        return self.trace

    # -- topology -----------------------------------------------------------

    def cpe(self, rid: int, cid: int) -> CPE:
        if not (0 <= rid < self.arch.mesh_rows and 0 <= cid < self.arch.mesh_cols):
            raise MeshError(
                f"CPE coordinates ({rid},{cid}) outside "
                f"{self.arch.mesh_rows}x{self.arch.mesh_cols} mesh"
            )
        return self.cpes[rid][cid]

    def all_cpes(self) -> List[CPE]:
        return [cpe for row in self.cpes for cpe in row]

    # -- lifecycle ------------------------------------------------------------

    def reset_mesh(self) -> None:
        """Clear per-launch CPE state (SPM, clocks, counters)."""
        for cpe in self.all_cpes():
            cpe.reset()
        self.dma.reset()
        self.rma.reset()
        self.barrier.reset()

    def begin_spawn(self) -> None:
        """Model athread_spawn: per-launch startup cost on every CPE."""
        self.spawn_count += 1
        cost = self.arch.spawn_us * 1e-6
        for cpe in self.all_cpes():
            cpe.advance(cost)

    def elapsed(self) -> float:
        """Kernel wall time so far: the slowest CPE's clock."""
        return max(cpe.clock for cpe in self.all_cpes())

    # -- reporting ---------------------------------------------------------------

    def total_stats(self) -> dict:
        totals: dict = {}
        for cpe in self.all_cpes():
            for key, value in cpe.stats.items():
                totals[key] = totals.get(key, 0) + value
        totals["spawns"] = self.spawn_count
        return totals
