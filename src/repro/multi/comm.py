"""A simulated MPI-style communicator over core groups.

The API follows mpi4py's lower-case object methods (``scatter``,
``gather``, ``barrier``) so the driver code reads like an MPI program.
Instead of real processes there is one virtual clock per rank; each
collective moves NumPy arrays immediately and advances the
participating clocks by a linear latency+bandwidth cost model:

* ranks on the *same processor* talk through the network on chip
  (SW26010Pro: six core groups per chip);
* ranks on *different processors* pay the system-interface cost.

Collectives are modelled with the usual flat-tree bounds — good enough
for the block-decomposed GEMM whose messages are large panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import ConfigurationError, TransientFaultError
from repro.faults import FaultInjector, FaultPolicy, RetryPolicy


@dataclass(frozen=True)
class NetworkSpec:
    """Inter-cluster network parameters."""

    #: core groups per processor (SW26010Pro: six, §2.1)
    groups_per_processor: int = 6
    #: network-on-chip link between core groups of one processor
    noc_bandwidth_gbs: float = 30.0
    noc_latency_us: float = 1.0
    #: system interface between processors (super-node level)
    sys_bandwidth_gbs: float = 12.0
    sys_latency_us: float = 4.0

    def link_time_s(self, nbytes: int, same_chip: bool) -> float:
        if same_chip:
            return self.noc_latency_us * 1e-6 + nbytes / (
                self.noc_bandwidth_gbs * 1e9
            )
        return self.sys_latency_us * 1e-6 + nbytes / (
            self.sys_bandwidth_gbs * 1e9
        )


class SimComm:
    """An MPI_COMM_WORLD over ``size`` simulated core groups."""

    def __init__(
        self,
        size: int,
        network: Optional[NetworkSpec] = None,
        fault_policy: Optional[FaultPolicy] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if size <= 0:
            raise ConfigurationError("communicator size must be positive")
        self.size = size
        self.network = network or NetworkSpec()
        self.clocks = [0.0] * size
        self.stats: Dict[str, float] = {"messages": 0, "bytes": 0, "retries": 0}
        self.fault_policy = fault_policy or FaultPolicy()
        self.retry_policy = retry_policy or RetryPolicy()
        self.injector: Optional[FaultInjector] = None
        #: ranks that have failed permanently; collectives skip them and
        #: the driver reassigns their work (degraded mode)
        self.dead: Set[int] = set()
        if self.fault_policy.enabled:
            self.injector = FaultInjector(self.fault_policy).fork("comm")
            for rank in self.fault_policy.dead_ranks:
                if 0 <= rank < size:
                    self.dead.add(rank)

    # -- helpers -----------------------------------------------------------

    def processor_of(self, rank: int) -> int:
        return rank // self.network.groups_per_processor

    def _same_chip(self, a: int, b: int) -> bool:
        return self.processor_of(a) == self.processor_of(b)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ConfigurationError(f"rank {rank} outside communicator of {self.size}")

    def alive_ranks(self) -> List[int]:
        return [rank for rank in range(self.size) if rank not in self.dead]

    def _charge(self, src: int, dst: int, nbytes: int) -> None:
        if src in self.dead or dst in self.dead:
            # A transfer with a failed endpoint never happens: the driver
            # is responsible for routing around dead ranks.
            return
        cost = self.network.link_time_s(nbytes, self._same_chip(src, dst))
        attempts = 0
        while True:
            if self.injector is not None:
                cost_this = cost * self.injector.latency_factor("comm")
            else:
                cost_this = cost
            ready = max(self.clocks[src], self.clocks[dst]) + cost_this
            self.clocks[src] = ready
            self.clocks[dst] = ready
            if not (self.injector is not None
                    and self.injector.transfer_fault("comm")):
                break
            # Transient link fault: the attempt's time is already spent on
            # both clocks; add backoff and resend.
            attempts += 1
            self.stats["retries"] += 1
            if attempts > self.retry_policy.max_retries:
                raise TransientFaultError(
                    f"inter-cluster transfer {src}->{dst} ({nbytes} bytes) "
                    f"failed {attempts} attempt(s); retry budget of "
                    f"{self.retry_policy.max_retries} exhausted (injected "
                    f"comm faults, seed {self.fault_policy.seed})"
                )
            backoff = self.retry_policy.backoff(attempts - 1)
            self.clocks[src] += backoff
            self.clocks[dst] += backoff
        self.stats["messages"] += 1
        self.stats["bytes"] += nbytes

    def advance(self, rank: int, seconds: float) -> None:
        """Local computation on one rank."""
        self._check_rank(rank)
        self.clocks[rank] += seconds

    def elapsed(self) -> float:
        alive = self.alive_ranks()
        return max(self.clocks[r] for r in alive) if alive else max(self.clocks)

    # -- collectives (mpi4py-style lower-case object API) ----------------------

    def scatter(self, chunks: Sequence[np.ndarray], root: int = 0) -> List[np.ndarray]:
        """Rank ``i`` receives ``chunks[i]``."""
        self._check_rank(root)
        if len(chunks) != self.size:
            raise ConfigurationError(
                f"scatter needs {self.size} chunks, got {len(chunks)}"
            )
        out: List[np.ndarray] = []
        for rank, chunk in enumerate(chunks):
            if rank != root:
                self._charge(root, rank, chunk.nbytes)
            out.append(chunk)
        return out

    def gather(self, pieces: Sequence[np.ndarray], root: int = 0) -> List[np.ndarray]:
        """Rank ``root`` collects every rank's piece."""
        self._check_rank(root)
        if len(pieces) != self.size:
            raise ConfigurationError(
                f"gather needs {self.size} pieces, got {len(pieces)}"
            )
        for rank, piece in enumerate(pieces):
            if rank != root:
                self._charge(rank, root, piece.nbytes)
        return list(pieces)

    def barrier(self) -> None:
        alive = self.alive_ranks()
        if not alive:
            return
        release = max(self.clocks[rank] for rank in alive)
        for rank in alive:
            self.clocks[rank] = release
