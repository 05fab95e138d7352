"""Block-decomposed GEMM over multiple core groups.

The classic owner-computes 2-D decomposition the paper sketches in §2.1:
C is split over a ``pr × pc`` grid of core groups; the rank owning block
``(p, q)`` receives the A row-panel ``A[p·Mb : (p+1)·Mb, :]`` and the B
column-panel ``B[:, q·Nb : (q+1)·Nb]`` and runs the *single-cluster*
swgemm program on them — no inter-cluster traffic during the compute, so
each piece is exactly the workload §§3-7 optimise.

Functional mode executes every rank's block on its own simulated cluster
and verifies against NumPy; timed mode rolls up the per-rank compute
times (from the chunk-extrapolating simulator) with the scatter/gather
costs from :class:`~repro.multi.comm.SimComm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, RankFailureError
from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.faults import FaultPolicy, RetryPolicy
from repro.multi.comm import NetworkSpec, SimComm
from repro.runtime.executor import run_gemm
from repro.runtime.simulator import PerformanceSimulator
from repro.sunway.arch import SW26010PRO, ArchSpec


@dataclass
class MultiGemmReport:
    """Result of one distributed run."""

    grid: Tuple[int, int]
    seconds: float
    gflops: float
    compute_seconds: float
    comm_seconds: float
    per_rank_gflops: List[float] = field(default_factory=list)
    #: ranks that failed before/during the run (fault plane's dead ranks)
    failed_ranks: Tuple[int, ...] = ()
    #: block reassignments performed: failed rank -> healthy replacement
    reassigned: Dict[int, int] = field(default_factory=dict)

    @property
    def comm_fraction(self) -> float:
        return self.comm_seconds / self.seconds if self.seconds else 0.0

    @property
    def degraded(self) -> bool:
        """True when the run completed by routing around failed ranks."""
        return bool(self.failed_ranks)

    def degraded_summary(self) -> str:
        if not self.degraded:
            return "all ranks healthy"
        moves = ", ".join(
            f"rank {dead}->rank {repl}" for dead, repl in sorted(self.reassigned.items())
        )
        return (
            f"degraded: {len(self.failed_ranks)} of "
            f"{self.grid[0] * self.grid[1]} ranks failed "
            f"({sorted(self.failed_ranks)}); blocks reassigned {moves}"
        )


class MultiClusterGemm:
    """Distribute one DGEMM over a grid of simulated core groups."""

    def __init__(
        self,
        grid: Tuple[int, int],
        arch: ArchSpec = SW26010PRO,
        options: Optional[CompilerOptions] = None,
        network: Optional[NetworkSpec] = None,
        fault_policy: Optional[FaultPolicy] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        pr, pc = grid
        if pr <= 0 or pc <= 0:
            raise ConfigurationError("process grid dimensions must be positive")
        self.grid = (pr, pc)
        self.arch = arch
        self.options = options or CompilerOptions.full()
        #: the fault plane rides on the options unless given explicitly
        self.fault_policy = (
            fault_policy if fault_policy is not None
            else (self.options.fault_policy or FaultPolicy())
        )
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else (self.options.retry_policy or RetryPolicy())
        )
        self.comm = SimComm(
            pr * pc, network,
            fault_policy=self.fault_policy, retry_policy=self.retry_policy,
        )
        self._simulator = PerformanceSimulator(arch)
        self.program = self._simulator.program_for(self.options, GemmSpec())

    def _straggler_factor(self, rank: int) -> float:
        if (self.fault_policy.enabled
                and rank in self.fault_policy.straggler_ranks):
            return self.fault_policy.straggler_factor
        return 1.0

    def _replacements(self) -> Dict[int, int]:
        """Round-robin each dead rank's block onto a healthy rank."""
        healthy = self.comm.alive_ranks()
        if not healthy:
            raise RankFailureError(
                f"all {self.comm.size} ranks are dead "
                f"(dead_ranks={sorted(self.comm.dead)}); no healthy rank "
                "left to take over any C block"
            )
        return {
            dead: healthy[i % len(healthy)]
            for i, dead in enumerate(sorted(self.comm.dead))
        }

    # -- decomposition -----------------------------------------------------

    def _block_bounds(self, extent: int, parts: int) -> List[Tuple[int, int]]:
        """Contiguous near-even split (first blocks one larger)."""
        base, extra = divmod(extent, parts)
        bounds = []
        start = 0
        for index in range(parts):
            size = base + (1 if index < extra else 0)
            bounds.append((start, start + size))
            start += size
        return bounds

    def rank_of(self, p: int, q: int) -> int:
        return p * self.grid[1] + q

    # -- functional execution -----------------------------------------------------

    def run(
        self,
        A: np.ndarray,
        B: np.ndarray,
        C: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> Tuple[np.ndarray, MultiGemmReport]:
        """Execute functionally: every rank's block on its own cluster."""
        M, K = A.shape
        K2, N = B.shape
        if K != K2:
            raise ConfigurationError(f"shape mismatch: {A.shape} vs {B.shape}")
        if C is None:
            C = np.zeros((M, N))
        pr, pc = self.grid
        row_bounds = self._block_bounds(M, pr)
        col_bounds = self._block_bounds(N, pc)

        # Rank failure handling: each dead rank's C block is reassigned to
        # a healthy rank (round-robin), which re-fetches the panels from
        # the root and computes the extra block after its own.
        replacements = self._replacements() if self.comm.dead else {}

        # Root (rank 0) scatters the A row-panels along grid rows and the
        # B column-panels along grid columns; with a flat communicator we
        # charge one panel transfer per receiving rank.
        a_chunks = [
            A[row_bounds[p][0] : row_bounds[p][1]].copy()
            for p in range(pr)
            for _ in range(pc)
        ]
        b_chunks = [
            B[:, col_bounds[q][0] : col_bounds[q][1]].copy()
            for _ in range(pr)
            for q in range(pc)
        ]
        self.comm.scatter(a_chunks, root=0)
        self.comm.scatter(b_chunks, root=0)
        # The replacement ranks fetch the failed ranks' panels too.
        for dead, repl in replacements.items():
            if repl != 0:
                self.comm._charge(0, repl, a_chunks[dead].nbytes)
                self.comm._charge(0, repl, b_chunks[dead].nbytes)

        per_rank_gflops: List[float] = []
        compute_times: List[float] = []
        for p in range(pr):
            for q in range(pc):
                rank = self.rank_of(p, q)
                executing = replacements.get(rank, rank)
                r0, r1 = row_bounds[p]
                c0, c1 = col_bounds[q]
                block = C[r0:r1, c0:c1].copy()
                result, report = run_gemm(
                    self.program,
                    a_chunks[rank],
                    b_chunks[rank],
                    block,
                    alpha=alpha,
                    beta=beta,
                )
                C[r0:r1, c0:c1] = result
                elapsed = report.elapsed_seconds * self._straggler_factor(executing)
                # Reassigned blocks serialise behind the replacement's own
                # work — its clock simply accumulates both computations.
                self.comm.advance(executing, elapsed)
                per_rank_gflops.append(report.gflops)
                compute_times.append(elapsed)

        self.comm.barrier()
        c_pieces = [
            C[row_bounds[p][0] : row_bounds[p][1],
              col_bounds[q][0] : col_bounds[q][1]]
            for p in range(pr)
            for q in range(pc)
        ]
        self.comm.gather(c_pieces, root=0)
        # Reassigned blocks travel home from their replacement rank.
        for dead, repl in replacements.items():
            if repl != 0:
                self.comm._charge(repl, 0, c_pieces[dead].nbytes)

        total = self.comm.elapsed()
        comm_seconds = total - max(compute_times) if compute_times else total
        report = MultiGemmReport(
            grid=self.grid,
            seconds=total,
            gflops=2.0 * M * N * K / total / 1e9,
            compute_seconds=max(compute_times) if compute_times else 0.0,
            comm_seconds=max(0.0, comm_seconds),
            per_rank_gflops=per_rank_gflops,
            failed_ranks=tuple(sorted(self.comm.dead)),
            reassigned=replacements,
        )
        return C, report

    # -- timed-only estimation ------------------------------------------------------

    def estimate(self, M: int, N: int, K: int) -> MultiGemmReport:
        """Timed roll-up for large shapes (no data movement).

        Every rank computes an (M/pr)×(N/pc)×K block — the per-rank time
        comes from the chunk-extrapolating simulator — and the panels
        move through the communicator's cost model.
        """
        pr, pc = self.grid
        plan = self.program.plan
        if M % pr or N % pc:
            raise ConfigurationError(
                f"M={M}, N={N} must divide evenly over the {pr}x{pc} grid"
            )
        Mb, Nb = M // pr, N // pc
        for value, step, name in ((Mb, plan.chunk_m, "M/pr"),
                                  (Nb, plan.chunk_n, "N/pc"),
                                  (K, plan.k_step, "K")):
            if value % step:
                raise ConfigurationError(
                    f"{name}={value} is not a multiple of {step}"
                )
        comm = SimComm(pr * pc, self.comm.network)
        a_panel = Mb * K * 8
        b_panel = K * Nb * 8
        c_block = Mb * Nb * 8
        for rank in range(1, pr * pc):
            comm._charge(0, rank, a_panel)
            comm._charge(0, rank, b_panel)
        block_perf = self._simulator.simulate(Mb, Nb, K, self.options)
        for rank in range(pr * pc):
            comm.advance(rank, block_perf.seconds)
        comm.barrier()
        for rank in range(1, pr * pc):
            comm._charge(rank, 0, c_block)
        total = comm.elapsed()
        return MultiGemmReport(
            grid=self.grid,
            seconds=total,
            gflops=2.0 * M * N * K / total / 1e9,
            compute_seconds=block_perf.seconds,
            comm_seconds=total - block_perf.seconds,
            per_rank_gflops=[block_perf.gflops] * (pr * pc),
        )
