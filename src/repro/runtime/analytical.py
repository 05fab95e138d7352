"""Closed-form performance model.

An independent cross-check of the discrete simulation: the same cost
parameters, composed analytically instead of event by event.  The model
follows the structure of §6/Fig. 10:

* **kernel**: ``t_k`` per micro-kernel call, 8 calls per outer iteration;
* **RMA** (when enabled): one A row-broadcast and one B column-broadcast
  per inner iteration on independent channels — hidden behind the kernel
  when pipelining is on (all but the first per outer iteration), serial
  otherwise;
* **DMA**: the mesh moves ``64·(A_τ+B_τ)`` bytes per outer iteration
  through the shared channel (per *inner* iteration without RMA — the 8×
  traffic the broadcasts eliminate) — hidden behind compute when
  pipelining is on (``⌈K/256⌉−1`` overlaps, so small K exposes the first
  fetch), fully serial otherwise;
* **C traffic**: one get + one put of the 512×512 chunk per mesh pass,
  never hidden.

Agreement between this formula and the event simulation is asserted by
the test-suite (within a tolerance that covers scheduling effects the
formula ignores), which guards both against regressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.options import CompilerOptions
from repro.sunway.arch import SW26010PRO, ArchSpec


@dataclass(frozen=True)
class AnalyticalBreakdown:
    """Per-phase seconds for one full GEMM (diagnostic output)."""

    kernel: float
    rma_exposed: float
    dma_exposed: float
    c_traffic: float
    sync: float
    spawn: float

    @property
    def total(self) -> float:
        return (
            self.kernel
            + self.rma_exposed
            + self.dma_exposed
            + self.c_traffic
            + self.sync
            + self.spawn
        )


def predict(
    M: int,
    N: int,
    K: int,
    options: Optional[CompilerOptions] = None,
    arch: ArchSpec = SW26010PRO,
    batch: int = 1,
) -> AnalyticalBreakdown:
    """Closed-form phase breakdown for one shape/variant."""
    options = options or CompilerOptions.full()
    kernel = arch.micro_kernel
    mesh = arch.mesh_rows
    chunk_m, chunk_n = kernel.mt * mesh, kernel.nt * mesh
    n_chunks = (M // chunk_m) * (N // chunk_n) * batch
    use_rma = options.enable_rma and arch.rma_supported
    hide = options.latency_hiding

    if options.use_asm:
        t_k = arch.kernel_time_s(kernel.mt, kernel.nt, kernel.kt)
    else:
        t_k = arch.naive_time_s(kernel.mt, kernel.nt, kernel.kt)

    kernels_per_chunk = K // kernel.kt  # per CPE
    inner = mesh if use_rma else 1
    outer_iters = K // (kernel.kt * inner)

    # --- DMA channel occupancy -------------------------------------------
    ab_bytes = kernel.a_bytes + kernel.b_bytes
    msgs_per_fetch = 2 * arch.num_cpes
    fetch_time = (
        msgs_per_fetch * arch.dma_startup_us * 1e-6
        + arch.num_cpes * ab_bytes / (arch.dma_bandwidth_gbs * 1e9)
    )
    # One fetch per outer iteration with RMA, one per kernel without.
    fetches_per_chunk = outer_iters if use_rma else kernels_per_chunk

    # --- RMA -----------------------------------------------------------------
    t_rma = max(arch.rma_time_s(kernel.a_bytes), arch.rma_time_s(kernel.b_bytes))

    # --- sync -------------------------------------------------------------------
    syncs_per_chunk = kernels_per_chunk if use_rma else 0
    sync = n_chunks * syncs_per_chunk * arch.sync_us * 1e-6

    # --- compose per chunk --------------------------------------------------------
    kernel_time = n_chunks * kernels_per_chunk * t_k
    if use_rma:
        if hide:
            # Broadcasts hide behind kernels except the first of each outer
            # iteration; DMA hides behind the inner pipeline except the
            # first fetch of each chunk (⌈K/256⌉−1 overlaps, §6.1) and any
            # excess of the channel time over the compute it hides behind.
            rma_exposed = n_chunks * outer_iters * t_rma
            compute_per_outer = inner * (t_k + arch.sync_us * 1e-6)
            exposed_per_outer = max(0.0, fetch_time - compute_per_outer)
            dma_exposed = n_chunks * (
                fetch_time + (outer_iters - 1) * exposed_per_outer
            )
        else:
            rma_exposed = n_chunks * kernels_per_chunk * t_rma
            dma_exposed = n_chunks * fetches_per_chunk * fetch_time
    else:
        rma_exposed = 0.0
        if hide:
            exposed = max(0.0, fetch_time - t_k)
            dma_exposed = n_chunks * (fetch_time + (fetches_per_chunk - 1) * exposed)
        else:
            # Without double buffering the staggered per-CPE waits keep the
            # channel busy; the period is whichever of channel and compute
            # dominates, so the exposed DMA is the excess over compute.
            dma_exposed = n_chunks * fetches_per_chunk * max(
                0.0, fetch_time - t_k
            ) + n_chunks * min(fetch_time, t_k)

    # --- C tile traffic -------------------------------------------------------------
    c_bytes = arch.num_cpes * kernel.c_bytes
    c_time = 2 * (
        arch.num_cpes * arch.dma_startup_us * 1e-6
        + c_bytes / (arch.dma_bandwidth_gbs * 1e9)
    )
    c_traffic = n_chunks * c_time

    return AnalyticalBreakdown(
        kernel=kernel_time,
        rma_exposed=rma_exposed,
        dma_exposed=dma_exposed,
        c_traffic=c_traffic,
        sync=sync,
        spawn=arch.spawn_us * 1e-6,
    )


def predict_gflops(
    M: int,
    N: int,
    K: int,
    options: Optional[CompilerOptions] = None,
    arch: ArchSpec = SW26010PRO,
    batch: int = 1,
) -> float:
    """Convenience wrapper returning Gflops."""
    breakdown = predict(M, N, K, options, arch, batch)
    return 2.0 * M * N * K * batch / breakdown.total / 1e9
