"""Analytical tile-size model (§3.1).

The paper avoids auto-tuning: tile sizes are modelled analytically so they
match the shape configuration of the assembly micro kernel, "which fully
considers the memory sizes of SPMs and registers".  This module provides
both directions:

* :func:`plan_for_kernel` — given the kernel shape (the arch's contract,
  or an autotuned/backend-generated one) and the compiler options,
  derive the SPM buffer plan (§6.3's nine buffers when everything is
  enabled) and *prove* it fits the SPM, raising otherwise;
* :func:`search_optimal_shape` — the analytical model itself: enumerate
  feasible power-of-two shapes and score them with a per-inner-iteration
  time model, :func:`iteration_cost` (kernel efficiency, RMA broadcast
  latency, shared-DMA bandwidth, fixed per-iteration overhead), which
  the autotuner's pruner reads too.  For the SW26010Pro
  parameters the arg-max is exactly the arch's 64×64×32 contract,
  reproducing the paper's claim that the empirically chosen kernel shape
  is the modelled optimum; other registered archs carry their own
  contracts (see :mod:`repro.sunway.arch`).

The per-iteration model mirrors the structure the timed simulator later
measures: with latency hiding, an inner iteration costs the maximum of the
kernel time, the RMA broadcast time and this CPE's share of the mesh-wide
DMA bandwidth demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, SPMOverflowError
from repro.core.options import CompilerOptions
from repro.sunway.arch import ArchSpec, MicroKernelShape

_DT = 8  # bytes per double

#: SPM bytes reserved for stack, reply counters and scalar locals; the
#: buffer plan may not consume the full physical SPM.
def spm_reserve_bytes(arch: ArchSpec) -> int:
    return min(8 * 1024, arch.spm_bytes // 16)


@dataclass(frozen=True)
class BufferSpec:
    """One SPM buffer of the plan."""

    name: str
    role: str  # "C", "A_dma", "B_dma", "A_bc", "B_bc"
    slots: int  # double-buffer count (1 or 2)
    rows: int
    cols: int
    itemsize: int = _DT

    @property
    def nbytes(self) -> int:
        return self.slots * self.rows * self.cols * self.itemsize

    @property
    def shape(self) -> Tuple[int, ...]:
        if self.slots == 1:
            return (self.rows, self.cols)
        return (self.slots, self.rows, self.cols)


@dataclass(frozen=True)
class TilePlan:
    """Tile sizes + SPM buffer plan for one compilation."""

    mt: int
    nt: int
    kt: int
    mesh: int  # mesh rows == mesh cols
    buffers: Tuple[BufferSpec, ...]
    use_rma: bool
    double_buffered: bool
    #: transposed-operand layouts (tiles stored kt×mt / nt×kt in SPM)
    trans_a: bool = False
    trans_b: bool = False

    @property
    def chunk_m(self) -> int:
        """Rows of C one mesh pass covers (512 on SW26010Pro)."""
        return self.mt * self.mesh

    @property
    def chunk_n(self) -> int:
        return self.nt * self.mesh

    @property
    def k_step(self) -> int:
        """K elements consumed per outer k iteration (256 with RMA:
        the strip-mine factor equals the mesh size; kt without RMA)."""
        return self.kt * self.mesh if self.use_rma else self.kt

    @property
    def strip_factor(self) -> int:
        return self.mesh if self.use_rma else 1

    @property
    def kernel_shape(self) -> MicroKernelShape:
        """The micro-kernel contract this plan was built around — the
        single source of truth for kernel selection after tile selection
        (the arch default may differ under an autotuned config)."""
        return MicroKernelShape(self.mt, self.nt, self.kt)

    @property
    def itemsize(self) -> int:
        """Bytes per element (every buffer of a plan shares one dtype)."""
        return self.buffers[0].itemsize

    def spm_bytes(self) -> int:
        return sum(b.nbytes for b in self.buffers)

    def buffer(self, role: str) -> BufferSpec:
        for b in self.buffers:
            if b.role == role:
                return b
        raise ConfigurationError(f"tile plan has no buffer with role {role!r}")

    def has_buffer(self, role: str) -> bool:
        return any(b.role == role for b in self.buffers)

    def describe(self) -> Dict[str, object]:
        return {
            "tile": f"{self.mt}x{self.nt}x{self.kt}",
            "chunk": f"{self.chunk_m}x{self.chunk_n}x{self.k_step}",
            "buffers": {b.name: b.shape for b in self.buffers},
            "spm_bytes": self.spm_bytes(),
        }


def _build_buffers(
    mt: int,
    nt: int,
    kt: int,
    use_rma: bool,
    double_buffered: bool,
    trans_a: bool = False,
    trans_b: bool = False,
    itemsize: int = _DT,
) -> Tuple[BufferSpec, ...]:
    slots = 2 if double_buffered else 1
    a_rows, a_cols = (kt, mt) if trans_a else (mt, kt)
    b_rows, b_cols = (nt, kt) if trans_b else (kt, nt)
    buffers: List[BufferSpec] = [
        BufferSpec("local_C", "C", 1, mt, nt, itemsize)
    ]
    buffers.append(
        BufferSpec("local_A_dma", "A_dma", slots, a_rows, a_cols, itemsize)
    )
    buffers.append(
        BufferSpec("local_B_dma", "B_dma", slots, b_rows, b_cols, itemsize)
    )
    if use_rma:
        buffers.append(
            BufferSpec("local_A_bc", "A_bc", slots, a_rows, a_cols, itemsize)
        )
        buffers.append(
            BufferSpec("local_B_bc", "B_bc", slots, b_rows, b_cols, itemsize)
        )
    return tuple(buffers)


def plan_for_kernel(
    arch: ArchSpec,
    options: CompilerOptions,
    shape: Optional[MicroKernelShape] = None,
    trans_a: bool = False,
    trans_b: bool = False,
    itemsize: int = _DT,
) -> TilePlan:
    """Derive and validate the SPM buffer plan for a kernel shape.

    With RMA + latency hiding this is the paper's nine-buffer layout
    (§6.3): 1×C, 2×A and 2×B per level for both the DMA and the RMA
    stage.  Raises :class:`SPMOverflowError` if the plan cannot fit the
    SPM (minus a small reserve for stack and reply counters).

    ``shape`` defaults to ``options.tile_config`` when one is set (the
    autotuner path), otherwise to the arch's analytical default.  The
    selected kernel backend must accept the shape
    (:class:`~repro.errors.ConfigurationError` otherwise), so the
    pruner discards shapes the generator refuses for free.
    """
    if shape is None:
        cfg = options.tile_config
        shape = cfg.shape() if cfg is not None else arch.micro_kernel
    if options.use_asm:
        # Lazy import: codegen.backend sits above this module.
        from repro.codegen.backend import get_backend

        backend = get_backend(options.kernel_backend)
        refusal = backend.supports(shape, arch)
        if refusal is not None:
            raise ConfigurationError(
                f"kernel backend {backend.name!r} refuses {shape} on "
                f"{arch.name}: {refusal}"
            )
    use_rma = options.enable_rma and arch.rma_supported
    if options.enable_rma and not arch.rma_supported:
        raise ConfigurationError(
            f"{arch.name} has no SPM RMA; compile with enable_rma=False"
        )
    double = options.latency_hiding
    plan = TilePlan(
        mt=shape.mt,
        nt=shape.nt,
        kt=shape.kt,
        mesh=arch.mesh_rows,
        buffers=_build_buffers(
            shape.mt, shape.nt, shape.kt, use_rma, double, trans_a, trans_b,
            itemsize,
        ),
        use_rma=use_rma,
        double_buffered=double,
        trans_a=trans_a,
        trans_b=trans_b,
    )
    usable = arch.spm_bytes - spm_reserve_bytes(arch)
    if plan.spm_bytes() > usable:
        raise SPMOverflowError(
            f"buffer plan for {shape} needs {plan.spm_bytes()} B but only "
            f"{usable} B of SPM are usable on {arch.name}"
        )
    return plan


# ---------------------------------------------------------------------------
# The analytical model proper
# ---------------------------------------------------------------------------


def kernel_efficiency_model(kt: int, drain: float = 2.0) -> float:
    """Sustained fraction of peak as a function of the reduction depth.

    The micro kernel loads and stores the C register tile once per call
    and pays pipeline fill/drain; both amortise over ``kt`` multiply-add
    sweeps, giving the classic ``kt / (kt + drain)`` shape."""
    return kt / (kt + drain)


def dma_burst_efficiency(run_bytes: int, burst: int = 128) -> float:
    """DDR efficiency of strided DMA whose contiguous runs are shorter
    than the memory burst (the reason the paper aligns matrices to 128
    bytes with ``-faddress_align=128``)."""
    if run_bytes >= burst:
        return 1.0
    return run_bytes / burst


#: Fixed cost of one inner pipeline iteration (loop control, reply
#: bookkeeping), charged on top of the kernel time.
PER_ITER_OVERHEAD_S = 1.2e-6


@dataclass(frozen=True)
class IterationCost:
    """The §3.1 cost of one inner pipeline iteration of a plan."""

    kernel_s: float
    rma_s: float
    dma_s: float
    per_iter_s: float
    #: ``kernel``/``rma``/``dma`` — the largest term with hiding — or
    #: ``serial`` without it.
    limiter: str


def iteration_cost(arch: ArchSpec, plan: TilePlan) -> IterationCost:
    """Per-iteration time of ``plan``: kernel, RMA and DMA terms.

    With double buffering the three overlap and the iteration costs the
    largest; without, transfers and compute serialise (Fig. 9)."""
    mt, nt, kt, itemsize = plan.mt, plan.nt, plan.kt, plan.itemsize
    eff = kernel_efficiency_model(kt)
    t_kernel = plan.kernel_shape.flops / (arch.cpe_peak_gflops * 1e9 * eff)
    t_kernel += PER_ITER_OVERHEAD_S
    a_bytes = mt * kt * itemsize
    b_bytes = kt * nt * itemsize
    # Short contiguous runs (kt elements for A, nt for B) waste bursts.
    dma_bytes = a_bytes / dma_burst_efficiency(
        kt * itemsize
    ) + b_bytes / dma_burst_efficiency(nt * itemsize)
    if plan.use_rma:
        # Row/column broadcasts travel on independent channels and are
        # launched together (§6.1), so their latencies overlap; each
        # DMA'd tile is reused mesh-wide, so every CPE's share of the
        # shared channel is 1/mesh of the naive traffic.
        t_rma = max(arch.rma_time_s(a_bytes), arch.rma_time_s(b_bytes))
        dma_bytes /= plan.mesh
    else:
        t_rma = 0.0
    t_dma = arch.num_cpes * dma_bytes / (arch.dma_bandwidth_gbs * 1e9)
    if plan.double_buffered:
        per_iter = max(t_kernel, t_rma, t_dma)
        limiter = {t_kernel: "kernel", t_rma: "rma", t_dma: "dma"}[per_iter]
    else:
        per_iter = t_kernel + t_rma + t_dma
        limiter = "serial"
    return IterationCost(t_kernel, t_rma, t_dma, per_iter, limiter)


@dataclass(frozen=True)
class ShapeScore:
    shape: MicroKernelShape
    per_iter_s: float
    gflops_per_cpe: float
    feasible: bool
    limiter: str


def score_shape(arch: ArchSpec, mt: int, nt: int, kt: int) -> ShapeScore:
    """Modelled per-CPE throughput of one inner pipeline iteration of
    the RMA + double-buffered plan of ``mt×nt×kt``."""
    shape = MicroKernelShape(mt, nt, kt)
    plan = TilePlan(
        mt=mt,
        nt=nt,
        kt=kt,
        mesh=arch.mesh_rows,
        buffers=_build_buffers(mt, nt, kt, True, True),
        use_rma=True,
        double_buffered=True,
    )
    feasible = plan.spm_bytes() <= arch.spm_bytes - spm_reserve_bytes(arch)
    cost = iteration_cost(arch, plan)
    gflops = shape.flops / cost.per_iter_s / 1e9
    return ShapeScore(shape, cost.per_iter_s, gflops, feasible, cost.limiter)


def candidate_shapes(
    arch: ArchSpec, square_only: bool = True
) -> Iterable[Tuple[int, int, int]]:
    """Power-of-two candidates (SIMD-aligned, square C tiles by default —
    the mesh is square, so asymmetric tiles unbalance the two broadcast
    channels)."""
    simd = arch.simd_doubles
    sizes = [simd * (1 << p) for p in range(7)]  # 8..512
    depths = [4 * (1 << p) for p in range(7)]  # 4..256
    for mt in sizes:
        nts = [mt] if square_only else sizes
        for nt in nts:
            for kt in depths:
                yield (mt, nt, kt)


def search_optimal_shape(
    arch: ArchSpec, square_only: bool = True
) -> Tuple[MicroKernelShape, List[ShapeScore]]:
    """Run the analytical model over the candidate space.

    Returns the best feasible shape and all scores (for the ablation
    bench that tabulates the model)."""
    scores = [
        score_shape(arch, mt, nt, kt)
        for mt, nt, kt in candidate_shapes(arch, square_only)
    ]
    feasible = [s for s in scores if s.feasible]
    if not feasible:
        raise ConfigurationError(
            f"no feasible micro-kernel shape fits the {arch.name} SPM"
        )
    best = max(feasible, key=lambda s: (s.gflops_per_cpe, s.shape.kt))
    return best.shape, scores
