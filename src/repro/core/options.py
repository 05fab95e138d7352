"""Compiler options.

Mirrors the command-line surface described in §8: the compiler generates
athread code for one SW26010Pro cluster by default, ``batch`` enables the
batched-GEMM path (Fig. 3), and ``kernel_backend`` picks the micro
kernel — ``"naive"`` is the paper's ``--no-use-asm`` plain loop code.
The additional switches (``enable_rma`` / ``schedule``) expose the
intermediate code variants of the performance breakdown (§8.1) — the
paper's orange and green bars — and the fusion modes of §7.3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.faults import FaultPolicy, RetryPolicy
from repro.sunway.arch import ArchSpec, MicroKernelShape

FUSION_MODES = ("none", "prologue", "epilogue")

#: Micro kernels: plain loops (``--no-use-asm``, §8.1), the inline asm
#: kernel (§7.2) and the register-tiled generator (repro.codegen.backend).
KERNEL_BACKENDS = ("naive", "vendor", "parametric")

#: SIMD alignment every tile dimension must respect: the vector kernel
#: processes 8-double rows in 4-wide register groups, so tiles that are
#: not multiples of 4 cannot be register-blocked.
TILE_ALIGN = 4


@dataclass(frozen=True)
class TileConfig:
    """First-class tunable tile configuration.

    The paper fixes the micro-kernel shape analytically at the arch's
    contract (§3.1 — 64×64×32 on SW26010Pro); the autotuner
    (:mod:`repro.tune`) instead searches this space.  A ``TileConfig``
    carries the (X̂, Ŷ, Ẑ) tile sizes and nothing else: the k-strip-mine
    factor follows from the RMA mode (mesh size with RMA, 1 without,
    §5.2) and the SPM buffer depth from latency hiding (2 slots when
    hiding, else 1, see :attr:`CompilerOptions.latency_hiding`).
    """

    mt: int
    nt: int
    kt: int

    def __post_init__(self) -> None:
        for name, value in (("mt", self.mt), ("nt", self.nt), ("kt", self.kt)):
            if value <= 0 or value % TILE_ALIGN != 0:
                raise ConfigurationError(
                    f"tile {name}={value} must be a positive multiple of "
                    f"{TILE_ALIGN} (SIMD register blocking)"
                )

    def shape(self) -> MicroKernelShape:
        return MicroKernelShape(self.mt, self.nt, self.kt)

    def name(self) -> str:
        return f"{self.mt}x{self.nt}x{self.kt}"

    def is_default_for(self, arch: "ArchSpec") -> bool:
        """True when this config pins exactly the arch's analytical
        default (it normalises to ``tile_config=None`` in cache keys)."""
        mk = arch.micro_kernel
        return (self.mt, self.nt, self.kt) == (mk.mt, mk.nt, mk.kt)

    @staticmethod
    def default_for(arch: "ArchSpec") -> "TileConfig":
        mk = arch.micro_kernel
        return TileConfig(mt=mk.mt, nt=mk.nt, kt=mk.kt)

#: Element-wise functions available for fusion patterns.  ``quant`` is the
#: quantisation prologue over A and ``relu`` the activation epilogue over C
#: used in §8.4; the rest widen test coverage.
ELEMENTWISE_FUNCS = ("quant", "relu", "sigmoid", "tanh", "identity")

#: Schedule policy modes: "recipe" pins the fixed §6 pipeline, "optimize"
#: runs the schedule rewrite stack over it, "off" disables latency hiding
#: entirely.
SCHEDULE_MODES = ("recipe", "optimize", "off")


@dataclass(frozen=True)
class SchedulePolicy:
    """How the §6 latency-hiding pipeline is scheduled — the only knob
    that selects it.

    ``mode`` selects between the fixed recipe, the recipe followed by
    every registered schedule rewrite (``optimize``, see
    :data:`repro.schedule.REWRITES`) and no pipelining at all.
    Reconciliation (:func:`repro.core.passes.reconcile_options`) pins
    ``off`` on every compile without latency hiding, so equivalent
    requests share cache keys.
    """

    mode: str = "recipe"

    def __post_init__(self) -> None:
        if self.mode not in SCHEDULE_MODES:
            raise ConfigurationError(
                f"unknown schedule mode {self.mode!r}; expected one of "
                f"{SCHEDULE_MODES}"
            )

    @staticmethod
    def parse(value) -> "SchedulePolicy":
        """Coerce a wire/CLI value into a policy.

        Accepts ``None`` (the default policy), a mode string or a ready
        policy.
        """
        if value is None:
            return SchedulePolicy()
        if isinstance(value, SchedulePolicy):
            return value
        if isinstance(value, str):
            return SchedulePolicy(mode=value)
        raise ConfigurationError(
            f"cannot interpret {value!r} as a schedule policy; expected a "
            f"mode string {SCHEDULE_MODES} or a SchedulePolicy"
        )


@dataclass(frozen=True)
class CompilerOptions:
    """Immutable option set for one compilation."""

    #: Treat the input as batched GEMM; the frontend sets it from the
    #: source's batch dimension.
    batch: bool = False
    #: Share input tiles across the mesh with RMA broadcasts (§5).
    enable_rma: bool = True
    #: Fusion pattern: "none", "prologue" (quantisation of A) or
    #: "epilogue" (activation of C) — §7.3.
    fusion: str = "none"
    #: Element-wise function used by the fused prologue.
    prologue_func: str = "quant"
    #: Element-wise function used by the fused epilogue.
    epilogue_func: str = "relu"
    #: Tunable tile configuration (``None`` = the arch's analytical
    #: default shape).  Set by the autotuner (:mod:`repro.tune`) or
    #: ``--micro-kernel MTxNTxKT`` explicitly.
    tile_config: Optional[TileConfig] = None
    #: The micro kernel, one of :data:`KERNEL_BACKENDS`; the asm ones
    #: resolve through :func:`repro.codegen.backend.get_backend`.
    kernel_backend: str = "vendor"
    #: Fault-injection plane threaded through every entry point that
    #: consumes this option set (``--inject-faults`` / ``--fault-seed``).
    #: Runtime-only: excluded from cache keys, see
    #: :func:`repro.service.keys.cache_key`.
    fault_policy: Optional[FaultPolicy] = None
    #: Recovery behaviour for transient faults (``--max-retries``).
    retry_policy: Optional[RetryPolicy] = None
    #: Two-level software pipelining + double buffering (§6), as a
    #: schedule policy (``--schedule``): the fixed ``recipe``, the
    #: ``optimize`` rewrite stack on top of it, or ``off``.  The only
    #: field that selects the §6 pipeline; read it through
    #: :attr:`latency_hiding`.  Accepts anything
    #: :meth:`SchedulePolicy.parse` does (``None`` is the default).
    schedule: SchedulePolicy = SchedulePolicy()

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", SchedulePolicy.parse(self.schedule))
        if self.fusion not in FUSION_MODES:
            raise ConfigurationError(
                f"unknown fusion mode {self.fusion!r}; expected one of {FUSION_MODES}"
            )
        if self.prologue_func not in ELEMENTWISE_FUNCS:
            raise ConfigurationError(f"unknown prologue func {self.prologue_func!r}")
        if self.epilogue_func not in ELEMENTWISE_FUNCS:
            raise ConfigurationError(f"unknown epilogue func {self.epilogue_func!r}")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ConfigurationError(
                f"unknown kernel backend {self.kernel_backend!r}; expected "
                f"one of {KERNEL_BACKENDS}"
            )
        if self.schedule.mode == "optimize" and not self.use_asm:
            # The rewrite stack rewrites the latency-hiding pipeline, which
            # only exists around the fast kernel: without it there is
            # nothing to optimize, so reject the request loudly.
            raise ConfigurationError(
                "schedule mode 'optimize' (--schedule=optimize) rewrites "
                "the latency-hiding pipeline, which needs the asm kernel; "
                "it cannot be combined with kernel_backend='naive' "
                "(--no-use-asm)"
            )

    @property
    def use_asm(self) -> bool:
        """Whether the micro kernel is an asm kernel, not plain loops."""
        return self.kernel_backend != "naive"

    @property
    def latency_hiding(self) -> bool:
        """Whether the §6 pipeline runs: it needs the asm kernel and a
        schedule policy other than ``off``."""
        return self.use_asm and self.schedule.mode != "off"

    # -- named variants of the §8.1 breakdown -------------------------------

    @staticmethod
    def baseline() -> "CompilerOptions":
        """Red bars: automatic DMA only, naive CPE loops."""
        return CompilerOptions(
            kernel_backend="naive", enable_rma=False,
            schedule=SchedulePolicy("off"),
        )

    @staticmethod
    def with_asm() -> "CompilerOptions":
        """Orange bars: + inline assembly micro kernel."""
        return CompilerOptions(enable_rma=False, schedule=SchedulePolicy("off"))

    @staticmethod
    def with_rma() -> "CompilerOptions":
        """Green bars: + RMA broadcasts, latency hiding still off."""
        return CompilerOptions(schedule=SchedulePolicy("off"))

    @staticmethod
    def full() -> "CompilerOptions":
        """Cyan bars: every optimisation on."""
        return CompilerOptions()

    def variant_name(self) -> str:
        if not self.use_asm:
            base = "dma-only"
        elif not self.enable_rma:
            base = "+asm"
        elif not self.latency_hiding:
            base = "+rma"
        else:
            base = "+hiding"
        if self.schedule.mode == "optimize":
            base = f"{base}+sched"
        if self.tile_config is not None:
            base = f"{base}@{self.tile_config.name()}"
        if self.kernel_backend == "parametric":
            base = f"{base}#parametric"
        return base

    def with_(self, **overrides) -> "CompilerOptions":
        return replace(self, **overrides)
