"""Compiler options.

Mirrors the command-line surface described in §8: the compiler generates
athread code for one SW26010Pro cluster by default, ``--batch`` enables the
batched-GEMM path (Fig. 3), ``--no-use-asm`` bypasses the inline assembly
kernel and emits plain loop code.  The additional switches
(``enable_rma`` / ``schedule``) expose the intermediate code variants of
the performance breakdown (§8.1) — the paper's orange and green bars —
and the fusion modes of §7.3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults import FaultPolicy, RetryPolicy
from repro.sunway.arch import ArchSpec, MicroKernelShape

FUSION_MODES = ("none", "prologue", "epilogue")

#: SIMD alignment every tile dimension must respect: the vector kernel
#: processes 8-double rows in 4-wide register groups, so tiles that are
#: not multiples of 4 cannot be register-blocked.
TILE_ALIGN = 4


@dataclass(frozen=True)
class TileConfig:
    """First-class tunable tile/pipeline configuration.

    The paper fixes the micro-kernel shape analytically at the arch's
    contract (§3.1 — 64×64×32 on SW26010Pro); the autotuner
    (:mod:`repro.tune`) instead searches this
    space.  A ``TileConfig`` carries the (X̂, Ŷ, Ẑ) tile sizes plus the
    k-strip-mine factor ``k_strip``.  ``None`` derives it from the RMA
    mode (mesh size with RMA, 1 without, §5.2); an explicit value must
    match that derivation or the plan is rejected — the field exists so
    search-space points are self-describing.  The SPM buffer depth is
    not a field: it follows from latency hiding (2 slots when hiding,
    else 1, see :attr:`CompilerOptions.latency_hiding`).
    """

    mt: int
    nt: int
    kt: int
    k_strip: Optional[int] = None

    def __post_init__(self) -> None:
        for name, value in (("mt", self.mt), ("nt", self.nt), ("kt", self.kt)):
            if value <= 0 or value % TILE_ALIGN != 0:
                raise ConfigurationError(
                    f"tile {name}={value} must be a positive multiple of "
                    f"{TILE_ALIGN} (SIMD register blocking)"
                )
        if self.k_strip is not None and self.k_strip <= 0:
            raise ConfigurationError(
                f"k_strip={self.k_strip!r} must be None or positive"
            )

    def shape(self) -> MicroKernelShape:
        return MicroKernelShape(self.mt, self.nt, self.kt)

    def name(self) -> str:
        name = f"{self.mt}x{self.nt}x{self.kt}"
        return name if self.k_strip is None else f"{name}-s{self.k_strip}"

    def is_default_for(self, arch: "ArchSpec") -> bool:
        """True when this config pins exactly the arch's analytical
        default with a derived k-strip — such configs normalise to
        ``tile_config=None`` in cache keys."""
        mk = arch.micro_kernel
        return (
            (self.mt, self.nt, self.kt) == (mk.mt, mk.nt, mk.kt)
            and self.k_strip is None
        )

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

#: The schedule rewrites, in canonical application order.  Defined here —
#: not in :mod:`repro.schedule` — so option validation needs nothing above
#: this module in the import graph; the rewrite registry in
#: ``repro.schedule.passes`` asserts it stays in sync.
SCHEDULE_PASS_NAMES = (
    "split-waits",
    "reorder-issues",
    "merge-transfers",
    "retire-waits",
)


@dataclass(frozen=True)
class SchedulePolicy:
    """How the §6 latency-hiding pipeline is scheduled — the only knob
    that selects it.

    ``mode`` selects between the fixed recipe, the rewrite stack and no
    pipelining at all; ``allow``/``deny`` filter (and, for ``allow``,
    order) the rewrites that run in ``optimize`` mode.  Reconciliation
    (:func:`repro.core.passes.reconcile_options`) canonicalises policies
    so equivalent requests share cache keys: a compile without latency
    hiding carries ``off``, ``recipe`` drops its filters, and a
    surviving ``optimize`` pins its resolved pass tuple explicitly.
    """

    mode: str = "recipe"
    #: Ordered allow-list of rewrites; empty means "all, canonical order".
    allow: Tuple[str, ...] = ()
    #: Rewrites removed from the allow set.
    deny: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in SCHEDULE_MODES:
            raise ConfigurationError(
                f"unknown schedule mode {self.mode!r}; expected one of "
                f"{SCHEDULE_MODES}"
            )
        # Serde round-trips hand back lists; coerce so policies stay
        # hashable (the simulator's chunk cache keys on options).
        for attr in ("allow", "deny"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))
            for name in getattr(self, attr):
                if name not in SCHEDULE_PASS_NAMES:
                    raise ConfigurationError(
                        f"unknown schedule pass {name!r} in {attr}; "
                        f"known: {', '.join(SCHEDULE_PASS_NAMES)}"
                    )

    def pass_names(self) -> Tuple[str, ...]:
        """The rewrites that actually run, in order."""
        base = self.allow if self.allow else SCHEDULE_PASS_NAMES
        return tuple(name for name in base if name not in self.deny)

    @staticmethod
    def parse(value) -> "SchedulePolicy":
        """Coerce a wire/CLI value into a policy.

        Accepts ``None`` (the default policy), a mode string, a mapping
        with ``mode``/``allow``/``deny`` keys, or a ready policy.
        """
        if value is None:
            return SchedulePolicy()
        if isinstance(value, SchedulePolicy):
            return value
        if isinstance(value, str):
            return SchedulePolicy(mode=value)
        if isinstance(value, dict):
            unknown = set(value) - {"mode", "allow", "deny"}
            if unknown:
                raise ConfigurationError(
                    f"unknown schedule policy keys {sorted(unknown)}; "
                    "expected mode/allow/deny"
                )
            return SchedulePolicy(
                mode=value.get("mode", "recipe"),
                allow=tuple(value.get("allow", ()) or ()),
                deny=tuple(value.get("deny", ()) or ()),
            )
        raise ConfigurationError(
            f"cannot interpret {value!r} as a schedule policy; expected a "
            f"mode string {SCHEDULE_MODES}, a mode/allow/deny mapping, or a "
            "SchedulePolicy"
        )


@dataclass(frozen=True)
class CompilerOptions:
    """Immutable option set for one compilation."""

    #: Treat the input as batched GEMM (``--batch``).
    batch: bool = False
    #: Use the vendor inline assembly micro kernel (§7.2); ``False``
    #: corresponds to ``--no-use-asm``.
    use_asm: bool = True
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
    #: default shape with a derived k-strip).  Set by the
    #: autotuner (:mod:`repro.tune`) or ``--tile MTxNTxKT`` explicitly.
    tile_config: Optional[TileConfig] = None
    #: Micro-kernel backend generating the compute kernel (``None`` =
    #: the vendor §7.2 contract; ``"parametric"`` = the register-tiled
    #: generator).  Resolved through
    #: :func:`repro.codegen.backend.get_backend`.
    kernel_backend: Optional[str] = None
    #: Fault-injection plane threaded through every entry point that
    #: consumes this option set (``--inject-faults`` / ``--fault-seed``).
    #: Runtime-only: excluded from cache keys, see
    #: :func:`repro.service.keys.cache_key`.
    fault_policy: Optional[FaultPolicy] = None
    #: Recovery behaviour for transient faults (``--max-retries``).
    retry_policy: Optional[RetryPolicy] = None
    #: Run the static safety verifier as the pipeline's terminal pass
    #: (``--no-verify`` disables it — the §8.1 ablation escape hatch).
    #: Normalised away in cache keys: verified and unverified compiles
    #: of the same request produce the same code.
    verify: bool = True
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
        if self.schedule.mode == "optimize" and not self.use_asm:
            # The rewrite stack rewrites the latency-hiding pipeline, which
            # only exists around the fast kernel: without it there is
            # nothing to optimize, so reject the request loudly.
            raise ConfigurationError(
                "schedule mode 'optimize' (--schedule=optimize) rewrites "
                "the latency-hiding pipeline, which needs the asm kernel; "
                "it cannot be combined with use_asm=False (--no-use-asm)"
            )
        if self.kernel_backend is not None:
            # Lazy import: the backend registry lives above this module
            # in the import graph (codegen.backend → tile_model → here).
            from repro.codegen.backend import backend_names

            if self.kernel_backend not in backend_names():
                raise ConfigurationError(
                    f"unknown kernel backend {self.kernel_backend!r}; "
                    f"registered: {', '.join(backend_names())}"
                )

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
            use_asm=False, enable_rma=False, schedule=SchedulePolicy("off")
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
            passes = self.schedule.pass_names()
            if passes == SCHEDULE_PASS_NAMES:
                base = f"{base}+sched"
            else:
                base = f"{base}+sched[{','.join(passes)}]"
        if self.tile_config is not None:
            base = f"{base}@{self.tile_config.name()}"
        if self.kernel_backend is not None:
            base = f"{base}#{self.kernel_backend}"
        return base

    def with_(self, **overrides) -> "CompilerOptions":
        return replace(self, **overrides)
