"""The autotuner's search space and its deterministic randomness.

The paper picks one point — the 64×64×32 micro kernel with RMA
broadcasts and two-level latency hiding — analytically (§3.1, §6.3).
The tuner instead searches the surrounding configuration space:

* (X̂, Ŷ, Ẑ) tile sizes — a power-of-two-ish grid around the arch's
  analytical default (quarter to double per dimension, SIMD-aligned);
* RMA broadcasts on/off and latency hiding on/off (the SPM buffer depth,
  2 or 1, follows from the latter and is part of the candidate name);
* the schedule policy — the fixed §6 recipe vs. the schedule rewrite
  stack (``--schedule=optimize``), searched only where
  it can run (hiding candidates on the asm path);
* the kernel backend — the vendor contract kernel vs. the parametric
  register-tiled generator (:mod:`repro.codegen.backend`), searched
  jointly with the shape since a generated kernel admits shapes the
  vendor object was never built for.  Shapes a backend refuses surface
  as :class:`~repro.errors.ConfigurationError` in the analytical model,
  which the pruner already maps to "infeasible".  A base on the naive
  kernel searches the naive kernel only.

Randomness is a :class:`SplitMix64` generator seeded from the tuning
options — never the ``random`` module or any wall-clock source — so a
search is a pure function of ``(spec, arch, space, seed)`` and its
result can be cached and replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.options import CompilerOptions, SchedulePolicy, TileConfig
from repro.sunway.arch import ArchSpec

#: Bump when the candidate grid or the candidate encoding changes shape —
#: tuning records are content-addressed by (spec-class, arch, space
#: version), so old records stop matching instead of silently steering
#: compiles to points the new space no longer contains.  3: the
#: ``schedule`` axis joined (recipe vs. the optimize rewrite stack).
SEARCH_SPACE_VERSION = 3


@dataclass(frozen=True)
class Candidate:
    """One point of the search space."""

    tile: TileConfig
    enable_rma: bool = True
    #: Latency hiding on this point; it also fixes the SPM buffer depth
    #: the name shows (``-d2`` with hiding, ``-d1`` without).
    enable_latency_hiding: bool = True
    #: Which micro kernel runs ``tile``'s shape
    #: (:data:`~repro.core.options.KERNEL_BACKENDS`).  ``"vendor"`` (the
    #: default, and the only pre-v2 value) keeps candidate names
    #: byte-identical with the v1 space.
    kernel_backend: str = "vendor"
    #: ``None`` keeps the fixed §6 recipe (the pre-v3 behaviour, and the
    #: only legal value for non-hiding candidates); ``"optimize"`` runs
    #: the schedule rewrite stack on top of the recipe.
    schedule: Optional[str] = None
    #: The k-strip factor the compiler derives for this point's RMA mode
    #: (mesh size with RMA, 1 without, §5.2): a name label (``-sN``) only.
    k_strip: Optional[int] = None

    def name(self) -> str:
        tile = self.tile
        depth = 2 if self.enable_latency_hiding else 1
        label = f"{tile.mt}x{tile.nt}x{tile.kt}-d{depth}"
        if self.k_strip is not None:
            label += f"-s{self.k_strip}"
        flags = ("rma" if self.enable_rma else "dma") + (
            "+hide" if self.enable_latency_hiding else ""
        )
        label += f":{flags}"
        if self.kernel_backend != "vendor":
            label += f":{self.kernel_backend}"
        if self.schedule == "optimize":
            label += ":sched"
        return label

    def knobs(self) -> Tuple[int, int, int, bool, bool, str, Optional[str]]:
        """The axes hill-climbing steps along (one knob per move)."""
        return (
            self.tile.mt,
            self.tile.nt,
            self.tile.kt,
            self.enable_rma,
            self.enable_latency_hiding,
            self.kernel_backend,
            self.schedule,
        )

    def apply(self, options: CompilerOptions) -> CompilerOptions:
        """The caller's options steered to this point."""
        if not self.enable_latency_hiding:
            mode = "off"
        else:
            mode = self.schedule or "recipe"
        return options.with_(
            tile_config=self.tile,
            enable_rma=self.enable_rma,
            kernel_backend=self.kernel_backend,
            schedule=SchedulePolicy(mode=mode),
        )


def _tile_sizes(default: int, floor: int = 4) -> List[int]:
    """Quarter/half/default/double grid, SIMD-aligned, de-duplicated."""
    raw = (default // 4, default // 2, default, default * 2)
    sizes = sorted({max(floor, (v // 4) * 4) for v in raw if v >= floor})
    return sizes or [default]


def enumerate_candidates(
    arch: ArchSpec, base_options: CompilerOptions
) -> List[Candidate]:
    """The full (unpruned) candidate list for one arch + base options.

    Deterministically ordered — the order is part of the search's
    reproducibility contract (restart indices address into it).
    """
    mk = arch.micro_kernel
    rma_choices: Sequence[bool] = (
        (True, False) if arch.rma_supported and base_options.enable_rma
        else (False,)
    )
    hiding_choices: Sequence[bool] = (
        (True, False) if base_options.latency_hiding else (False,)
    )
    # A naive base keeps the naive kernel; shapes the parametric
    # generator refuses are pruned as infeasible by the analytical
    # model, not here.
    backend_choices: Sequence[str] = (
        ("vendor", "parametric") if base_options.use_asm else ("naive",)
    )
    candidates: List[Candidate] = []
    for mt in _tile_sizes(mk.mt):
        for nt in _tile_sizes(mk.nt):
            for kt in _tile_sizes(mk.kt):
                for rma in rma_choices:
                    for hiding in hiding_choices:
                        for backend in backend_choices:
                            schedules: Sequence[Optional[str]] = (
                                (None, "optimize") if hiding else (None,)
                            )
                            for schedule in schedules:
                                candidates.append(
                                    Candidate(
                                        TileConfig(mt, nt, kt), rma, hiding,
                                        backend, schedule,
                                        k_strip=arch.mesh_rows if rma else 1,
                                    )
                                )
    return candidates


def default_candidate(arch: ArchSpec, base_options: CompilerOptions) -> Candidate:
    """The paper's point: the arch's analytical tile with the base
    pipeline — the baseline every tuned config must beat."""
    use_rma = base_options.enable_rma and arch.rma_supported
    return Candidate(
        TileConfig.default_for(arch),
        enable_rma=use_rma,
        enable_latency_hiding=base_options.latency_hiding,
        kernel_backend="vendor" if base_options.use_asm else "naive",
        k_strip=arch.mesh_rows if use_rma else 1,
    )


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64), seeded from the tuning
    options — the repo-wide rule that search results must be replayable
    forbids the ``random`` module and wall-clock entropy."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n

    def choice(self, seq: Sequence):
        return seq[self.randrange(len(seq))]


def neighbors(candidate: Candidate, pool: Sequence[Candidate]) -> Iterator[Candidate]:
    """Pool members one knob-move away from ``candidate`` (the
    hill-climb's step set)."""
    own = candidate.knobs()
    for other in pool:
        if other is candidate:
            continue
        if sum(1 for a, b in zip(own, other.knobs()) if a != b) == 1:
            yield other
