"""Micro-kernel backends: the kernel as a generated artifact (§7.2).

The paper evaluates one hand-written vendor kernel per chip (64×64×32
inline assembly on SW26010Pro).  This layer turns that single contract
into a *family*: a :class:`KernelBackend` produces a micro kernel for a
requested shape on a requested architecture, or refuses with a reason
the tuner's pruner can record.

Two backends ship:

* :class:`VendorKernelBackend` (``"vendor"``, the default) — the
  existing §7.2 contract.  It wraps
  :class:`~repro.codegen.microkernel.AsmMicroKernel` for any shape the
  tile planner admits, so default compiles stay bit-exact with the
  pre-backend pipeline (same kernel names, same cost model, same
  emitted source).
* :class:`ParametricKernelBackend` (``"parametric"``) — a generator for
  register-tiled kernels at any legal (mt, nt, kt).  Legality is proved
  before generation: the shape must align to the arch's SIMD width, a
  register block (accumulators + operand vectors) must fit the arch's
  vector register file, and a minimal SPM buffer plan must leave
  non-negative slack under the PR-4 verifier's arithmetic
  (:func:`repro.verify.plan_spm_slack`).  Generated kernels carry their
  own C source (:meth:`GeneratedMicroKernel.source`) and pay a modelled
  per-register-block pipeline fill/drain cost on top of the §3.1 kernel
  time, so the vendor kernel remains the measured optimum at its own
  shape while the generator opens every other point of the space.

:func:`resolve_kernel` is the single kernel-selection entry point used
by lowering, the AST pass, the executor and the printer; it routes
``CompilerOptions.kernel_backend`` through the registry.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.codegen.microkernel import (
    AsmMicroKernel,
    NaiveKernel,
    _KernelBase,
)
from repro.sunway.arch import ArchSpec, MicroKernelShape

#: The backend :func:`get_backend` returns for ``None``.
DEFAULT_BACKEND = "vendor"

#: Pipeline fill/drain cycles a generated kernel pays per register
#: block — the scheduling polish the vendor's hand-written software
#: pipelining amortises away.  Calibrated so the generated 64×64×32
#: kernel lands within ~10% of the vendor number, matching the paper's
#: premise that generated kernels are competitive but the hand kernel
#: keeps a small edge at its own shape.
GENERATED_BLOCK_OVERHEAD_CYCLES = 20.0

#: Candidate register blocks (rows × B-operand vectors), best reuse
#: first.  ``rm×rnv`` accumulators + ``rnv`` B vectors + 1 A-broadcast
#: vector + 1 scratch must fit ``arch.vector_registers``.
_REGISTER_BLOCKS: Tuple[Tuple[int, int], ...] = (
    (8, 4), (8, 2), (4, 4), (4, 2), (4, 1), (2, 2), (2, 1), (1, 1),
)


def _block_registers(rm: int, rn_vecs: int) -> int:
    """Vector registers one register block occupies."""
    return rm * rn_vecs + rn_vecs + 1 + 1


def select_register_block(
    shape: MicroKernelShape, arch: ArchSpec
) -> Optional[Tuple[int, int]]:
    """Largest register block that tiles ``shape`` and fits the register
    file, or ``None`` when no candidate fits."""
    vecs = shape.nt // arch.simd_doubles
    for rm, rn_vecs in _REGISTER_BLOCKS:
        if shape.mt % rm or vecs % rn_vecs:
            continue
        if _block_registers(rm, rn_vecs) <= arch.vector_registers:
            return rm, rn_vecs
    return None


class GeneratedMicroKernel(_KernelBase):
    """A register-tiled kernel emitted by the parametric backend.

    Numerically identical to the vendor kernel (the register tile
    performs ``C += α·(A×B)``); in time it adds a per-register-block
    fill/drain charge to the arch's §3.1 kernel model.  Unlike the
    vendor object file, its source exists: :meth:`source` prints the
    SIMD C body the generator would hand to swgcc.
    """

    def __init__(
        self,
        arch: ArchSpec,
        shape: MicroKernelShape,
        rm: int,
        rn_vecs: int,
    ) -> None:
        super().__init__(arch, shape)
        self.rm = rm
        self.rn_vecs = rn_vecs

    @property
    def name(self) -> str:
        s = self.shape
        return f"gen_dgemm_{s.mt}x{s.nt}x{s.kt}"

    @property
    def register_blocks(self) -> int:
        s = self.shape
        return (s.mt // self.rm) * (s.nt // (self.rn_vecs * self.arch.simd_doubles))

    @property
    def seconds_per_call(self) -> float:
        s = self.shape
        base = self.arch.kernel_time_s(s.mt, s.nt, s.kt)
        overhead_cycles = GENERATED_BLOCK_OVERHEAD_CYCLES * self.register_blocks
        return base + overhead_cycles / (self.arch.cpe_freq_ghz * 1e9)

    def source(self) -> str:
        """The generated SIMD C body (register-tiled, vector intrinsics)."""
        s, vw = self.shape, self.arch.simd_doubles
        vec = f"doublev{vw}"
        rn = self.rn_vecs * vw
        lines = [
            f"/* Generated register-tiled micro kernel "
            f"({self.rm}x{rn} register block, "
            f"{_block_registers(self.rm, self.rn_vecs)} of "
            f"{self.arch.vector_registers} vector registers). */",
            f"static void {self.name}(double *c, const double *a, "
            f"const double *b, double alpha) {{",
            f"  {vec} va, vb[{self.rn_vecs}], vc[{self.rm}][{self.rn_vecs}];",
            f"  for (int i = 0; i < {s.mt}; i += {self.rm})",
            f"    for (int j = 0; j < {s.nt}; j += {rn}) {{",
            f"      /* load the C register tile */",
            f"      for (int ri = 0; ri < {self.rm}; ++ri)",
            f"        for (int rj = 0; rj < {self.rn_vecs}; ++rj)",
            f"          simd_load(vc[ri][rj], "
            f"&c[(i + ri) * {s.nt} + j + rj * {vw}]);",
            f"      for (int k = 0; k < {s.kt}; ++k) {{",
            f"        for (int rj = 0; rj < {self.rn_vecs}; ++rj)",
            f"          simd_load(vb[rj], &b[k * {s.nt} + j + rj * {vw}]);",
            f"        for (int ri = 0; ri < {self.rm}; ++ri) {{",
            f"          va = simd_set_{vec}(alpha * a[(i + ri) * {s.kt} + k]);",
            f"          for (int rj = 0; rj < {self.rn_vecs}; ++rj)",
            f"            vc[ri][rj] += va * vb[rj];  /* vmad */",
            f"        }}",
            f"      }}",
            f"      /* store the C register tile */",
            f"      for (int ri = 0; ri < {self.rm}; ++ri)",
            f"        for (int rj = 0; rj < {self.rn_vecs}; ++rj)",
            f"          simd_store(vc[ri][rj], "
            f"&c[(i + ri) * {s.nt} + j + rj * {vw}]);",
            f"    }}",
            f"}}",
        ]
        return "\n".join(lines)


class KernelBackend:
    """Protocol for micro-kernel generators.

    ``supports`` returns a human-readable refusal reason (or ``None``
    for acceptance); ``generate`` builds the kernel object.  Callers
    must check ``supports`` first — ``generate`` raises
    :class:`~repro.errors.ConfigurationError` on a refused shape.
    """

    name: str = "abstract"

    def supports(self, shape: MicroKernelShape, arch: ArchSpec) -> Optional[str]:
        raise NotImplementedError

    def generate(
        self, shape: MicroKernelShape, vector_width: int, arch: ArchSpec
    ) -> _KernelBase:
        raise NotImplementedError

    def _admit(self, shape: MicroKernelShape, arch: ArchSpec) -> None:
        reason = self.supports(shape, arch)
        if reason is not None:
            raise ConfigurationError(
                f"kernel backend {self.name!r} cannot generate {shape} on "
                f"{arch.name}: {reason}"
            )


class VendorKernelBackend(KernelBackend):
    """The existing §7.2 vendor contract, unchanged.

    Accepts any positive shape — the vendor kernel family is modelled
    (not assembled), and the tile planner / verifier already gate SPM
    feasibility — so default compiles and existing tuning records keep
    their exact pre-backend behaviour.
    """

    name = "vendor"

    def supports(self, shape: MicroKernelShape, arch: ArchSpec) -> Optional[str]:
        if min(shape.mt, shape.nt, shape.kt) <= 0:
            return "kernel dimensions must be positive"
        return None

    def generate(
        self, shape: MicroKernelShape, vector_width: int, arch: ArchSpec
    ) -> _KernelBase:
        self._admit(shape, arch)
        return AsmMicroKernel(arch, shape)


class ParametricKernelBackend(KernelBackend):
    """Register-tiled kernel generator for any legal (mt, nt, kt)."""

    name = "parametric"

    def supports(self, shape: MicroKernelShape, arch: ArchSpec) -> Optional[str]:
        if min(shape.mt, shape.nt, shape.kt) <= 0:
            return "kernel dimensions must be positive"
        if shape.nt % arch.simd_doubles:
            return (
                f"nt={shape.nt} is not a multiple of the {arch.simd_doubles}-"
                f"double SIMD width"
            )
        if shape.kt < 2:
            return "reduction depth kt < 2 cannot amortise the C tile traffic"
        if select_register_block(shape, arch) is None:
            return (
                f"no register block fits the {arch.vector_registers}-entry "
                f"vector register file"
            )
        # SPM floor via the verifier's slack arithmetic: if even the
        # minimal single-buffered DMA-only plan overflows, no pipeline
        # variant of this shape can be scheduled on this arch.
        from repro.core.tile_model import TilePlan, _build_buffers
        from repro.verify import plan_spm_slack

        minimal = TilePlan(
            mt=shape.mt,
            nt=shape.nt,
            kt=shape.kt,
            mesh=arch.mesh_rows,
            buffers=_build_buffers(shape.mt, shape.nt, shape.kt, False, False),
            use_rma=False,
            double_buffered=False,
        )
        slack = plan_spm_slack(arch, minimal)
        if slack < 0:
            return (
                f"minimal SPM plan overflows by {-slack} B on {arch.name} "
                f"({minimal.spm_bytes()} B of buffers)"
            )
        return None

    def generate(
        self, shape: MicroKernelShape, vector_width: int, arch: ArchSpec
    ) -> _KernelBase:
        self._admit(shape, arch)
        rm, rn_vecs = select_register_block(shape, arch)
        return GeneratedMicroKernel(arch, shape, rm, rn_vecs)


# ---------------------------------------------------------------------------
# Backend registry + kernel resolution
# ---------------------------------------------------------------------------

_BACKENDS: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register a backend under ``backend.name`` (last wins)."""
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Look up a registered backend (``None`` → the vendor default)."""
    key = name or DEFAULT_BACKEND
    try:
        return _BACKENDS[key]
    except KeyError:
        known = ", ".join(backend_names())
        raise ConfigurationError(
            f"unknown kernel backend {key!r} (registered: {known})"
        ) from None


def backend_names() -> Tuple[str, ...]:
    return tuple(_BACKENDS)


register_backend(VendorKernelBackend())
register_backend(ParametricKernelBackend())


def resolve_kernel(arch, options, shape=None):
    """The kernel a compilation with ``options`` runs on ``arch``.

    ``shape`` defaults to the tile config when one is set, else the
    arch's contract — the same precedence the tile planner applies.
    The ``naive`` kernel bypasses the backends entirely: it models swgcc
    compiling the plain loop nest, which no generator is involved in.
    """
    if shape is None:
        cfg = options.tile_config
        shape = cfg.shape() if cfg is not None else arch.micro_kernel
    if not options.use_asm:
        return NaiveKernel(arch, shape)
    backend = get_backend(options.kernel_backend)
    return backend.generate(shape, arch.simd_doubles, arch)
