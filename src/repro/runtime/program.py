"""The compiled program container.

Holds everything the back ends need: the final schedule tree (kept for
inspection and golden tests — its dump is the reproduction of Figs. 9/11),
the CPE AST with its SPM buffer plan, the problem/option/architecture
metadata, and the measured code-generation time (the paper's §8.5
engineering-cost claim is about exactly this number)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.decomposition import Decomposition
from repro.core.diagnostics import PassStat
from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec, check_shape
from repro.core.tile_model import TilePlan
from repro.poly.astnodes import CpeProgram
from repro.poly.schedule_tree import DomainNode
from repro.sunway.arch import ArchSpec


@dataclass
class CompiledProgram:
    """Output of :class:`repro.core.pipeline.GemmCompiler.compile`."""

    spec: GemmSpec
    options: CompilerOptions
    arch: ArchSpec
    plan: TilePlan
    decomposition: Decomposition
    cpe_program: CpeProgram
    codegen_seconds: float = 0.0
    #: Compact per-pass breakdown (name, paper section, seconds,
    #: diagnostics).  ``codegen_seconds == sum(s.seconds for s in
    #: pass_stats)`` by construction.
    pass_stats: Tuple[PassStat, ...] = ()
    #: The admission verifier's passing report + certificate
    #: (:class:`repro.verify.VerificationReport`).  The pipeline's
    #: terminal ``verify`` pass attaches it to every program it returns,
    #: and :meth:`from_dict` refuses an artifact without one.
    verification: Optional[object] = None

    @property
    def tree(self) -> DomainNode:
        return self.decomposition.root

    def tree_dump(self) -> str:
        return self.tree.dump()

    def spm_bytes(self) -> int:
        return self.cpe_program.spm_bytes()

    # -- shape utilities --------------------------------------------------

    def padded_shape(self, M: int, N: int, K: int) -> Tuple[int, int, int]:
        """The zero-padded shape the mesh actually executes (§8.1: M and N
        must be multiples of 512 and K of 256 on the default target)."""
        check_shape(M, N, K)
        plan = self.plan

        def up(value: int, multiple: int) -> int:
            return -(-value // multiple) * multiple

        return (
            up(M, plan.chunk_m),
            up(N, plan.chunk_n),
            up(K, plan.k_step),
        )

    def requires_padding(self, M: int, N: int, K: int) -> bool:
        return self.padded_shape(M, N, K) != (M, N, K)

    def describe(self) -> Dict[str, object]:
        return {
            "variant": self.options.variant_name(),
            "fusion": self.options.fusion,
            "batched": self.spec.is_batched,
            "tile_plan": self.plan.describe(),
            "arch": self.arch.describe(),
            "spm_bytes": self.spm_bytes(),
            "codegen_seconds": round(self.codegen_seconds, 6),
            "passes": [s.name for s in self.pass_stats],
        }

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe artifact for the compilation service's disk cache."""
        from repro.runtime import serde

        return {
            "serde_version": serde.SERDE_VERSION,
            "spec": serde.encode(self.spec),
            "options": serde.encode(self.options),
            "arch": serde.encode(self.arch),
            "plan": serde.encode(self.plan),
            "decomposition": serde.encode(self.decomposition),
            "cpe_program": serde.encode(self.cpe_program),
            "codegen_seconds": self.codegen_seconds,
            "pass_stats": serde.encode(list(self.pass_stats)),
            "verification": serde.encode(self.verification),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompiledProgram":
        from repro.runtime import serde

        version = data.get("serde_version")
        if version != serde.SERDE_VERSION:
            raise serde.SerializationError(
                f"artifact has serde version {version!r}, "
                f"expected {serde.SERDE_VERSION}"
            )
        verification = serde.decode(data["verification"])
        if verification is None:
            raise serde.SerializationError(
                "artifact carries no admission report"
            )
        return cls(
            spec=serde.decode(data["spec"]),
            options=serde.decode(data["options"]),
            arch=serde.decode(data["arch"]),
            plan=serde.decode(data["plan"]),
            decomposition=serde.decode(data["decomposition"]),
            cpe_program=serde.decode(data["cpe_program"]),
            codegen_seconds=float(data["codegen_seconds"]),
            pass_stats=tuple(serde.decode(data["pass_stats"])),
            verification=verification,
        )

    # -- source rendering ----------------------------------------------------

    def cpe_source(self) -> str:
        from repro.codegen.printer import print_cpe_program

        return print_cpe_program(self)

    def mpe_source(self) -> str:
        from repro.codegen.printer import print_mpe_program

        return print_mpe_program(self)
