"""The paper's contribution: the swgemm compiler.

End-to-end pipeline (§2.3):

1. :mod:`repro.core.spec` / the frontend produce a :class:`GemmSpec`;
2. :mod:`repro.core.tile_model` picks tile sizes analytically (§3.1);
3. :mod:`repro.core.decomposition` tiles, binds the CPE mesh and
   strip-mines the reduced dimension (§3);
4. :mod:`repro.core.dma` derives DMA statements and arguments (§4);
5. :mod:`repro.core.rma` inserts row/column broadcasts (§5);
6. :mod:`repro.core.latency_hiding` builds the two-level software
   pipeline with loop peeling and double buffering (§6);
7. the prologue/epilogue fusion passes of :mod:`repro.core.passes`
   check the DL fusion patterns (§7.3);
8. :mod:`repro.core.lowering` + :mod:`repro.poly.astgen` scan the final
   schedule tree into the AST that both the athread-C printer and the
   simulator-backed interpreter consume (§7).

Public entry point: :class:`repro.core.pipeline.GemmCompiler` — a thin
facade over the instrumented pass pipeline of :mod:`repro.core.passes`
(per-pass timings, diagnostics, pass replacement hooks, and an
after-pass hook that renders IR snapshots on request).
"""

from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.core.pipeline import GemmCompiler
from repro.core.passes import (
    CompileContext,
    Pass,
    PassManager,
    build_pipeline,
    pipeline_identity,
    reconcile_options,
)
from repro.core.diagnostics import PassDiagnostic, PassStat

__all__ = [
    "CompilerOptions",
    "GemmSpec",
    "GemmCompiler",
    "CompileContext",
    "Pass",
    "PassManager",
    "PassDiagnostic",
    "PassStat",
    "build_pipeline",
    "pipeline_identity",
    "reconcile_options",
]
