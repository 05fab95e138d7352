"""The end-to-end compiler driver (§2.3, §7).

``GemmCompiler`` is a thin facade over the instrumented pass pipeline of
:mod:`repro.core.passes`: it reconciles the options against the spec,
builds the variant-aware pass list (batched, fused, no-RMA and
no-latency-hiding requests are pipeline edits, not branches inside
passes), runs it through a :class:`~repro.core.passes.PassManager`, and
packages the result as a :class:`~repro.runtime.program.CompiledProgram`
carrying a compact per-pass ``pass_stats`` block.  It renders no IR: a
caller that inspects passes (``swgemm --print-after`` / ``--dump-ir``)
passes an after-pass hook to :meth:`GemmCompiler.compile_with_context`.

Compilation takes milliseconds; the paper's §8.5 contrasts exactly this
("seconds, including the integer linear solver") with the months of
manual work behind the xMath library, so the driver records per-pass
wall time on every run — ``codegen_seconds`` is *defined* as the sum of
the pass timings, so the engineering-cost number decomposes by paper
stage.
"""

from __future__ import annotations

import time
from typing import List, Mapping, Optional, Tuple

from repro.core.options import CompilerOptions
from repro.core.passes import (
    AfterPass,
    CompileContext,
    Pass,
    PassManager,
    build_pipeline,
    pipeline_identity,
    reconcile_options,
)
from repro.core.spec import GemmSpec
from repro.runtime.program import CompiledProgram
from repro.sunway.arch import SW26010PRO, ArchSpec


class GemmCompiler:
    """Compile naive GEMM specifications to SW26010Pro athread programs.

    ``replacements`` swaps a named default pass for a custom
    :class:`~repro.core.passes.Pass` instance.
    """

    def __init__(
        self,
        arch: ArchSpec = SW26010PRO,
        options: Optional[CompilerOptions] = None,
        replacements: Optional[Mapping[str, Pass]] = None,
    ) -> None:
        self.arch = arch
        self.options = options or CompilerOptions()
        self.replacements = dict(replacements or {})

    # -- public API ---------------------------------------------------------

    def effective_options(self, spec: GemmSpec) -> CompilerOptions:
        """The reconciled option set this compiler would compile with."""
        return reconcile_options(spec, self.options, self.arch)

    def pipeline_for(self, spec: GemmSpec) -> List[Pass]:
        """The variant-aware pass list for one spec."""
        return build_pipeline(
            spec, self.arch, self.effective_options(spec), self.replacements
        )

    def pipeline_identity_for(self, spec: GemmSpec) -> str:
        return pipeline_identity(self.pipeline_for(spec))

    def compile(
        self, spec: GemmSpec, timeout_s: Optional[float] = None
    ) -> CompiledProgram:
        program, _ = self.compile_with_context(spec, timeout_s=timeout_s)
        return program

    def compile_with_context(
        self,
        spec: GemmSpec,
        after_pass: Optional[AfterPass] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[CompiledProgram, CompileContext]:
        """Compile and hand back the pass context (diagnostics, stats).

        This is the introspection entry point behind ``swgemm compile
        --print-after`` / ``--dump-ir``: ``after_pass(index, pass_, ctx)``
        runs after every pass (see :class:`~repro.core.passes.PassManager`)
        and may render ``ctx.snapshot()``.  ``timeout_s`` sets a
        wall-clock deadline for the whole pipeline
        (:class:`repro.errors.CompileTimeout` on overrun).
        """
        options = self.effective_options(spec)
        passes = self.pipeline_for(spec)
        ctx = CompileContext(spec=spec, arch=self.arch, options=options)
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        PassManager(passes).run(ctx, deadline=deadline, after_pass=after_pass)
        stats = tuple(ctx.stats)
        program = CompiledProgram(
            spec=spec,
            options=options,
            arch=self.arch,
            plan=ctx.plan,
            decomposition=ctx.decomposition,
            cpe_program=ctx.cpe_program,
            codegen_seconds=sum(s.seconds for s in stats),
            pass_stats=stats,
            verification=ctx.verification,
        )
        return program, ctx
