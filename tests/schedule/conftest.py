"""Shared helpers for the schedule-IR test suite.

``fresh_context`` compiles one recipe pipeline (admitted by its
terminal verify pass) and hands back the live compile context — the raw
material :func:`repro.schedule.apply_rewrite` operates on.  Rewrites mutate the
decomposition in place, so every test that rewrites asks for a fresh
one.  ``prove`` then finishes that context the way the pipeline does:
its own AST generation, then its verify pass, which raises
:class:`~repro.errors.KernelAdmissionError` on a refusal.
"""

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.core.passes import AstGenerationPass, VerificationPass
from repro.core.pipeline import GemmCompiler
from repro.sunway.arch import SW26010PRO, TOY_ARCH


def fresh_context(arch=TOY_ARCH, options=None, spec=None):
    """The compile context of an admitted recipe compile."""
    options = options or CompilerOptions.full()
    spec = spec or GemmSpec()
    compiler = GemmCompiler(arch, options)
    _, ctx = compiler.compile_with_context(spec)
    return ctx


def prove(ctx):
    """Lower ``ctx``'s current tree and admit it; returns the report."""
    AstGenerationPass().run(ctx)
    VerificationPass().run(ctx)
    return ctx.verification


@pytest.fixture
def toy_context():
    return fresh_context(TOY_ARCH)


@pytest.fixture
def pro_context():
    return fresh_context(SW26010PRO)
