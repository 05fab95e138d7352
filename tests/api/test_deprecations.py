"""No entry point warns: the package ships no deprecated spellings, and
the internal homes of the compiler, executor, service and kernel
selection stay silent under ``-W error::DeprecationWarning``."""

import warnings

import numpy as np

import repro
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import TOY_ARCH


def test_internal_spellings_do_not_warn():
    from repro.codegen.backend import resolve_kernel
    from repro.core.pipeline import GemmCompiler
    from repro.runtime.executor import run_gemm

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        program = GemmCompiler(TOY_ARCH).compile(repro.GemmSpec())
        c, report = run_gemm(
            program, np.ones((32, 16)), np.ones((16, 32)), beta=0.0
        )
        CompileService(ServiceConfig(enabled=False))
        resolve_kernel(TOY_ARCH, repro.CompilerOptions())
    assert np.allclose(c, np.ones((32, 16)) @ np.ones((16, 32)))
