"""Single-precision GEMM (SGEMM) — §2's "other GEMM variants"."""

import numpy as np
import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.errors import ConfigurationError
from repro.runtime.executor import run_gemm
from repro.sunway.arch import SW26010PRO, TOY_ARCH


def sgemm_program(arch=TOY_ARCH, options=None):
    return GemmCompiler(arch, options or CompilerOptions.full()).compile(
        GemmSpec(dtype="float32")
    )


def test_sgemm_numerics(rng):
    program = sgemm_program()
    A = rng.standard_normal((32, 16)).astype(np.float32)
    B = rng.standard_normal((16, 32)).astype(np.float32)
    C0 = rng.standard_normal((32, 32)).astype(np.float32)
    C, _ = run_gemm(program, A, B, C0.astype(np.float64), alpha=1.5, beta=0.5)
    reference = 1.5 * A.astype(np.float64) @ B + 0.5 * C0
    # Single-precision accumulation: looser tolerance.
    assert np.allclose(C, reference, atol=1e-4)


def test_sgemm_spm_footprint_is_half():
    d = GemmCompiler(SW26010PRO, CompilerOptions.full()).compile(GemmSpec())
    s = GemmCompiler(SW26010PRO, CompilerOptions.full()).compile(
        GemmSpec(dtype="float32")
    )
    assert s.spm_bytes() == d.spm_bytes() // 2
    assert s.spm_bytes() == 80 * 1024


def test_sgemm_prints_float_buffers():
    program = GemmCompiler(SW26010PRO, CompilerOptions.full()).compile(
        GemmSpec(dtype="float32")
    )
    src = program.cpe_source()
    assert "__thread_local float local_C[64][64];" in src
    assert "__thread_local double" not in src


def test_sgemm_is_faster_than_dgemm(rng):
    """Twice the SIMD lanes and half the bytes: the simulated SGEMM must
    beat DGEMM on the same logical shape."""
    d_prog = GemmCompiler(TOY_ARCH, CompilerOptions.full()).compile(GemmSpec())
    s_prog = sgemm_program()
    A = rng.standard_normal((32, 32))
    B = rng.standard_normal((32, 32))
    _, d_rep = run_gemm(d_prog, A, B, np.zeros((32, 32)), beta=0.0)
    _, s_rep = run_gemm(s_prog, A, B, np.zeros((32, 32)), beta=0.0)
    assert s_rep.elapsed_seconds < d_rep.elapsed_seconds


def test_sgemm_moves_half_the_bytes(rng):
    """DMA and RMA traffic are both counted at the element width: on the
    same shape SGEMM moves exactly half of DGEMM's bytes."""
    d_prog = GemmCompiler(TOY_ARCH, CompilerOptions.full()).compile(GemmSpec())
    s_prog = sgemm_program()
    A = rng.standard_normal((32, 32))
    B = rng.standard_normal((32, 32))
    _, d_rep = run_gemm(d_prog, A, B, np.zeros((32, 32)), beta=0.0)
    _, s_rep = run_gemm(s_prog, A, B, np.zeros((32, 32)), beta=0.0)
    assert s_rep.stats["rma_bytes"] > 0
    assert 2 * s_rep.stats["rma_bytes"] == d_rep.stats["rma_bytes"]
    assert 2 * s_rep.stats["dma_bytes"] == d_rep.stats["dma_bytes"]


def test_invalid_dtype_rejected():
    with pytest.raises(ConfigurationError):
        GemmSpec(dtype="float16")


def test_sgemm_with_fusion(rng):
    spec = GemmSpec(dtype="float32", epilogue_func="relu")
    program = GemmCompiler(
        TOY_ARCH, CompilerOptions.full().with_(fusion="epilogue", epilogue_func="relu")
    ).compile(spec)
    A = rng.standard_normal((16, 16)).astype(np.float32)
    B = rng.standard_normal((16, 16)).astype(np.float32)
    C, _ = run_gemm(program, A, B, None, beta=0.0)
    reference = np.maximum(A.astype(np.float64) @ B, 0.0)
    assert np.allclose(C, reference, atol=1e-4)
