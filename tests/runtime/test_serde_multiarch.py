"""Serde round trips for the multi-arch surface (PR 8).

The arch became a request degree of freedom: every registered
:class:`~repro.sunway.arch.ArchSpec` (with its new register-file
fields), :class:`~repro.sunway.arch.MicroKernelShape`, and
``CompilerOptions.kernel_backend`` must survive the JSON round trip the
artifact store performs.
"""

import json

import numpy as np
import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.runtime import serde
from repro.runtime.executor import run_gemm
from repro.runtime.program import CompiledProgram
from repro.sunway.arch import (
    TOY_ARCH,
    MicroKernelShape,
    all_archs,
)


def _round_trip(obj):
    return serde.decode(json.loads(json.dumps(serde.encode(obj))))


@pytest.mark.parametrize("name", sorted(all_archs()))
def test_every_registered_arch_round_trips(name):
    arch = all_archs()[name]
    copy = _round_trip(arch)
    assert copy == arch
    # The PR-8 register-file fields survive explicitly, not by default.
    assert copy.simd_doubles == arch.simd_doubles
    assert copy.vector_registers == arch.vector_registers
    assert copy.micro_kernel == arch.micro_kernel


def test_micro_kernel_shape_round_trips():
    shape = MicroKernelShape(32, 128, 16)
    assert _round_trip(shape) == shape


def test_options_with_kernel_backend_round_trip():
    options = CompilerOptions.full().with_(kernel_backend="parametric")
    copy = _round_trip(options)
    assert copy == options
    assert copy.kernel_backend == "parametric"


def test_parametric_backend_program_round_trips_and_executes(rng):
    """A compile steered to the generated kernel reloads and runs
    numerically identical to the original."""
    options = CompilerOptions.full().with_(kernel_backend="parametric")
    original = GemmCompiler(TOY_ARCH, options).compile(GemmSpec())
    copy = CompiledProgram.from_dict(
        json.loads(json.dumps(original.to_dict()))
    )
    assert copy.options.kernel_backend == "parametric"
    assert copy.cpe_source() == original.cpe_source()
    assert "gen_dgemm_" in copy.cpe_source()
    M, N, K = copy.padded_shape(1, 1, 1)
    A = rng.random((M, K))
    B = rng.random((K, N))
    C = np.zeros((M, N))
    out_copy, _ = run_gemm(copy, A, B, C.copy(), beta=0.0)
    out_orig, _ = run_gemm(original, A, B, C.copy(), beta=0.0)
    np.testing.assert_array_equal(out_copy, out_orig)
    np.testing.assert_allclose(out_copy, A @ B, rtol=1e-12)
