"""The xMath baseline: numerics and the empirical performance model."""

import numpy as np
import pytest

from repro.codegen.elementwise import get_elementwise
from repro.sunway.arch import SW26010PRO, TOY_ARCH
from repro.xmath.library import XMathLibrary
from repro.xmath.perfmodel import (
    XMATH_DISPATCH_US,
    xmath_efficiency,
    xmath_gflops,
    xmath_seconds,
)


# -- functional -------------------------------------------------------------


def test_dgemm_numerics():
    rng = np.random.default_rng(0)
    lib = XMathLibrary()
    A = rng.standard_normal((8, 6))
    B = rng.standard_normal((6, 10))
    C = rng.standard_normal((8, 10))
    C0 = C.copy()
    lib.dgemm(A, B, C, alpha=1.5, beta=-0.5)
    assert np.allclose(C, 1.5 * A @ B - 0.5 * C0)
    assert lib.calls[0].kind == "dgemm"
    assert lib.elapsed > 0


def test_dgemm_shape_check():
    lib = XMathLibrary()
    with pytest.raises(ValueError):
        lib.dgemm(np.zeros((4, 4)), np.zeros((5, 4)), np.zeros((4, 4)))


def test_fusion_baselines_numerics():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 8))
    B = rng.standard_normal((8, 8))
    relu = get_elementwise("relu").numpy_fn

    lib = XMathLibrary()
    C = np.zeros((8, 8))
    lib.gemm_with_epilogue(A, B, C, "relu", beta=0.0)
    assert np.allclose(C, relu(A @ B))
    # The MPE stage was logged and charged.
    assert any(c.kind == "mpe_relu" for c in lib.calls)


def test_mpe_elementwise():
    """The MPE applies the function in place at the arch's scalar rate."""
    lib = XMathLibrary(TOY_ARCH)
    data = np.array([[-1.0, 2.0]])
    seconds = lib.mpe_elementwise(data, "relu")
    assert (data == [[0.0, 2.0]]).all()
    assert seconds == pytest.approx(2 / TOY_ARCH.mpe_elementwise_rate)
    assert lib.elapsed == seconds


# -- performance model -----------------------------------------------------------


def test_pow2_k_is_fast():
    assert xmath_efficiency(8192, 8192, 8192) > 0.8
    assert xmath_efficiency(4096, 16384, 16384) > 0.9


def test_best_point_caps_at_9353():
    """§8.2: xMath's best is 93.53% of peak at 4096×16384×16384."""
    assert xmath_efficiency(4096, 16384, 16384) <= 0.9353 + 1e-9


def test_non_pow2_k_degrades():
    """§8.2: under 1500 Gflops for 7680³/10240³/15360³; 42.25% at
    8192×8192×15360."""
    for n in (7680, 10240, 15360):
        assert xmath_gflops(n, n, n) < 1500
    worst = xmath_gflops(8192, 8192, 15360) / SW26010PRO.peak_gflops
    assert worst == pytest.approx(0.4225, abs=0.05)


def test_small_squares_stay_strong():
    """§8.2: xMath wins the four leftmost square shapes."""
    for n in (1024, 2048, 4096):
        assert xmath_efficiency(n, n, n) >= 0.79


def test_mild_non_pow2_is_only_mildly_slower():
    assert 0.7 < xmath_efficiency(6144, 6144, 6144) < 0.82


def test_batched_dispatch_penalty():
    one = xmath_gflops(1024, 1024, 8192, batch=1)
    many = xmath_gflops(1024, 1024, 8192, batch=16)
    assert many < one
    # Per-call overhead: batch seconds exceed batch × single seconds.
    assert xmath_seconds(1024, 1024, 8192, batch=16) > 16 * xmath_seconds(
        1024, 1024, 8192
    )


def test_jitter_is_deterministic():
    assert xmath_efficiency(5120, 5120, 5120) == xmath_efficiency(5120, 5120, 5120)


def test_dispatch_constant_positive():
    assert XMATH_DISPATCH_US > 0
