"""Distributed GEMM over simulated core groups."""

import numpy as np
import pytest

from repro.core.options import CompilerOptions
from repro.errors import ConfigurationError
from repro.multi.driver import MultiClusterGemm
from repro.sunway.arch import TOY_ARCH


def make(grid=(2, 3)):
    return MultiClusterGemm(grid, arch=TOY_ARCH)


def test_functional_2x3_grid(rng):
    mc = make((2, 3))
    M, N, K = 48, 48, 16
    A = rng.standard_normal((M, K))
    B = rng.standard_normal((K, N))
    C0 = rng.standard_normal((M, N))
    C, report = mc.run(A, B, C0.copy(), alpha=1.5, beta=0.5)
    assert np.allclose(C, 1.5 * A @ B + 0.5 * C0, atol=1e-11)
    assert report.grid == (2, 3)
    assert len(report.per_rank_gflops) == 6
    assert report.seconds > 0


def test_uneven_split_still_exact(rng):
    mc = make((2, 2))
    M, N, K = 37, 29, 11  # nothing divides anything
    A = rng.standard_normal((M, K))
    B = rng.standard_normal((K, N))
    C, _ = mc.run(A, B, None, beta=0.0)
    assert np.allclose(C, A @ B, atol=1e-11)


def test_single_rank_matches_plain(rng):
    mc = make((1, 1))
    A = rng.standard_normal((16, 8))
    B = rng.standard_normal((8, 16))
    C, report = mc.run(A, B, None, beta=0.0)
    assert np.allclose(C, A @ B, atol=1e-12)
    assert report.comm_fraction < 1e-6  # no panels move on one rank


def test_block_bounds_cover_extent():
    mc = make((1, 1))
    bounds = mc._block_bounds(10, 3)
    assert bounds == [(0, 4), (4, 7), (7, 10)]
    assert mc._block_bounds(9, 3) == [(0, 3), (3, 6), (6, 9)]


def test_bad_grid_rejected():
    with pytest.raises(ConfigurationError):
        MultiClusterGemm((0, 2), arch=TOY_ARCH)


def test_estimate_scales_with_grid():
    """Distributing over the six core groups of one SW26010Pro must beat
    one core group on throughput."""
    from repro.sunway.arch import SW26010PRO

    single = MultiClusterGemm((1, 1)).estimate(3072, 3072, 4096)
    six = MultiClusterGemm((2, 3)).estimate(3072, 3072, 4096)
    # Speedup is real but sublinear: the root serialises the panel
    # scatters over the NoC (K-sized panels are 50-100 MB here).
    assert 1.5 * single.gflops < six.gflops < 6.0 * single.gflops
    assert six.comm_seconds > 0
    # A K-heavy shape amortises the panels better.
    six_deep = MultiClusterGemm((2, 3)).estimate(3072, 3072, 16384)
    single_deep = MultiClusterGemm((1, 1)).estimate(3072, 3072, 16384)
    assert six_deep.gflops / single_deep.gflops > six.gflops / single.gflops * 0.9


def test_estimate_divisibility_checked():
    mc = MultiClusterGemm((2, 2))
    with pytest.raises(ConfigurationError):
        mc.estimate(1025, 1024, 1024)


def test_estimate_report_consistency():
    report = MultiClusterGemm((2, 3)).estimate(3072, 3072, 1024)
    assert report.seconds == pytest.approx(
        report.compute_seconds + report.comm_seconds
    )
    assert 0 < report.comm_fraction < 1


def test_construct_and_estimate_compile_once(monkeypatch):
    """The grid's program is its simulator's: constructing a grid and
    estimating on it compiles the kernel once, through the service."""
    from repro.core.pipeline import GemmCompiler
    from repro.service import (
        CompileService,
        get_default_service,
        set_default_service,
    )

    calls = []
    compile_with_context = GemmCompiler.compile_with_context

    def counted(self, *args, **kwargs):
        calls.append(1)
        return compile_with_context(self, *args, **kwargs)

    monkeypatch.setattr(GemmCompiler, "compile_with_context", counted)
    previous = get_default_service()
    set_default_service(CompileService())
    try:
        mc = make((2, 3))
        plan = mc.program.plan
        mc.estimate(2 * plan.chunk_m, 3 * plan.chunk_n, 2 * plan.k_step)
    finally:
        set_default_service(previous)
    assert len(calls) == 1
