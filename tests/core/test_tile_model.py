"""The analytical tile-size model (§3.1)."""

import pytest

from repro.errors import ConfigurationError, SPMOverflowError
from repro.core.options import CompilerOptions
from repro.core.tile_model import (
    dma_burst_efficiency,
    kernel_efficiency_model,
    plan_for_kernel,
    score_shape,
    search_optimal_shape,
    spm_reserve_bytes,
)
from repro.sunway.arch import SW26010, SW26010PRO, TOY_ARCH, MicroKernelShape


def test_full_plan_has_nine_buffers():
    """§6.3: 1×C + (2 DMA + 2 RMA) × (A + B) = nine local buffers."""
    plan = plan_for_kernel(SW26010PRO, CompilerOptions.full())
    total_slots = sum(b.slots for b in plan.buffers)
    assert total_slots == 9
    assert plan.spm_bytes() == 160 * 1024


def test_plan_fits_256kb_spm():
    plan = plan_for_kernel(SW26010PRO, CompilerOptions.full())
    assert plan.spm_bytes() <= SW26010PRO.spm_bytes - spm_reserve_bytes(SW26010PRO)


def test_chunk_geometry_matches_paper():
    """Each mesh pass executes a 512×512×256 GEMM (§4)."""
    plan = plan_for_kernel(SW26010PRO, CompilerOptions.full())
    assert (plan.chunk_m, plan.chunk_n, plan.k_step) == (512, 512, 256)
    assert plan.strip_factor == 8


def test_no_rma_plan_has_no_broadcast_buffers():
    plan = plan_for_kernel(SW26010PRO, CompilerOptions.with_asm())
    roles = {b.role for b in plan.buffers}
    assert not roles & {"A_bc", "B_bc"}
    assert plan.k_step == 32
    assert plan.strip_factor == 1


def test_no_hiding_plan_single_buffers():
    plan = plan_for_kernel(SW26010PRO, CompilerOptions.with_rma())
    assert all(b.slots == 1 for b in plan.buffers)
    assert sum(b.slots for b in plan.buffers) == 5


def test_plan_rejects_oversized_kernel():
    with pytest.raises(SPMOverflowError):
        plan_for_kernel(
            SW26010PRO, CompilerOptions.full(), MicroKernelShape(128, 128, 64)
        )


def test_rma_on_sw26010_rejected():
    with pytest.raises(ConfigurationError, match="RMA"):
        plan_for_kernel(SW26010, CompilerOptions.full())


def test_sw26010_plan_works_without_rma():
    options = CompilerOptions(enable_rma=False)
    plan = plan_for_kernel(SW26010, options)
    assert plan.spm_bytes() <= SW26010.spm_bytes


def test_toy_plan():
    plan = plan_for_kernel(TOY_ARCH, CompilerOptions.full())
    assert (plan.mt, plan.nt, plan.kt) == (8, 8, 4)
    assert (plan.chunk_m, plan.chunk_n, plan.k_step) == (16, 16, 8)


def test_buffer_lookup():
    plan = plan_for_kernel(SW26010PRO, CompilerOptions.full())
    assert plan.buffer("C").shape == (64, 64)
    assert plan.buffer("A_dma").shape == (2, 64, 32)
    with pytest.raises(ConfigurationError):
        plan.buffer("nonsense")


# -- the analytical search ------------------------------------------------------


def test_model_selects_the_papers_kernel_shape():
    """§3.1/§7.2: 64×64×32 is the best-performing shape, and the model
    agrees without any tuning."""
    best, _scores = search_optimal_shape(SW26010PRO)
    assert (best.mt, best.nt, best.kt) == (64, 64, 32)


def test_model_scores_are_populated():
    _best, scores = search_optimal_shape(SW26010PRO)
    feasible = [s for s in scores if s.feasible]
    assert len(feasible) >= 5
    assert all(s.gflops_per_cpe > 0 for s in feasible)
    # The winner must be kernel-limited — a communication-bound optimum
    # would mean the SPM was being wasted.
    best = max(feasible, key=lambda s: s.gflops_per_cpe)
    assert best.limiter == "kernel"


def test_infeasible_shapes_flagged():
    score = score_shape(SW26010PRO, 256, 256, 64)
    assert not score.feasible


def test_kernel_efficiency_model_shape():
    assert kernel_efficiency_model(32) > kernel_efficiency_model(8)
    assert kernel_efficiency_model(10_000) == pytest.approx(1.0, abs=1e-3)


def test_dma_burst_efficiency():
    assert dma_burst_efficiency(256) == 1.0
    assert dma_burst_efficiency(64) == 0.5


def test_search_fails_on_tiny_spm():
    tiny = SW26010PRO.scaled(spm_bytes=1024)
    with pytest.raises(ConfigurationError):
        search_optimal_shape(tiny)
