"""Ablations beyond the paper's own breakdown.

DESIGN.md calls out the design choices worth isolating:

* the analytical tile-size model (is 64×64×32 really the modelled
  optimum, and by how much does an off-model shape lose?);
* the strip-mine factor (mesh-width slices are what make the RMA scheme
  work);
* single vs double buffering at each pipeline level (already covered by
  the +rma variant) and the SW26010 predecessor configuration;
* simulator-vs-analytical-model agreement across the variant matrix.
"""

import pytest

from repro.bench.harness import cache_ablation
from repro.bench.report import print_figure
from repro.core.options import CompilerOptions
from repro.core.tile_model import plan_for_kernel, score_shape, search_optimal_shape
from repro.errors import SPMOverflowError
from repro.runtime.analytical import predict_gflops
from repro.sunway.arch import SW26010, SW26010PRO, MicroKernelShape


def test_tile_model_margin(benchmark):
    """The chosen shape must beat the runner-up on the model's score."""
    best, scores = benchmark(lambda: search_optimal_shape(SW26010PRO))
    feasible = sorted(
        (s for s in scores if s.feasible),
        key=lambda s: -s.gflops_per_cpe,
    )
    assert (best.mt, best.nt, best.kt) == (64, 64, 32)
    margin = feasible[0].gflops_per_cpe / feasible[1].gflops_per_cpe
    print(f"\ntile-model top-5:")
    for s in feasible[:5]:
        print(f"  {s.shape}: {s.gflops_per_cpe:6.2f} Gflops/CPE ({s.limiter})")
    assert margin > 1.05


def test_off_model_shapes_lose(benchmark):
    """Halving or doubling the kernel depth costs modelled throughput."""
    scores = benchmark(
        lambda: {
            kt: score_shape(SW26010PRO, 64, 64, kt).gflops_per_cpe
            for kt in (8, 16, 32, 64)
        }
    )
    assert scores[32] > scores[16] > scores[8]
    # kt=64 does not even fit the SPM with nine buffers.
    with pytest.raises(SPMOverflowError):
        plan_for_kernel(
            SW26010PRO, CompilerOptions.full(), MicroKernelShape(64, 64, 64)
        )


def test_strip_factor_must_match_mesh(benchmark):
    """The k tile loop is strip-mined by exactly the mesh width: each CPE
    owns one slice per chunk, so the broadcast schedule covers all eight
    slices (§3.2)."""
    plan = benchmark(lambda: plan_for_kernel(SW26010PRO, CompilerOptions.full()))
    assert plan.strip_factor == SW26010PRO.mesh_rows == 8
    assert plan.k_step == plan.kt * plan.strip_factor


def test_sw26010_configuration(benchmark):
    """The predecessor (64 KB SPM, no RMA): the same pipeline compiles
    with a smaller kernel and DMA-only communication — the portability
    §9 claims over the manual approaches."""
    options = CompilerOptions(enable_rma=False)
    plan = benchmark(lambda: plan_for_kernel(SW26010, options))
    assert plan.spm_bytes() <= SW26010.spm_bytes
    assert not plan.use_rma


def test_double_buffering_value(benchmark):
    """Analytical ablation: switching off the second buffer set exposes
    the full DMA latency (the 1.76× step of Fig. 13)."""
    ratio = benchmark(
        lambda: predict_gflops(4096, 4096, 4096, CompilerOptions.full())
        / predict_gflops(4096, 4096, 4096, CompilerOptions.with_rma())
    )
    assert 1.3 < ratio < 2.6


def test_compile_cache_speedup():
    """Service ablation: the same kernel sweep with the compilation cache
    on vs off.  With the cache, each distinct key compiles exactly once
    and every warm pass is served from memory — the wall-clock table goes
    to the CI log so the speedup stays visible."""
    result = cache_ablation(passes=3)
    print_figure(
        result, ["pass", "kernels", "cache_off_ms", "cache_on_ms", "speedup"]
    )
    kernels = result.aggregate["kernels"]
    # cache off recompiles the whole sweep every pass...
    assert result.aggregate["compiles_off"] == kernels * 3
    # ...the service compiles each distinct key exactly once...
    assert result.aggregate["compiles_on"] == kernels
    # ...and warm passes beat recompilation by a wide margin.
    assert result.aggregate["speedup_warm"] > 2.0


def test_rma_value_grows_with_mesh_bandwidth_pressure(benchmark):
    """Analytical ablation: the RMA step is exactly the 8× DMA-traffic
    reduction, so its value collapses if main-memory bandwidth were 8×
    higher."""

    def ratios():
        normal = predict_gflops(
            2048, 2048, 4096, CompilerOptions.with_rma()
        ) / predict_gflops(2048, 2048, 4096, CompilerOptions.with_asm())
        fat_memory = SW26010PRO.scaled(dma_bandwidth_gbs=8 * 48.0)
        fat = predict_gflops(
            2048, 2048, 4096, CompilerOptions.with_rma(), arch=fat_memory
        ) / predict_gflops(
            2048, 2048, 4096, CompilerOptions.with_asm(), arch=fat_memory
        )
        return normal, fat

    normal, fat = benchmark(ratios)
    assert normal > 2.0
    assert fat < normal * 0.7
