"""The timed performance simulator and its chunk extrapolation."""

import pytest

from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.errors import ConfigurationError
from repro.runtime.simulator import PerformanceSimulator
from repro.sunway.arch import SW26010PRO, TOY_ARCH


@pytest.fixture(scope="module")
def sim():
    return PerformanceSimulator(SW26010PRO)


def test_chunk_cache_reused(sim):
    options = CompilerOptions.full()
    first = sim.chunk_seconds(1024, options)
    second = sim.chunk_seconds(1024, options)
    assert first == second
    assert (options, sim._default_spec(options), 1024) in sim._chunk_cache


def test_extrapolation_over_chunks(sim):
    """Gflops are chunk-count invariant up to spawn amortisation: a
    2048×2048 run is 16 chunks of the 512×512 pipeline."""
    options = CompilerOptions.full()
    small = sim.simulate(512, 512, 1024, options)
    large = sim.simulate(2048, 2048, 1024, options)
    assert large.n_chunks == 16 * small.n_chunks
    assert large.seconds == pytest.approx(
        SW26010PRO.spawn_us * 1e-6 + 16 * small.chunk_seconds, rel=1e-9
    )
    assert large.gflops >= small.gflops  # spawn amortises


def test_efficiency_grows_with_k(sim):
    """⌈K/256⌉−1 overlaps: the DMA hiding benefit grows with K (§8.1)."""
    options = CompilerOptions.full()
    g1 = sim.simulate(512, 512, 512, options).gflops
    g2 = sim.simulate(512, 512, 2048, options).gflops
    g3 = sim.simulate(512, 512, 8192, options).gflops
    assert g1 < g2 < g3


def test_breakdown_ordering(sim):
    results = sim.breakdown(1024, 1024, 2048)
    assert (
        results["dma-only"].gflops
        < results["+asm"].gflops
        < results["+rma"].gflops
        < results["+hiding"].gflops
    )


def test_batched_amortises_spawn(sim):
    options = CompilerOptions.full().with_(batch=True)
    single = sim.simulate(512, 512, 1024, options, batch=1)
    batched = sim.simulate(512, 512, 1024, options, batch=8)
    # One spawn either way; eight times the work.
    assert batched.seconds == pytest.approx(
        single.seconds + 7 * single.n_chunks * single.chunk_seconds, rel=1e-9
    )
    assert batched.gflops > single.gflops


def test_divisibility_enforced(sim):
    with pytest.raises(ConfigurationError, match="multiple"):
        sim.simulate(500, 512, 1024)
    with pytest.raises(ConfigurationError, match="multiple"):
        sim.simulate(512, 512, 1000)


def test_result_fields(sim):
    perf = sim.simulate(512, 512, 1024)
    assert perf.variant == "+hiding"
    assert perf.peak_fraction == pytest.approx(
        perf.gflops / SW26010PRO.peak_gflops
    )
    assert "512x512x1024" in str(perf)


def test_fusion_variants_simulate(sim):
    pro = sim.simulate(512, 512, 1024, CompilerOptions.full().with_(fusion="prologue"))
    epi = sim.simulate(512, 512, 1024, CompilerOptions.full().with_(fusion="epilogue"))
    plain = sim.simulate(512, 512, 1024, CompilerOptions.full())
    assert pro.gflops < plain.gflops  # recomputation costs something
    assert abs(epi.gflops - plain.gflops) / plain.gflops < 0.05
    assert "prologue" in pro.variant


@pytest.mark.parametrize(
    "spec,K",
    [(GemmSpec(trans_a=True), 24), (GemmSpec(trans_b=True), 8)],
    ids=["trans-a", "trans-b"],
)
def test_transposed_chunks_are_timed_in_storage_layout(spec, K):
    """The chunk's operands are allocated as the spec stores them (A is
    K×M under trans_a, B is N×K under trans_b), so a K that differs from
    the 16×16 toy chunk no longer reads out of bounds."""
    result = PerformanceSimulator(TOY_ARCH).simulate(16, 16, K, spec=spec)
    assert result.chunk_seconds > 0
