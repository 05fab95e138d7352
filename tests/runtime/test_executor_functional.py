"""Functional correctness of compiled programs on the simulated mesh.

These are the reproduction's most important tests: the entire compiler —
tiling, mesh binding, Eq. 1 DMA addressing, RMA broadcast ownership, the
two-level software pipeline, double buffering — must conspire to produce
exactly ``α·A·B + β·C`` when the generated program runs on the simulated
hardware.  A bug anywhere (wrong footprint, wrong parity, missing wait)
shows up as a numeric mismatch or a simulator discipline error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.elementwise import get_elementwise
from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.runtime.executor import run_gemm
from repro.sunway.arch import TOY_ARCH

from tests.conftest import reference_gemm


def run_case(program, rng, M, N, K, alpha=1.0, beta=1.0, batch=None, **kw):
    if batch:
        A = rng.standard_normal((batch, M, K))
        B = rng.standard_normal((batch, K, N))
        C0 = rng.standard_normal((batch, M, N))
    else:
        A = rng.standard_normal((M, K))
        B = rng.standard_normal((K, N))
        C0 = rng.standard_normal((M, N))
    C, report = run_gemm(program, A, B, C0.copy(), alpha=alpha, beta=beta, **kw)
    return A, B, C0, C, report


@pytest.mark.parametrize("variant", ["baseline", "asm", "rma", "full"])
def test_all_variants_numerically_exact(toy_programs, rng, variant):
    program = toy_programs[variant]
    A, B, C0, C, _ = run_case(program, rng, 32, 48, 24, alpha=1.5, beta=0.5)
    assert np.allclose(C, reference_gemm(A, B, C0, 1.5, 0.5), atol=1e-12)


@pytest.mark.parametrize(
    "alpha,beta",
    [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (2.5, -0.75), (-1.0, 3.0)],
)
def test_alpha_beta_combinations(toy_full_program, rng, alpha, beta):
    A, B, C0, C, _ = run_case(toy_full_program, rng, 16, 16, 8,
                              alpha=alpha, beta=beta)
    assert np.allclose(C, reference_gemm(A, B, C0, alpha, beta), atol=1e-12)


def test_single_chunk_exact(toy_full_program, rng):
    A, B, C0, C, report = run_case(toy_full_program, rng, 16, 16, 8)
    assert np.allclose(C, reference_gemm(A, B, C0), atol=1e-12)
    # One chunk = mesh_m x mesh_n x k_step on the toy arch.
    assert report.stats["kernel_calls"] == 4 * 2  # 4 CPEs x 2 inner slices


def test_multi_chunk_grid(toy_full_program, rng):
    A, B, C0, C, _ = run_case(toy_full_program, rng, 48, 64, 40)
    assert np.allclose(C, reference_gemm(A, B, C0), atol=1e-12)


def test_padding_of_awkward_shapes(toy_full_program, rng):
    for shape in [(1, 1, 1), (17, 19, 13), (16, 16, 9), (15, 33, 8)]:
        A, B, C0, C, report = run_case(toy_full_program, rng, *shape)
        assert np.allclose(C, reference_gemm(A, B, C0), atol=1e-12), shape
        assert report.padded_flops >= report.useful_flops


def test_rectangular_extremes(toy_full_program, rng):
    A, B, C0, C, _ = run_case(toy_full_program, rng, 16, 80, 8)
    assert np.allclose(C, reference_gemm(A, B, C0), atol=1e-12)
    A, B, C0, C, _ = run_case(toy_full_program, rng, 80, 16, 64)
    assert np.allclose(C, reference_gemm(A, B, C0), atol=1e-12)


def test_batched_execution(rng):
    spec = GemmSpec(batch_param="BS")
    program = GemmCompiler(TOY_ARCH, CompilerOptions.full().with_(batch=True)).compile(spec)
    A, B, C0, C, report = run_case(program, rng, 16, 32, 16, batch=4)
    assert np.allclose(C, reference_gemm(A, B, C0), atol=1e-12)
    # The mesh is spawned exactly once for the whole batch (§8.3).
    assert report.stats["spawns"] == 1


def test_prologue_fusion_numerics(rng):
    spec = GemmSpec(prologue_func="quant")
    program = GemmCompiler(
        TOY_ARCH, CompilerOptions.full().with_(fusion="prologue")
    ).compile(spec)
    A, B, C0, C, _ = run_case(program, rng, 32, 32, 16)
    quant = get_elementwise("quant").numpy_fn
    assert np.allclose(C, quant(A) @ B + C0, atol=1e-12)


def test_prologue_does_not_modify_main_memory_A(rng):
    """Fusion recomputes the quantisation in SPM; the A matrix in main
    memory must stay untouched (the xMath baseline, by contrast, rewrites
    it on the MPE)."""
    spec = GemmSpec(prologue_func="quant")
    program = GemmCompiler(
        TOY_ARCH, CompilerOptions.full().with_(fusion="prologue")
    ).compile(spec)
    A = rng.standard_normal((16, 8))
    A_copy = A.copy()
    B = rng.standard_normal((8, 16))
    run_gemm(program, A, B, np.zeros((16, 16)), beta=0.0)
    assert (A == A_copy).all()


@pytest.mark.parametrize("func", ["relu", "sigmoid", "tanh"])
def test_epilogue_fusion_numerics(rng, func):
    spec = GemmSpec(epilogue_func=func)
    program = GemmCompiler(
        TOY_ARCH, CompilerOptions.full().with_(fusion="epilogue", epilogue_func=func)
    ).compile(spec)
    A, B, C0, C, _ = run_case(program, rng, 16, 16, 16, alpha=0.1)
    fn = get_elementwise(func).numpy_fn
    assert np.allclose(C, fn(0.1 * A @ B + C0), atol=1e-12)


def test_scalar_naive_interpreter_agrees_with_vectorised(toy_programs, rng):
    """The scalar Python interpretation of the --no-use-asm body is the
    oracle for the vectorised fast path."""
    program = toy_programs["baseline"]
    A = rng.standard_normal((16, 8))
    B = rng.standard_normal((8, 16))
    C_vec, _ = run_gemm(program, A, B, np.zeros((16, 16)), beta=0.0)
    C_scalar, _ = run_gemm(
        program, A, B, np.zeros((16, 16)), beta=0.0, scalar_naive=True
    )
    assert np.allclose(C_vec, C_scalar, atol=1e-12)


def test_timing_only_mode_runs_without_data(toy_full_program):
    from repro.runtime.executor import Executor
    from repro.sunway.mesh import Cluster

    cluster = Cluster(TOY_ARCH)
    cluster.memory.alloc("A", (16, 16))
    cluster.memory.alloc("B", (16, 16))
    cluster.memory.alloc("C", (16, 16))
    executor = Executor(toy_full_program, cluster, move_data=False)
    report = executor.run({"M": 16, "N": 16, "K": 16})
    assert report.elapsed_seconds > 0


def test_charge_compute_accumulates():
    from repro.runtime.executor import charge_compute
    from repro.sunway.mesh import Cluster

    cluster = Cluster(TOY_ARCH)
    trace = cluster.enable_tracing()
    cpe = cluster.cpe(0, 0)
    charge_compute(cluster, cpe, 1e-6)
    charge_compute(cluster, cpe, 2e-6, kind="blockop")
    assert cpe.stats["compute_seconds"] == pytest.approx(3e-6)
    assert cpe.clock == pytest.approx(3e-6)
    assert [(e.kind, e.who) for e in trace.events] == [
        ("kernel", "CPE(0,0)"), ("blockop", "CPE(0,0)"),
    ]


def test_variant_timings_are_ordered(toy_programs, rng):
    """The fully optimised variant must be the fastest.

    At toy scale the 256-byte messages are startup-dominated, so the
    intermediate variants do not separate (RMA's barriers can even cost
    more than they save on a 2×2 mesh); the full Fig. 13 staircase is
    asserted at SW26010Pro scale in tests/integration/test_paper_claims.py."""
    times = {}
    for name, program in toy_programs.items():
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        _, report = run_gemm(program, A, B, np.zeros((32, 32)), beta=0.0)
        times[name] = report.elapsed_seconds
    slowest_others = min(t for n, t in times.items() if n != "full")
    assert times["full"] < slowest_others


def test_report_gflops_accounting(toy_full_program, rng):
    A, B, C0, C, report = run_case(toy_full_program, rng, 16, 16, 8)
    expected = 2.0 * 16 * 16 * 8
    assert report.useful_flops == expected
    assert report.gflops == pytest.approx(
        expected / report.elapsed_seconds / 1e9
    )


def test_shape_mismatch_rejected(toy_full_program, rng):
    A = rng.standard_normal((16, 8))
    B = rng.standard_normal((9, 16))  # K mismatch
    with pytest.raises(Exception, match="mismatch"):
        run_gemm(toy_full_program, A, B, None)


def test_direct_executor_requires_padded_shape(toy_full_program):
    from repro.errors import ExecutionError
    from repro.runtime.executor import Executor

    executor = Executor(toy_full_program)
    with pytest.raises(ExecutionError, match="zero-pads"):
        executor.run({"M": 10, "N": 16, "K": 8})


def test_interpreters_are_freed_without_the_cycle_collector(toy_full_program):
    """The printed program's globals hold its interpreter's leaf calls;
    neither the executor (and its cluster) nor the replay machine may end
    up in a reference cycle, or each run's mesh lingers until a GC pass."""
    import gc
    import weakref

    from repro.runtime.executor import Executor
    from repro.sunway.mesh import Cluster
    from repro.verify import replay_schedule

    program = toy_full_program
    gc.disable()
    try:
        cluster = Cluster(TOY_ARCH)
        for name, shape in (("A", (16, 8)), ("B", (8, 16)), ("C", (16, 16))):
            cluster.memory.alloc(name, shape)
        executor = Executor(program, cluster, move_data=False)
        del cluster
        executor.run({"M": 16, "N": 16, "K": 8})
        alive = [weakref.ref(executor), weakref.ref(executor.cluster)]
        del executor
        result = replay_schedule(program.cpe_program, program.plan, program.spec)
        assert result.completed
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


@settings(max_examples=12, deadline=None)
@given(
    M=st.integers(1, 40),
    N=st.integers(1, 40),
    K=st.integers(1, 24),
    alpha=st.floats(-2, 2, allow_nan=False),
    beta=st.floats(-2, 2, allow_nan=False),
)
def test_prop_random_shapes_and_scalars(toy_full_program, M, N, K, alpha, beta):
    rng = np.random.default_rng(M * 10_007 + N * 101 + K)
    A = rng.standard_normal((M, K))
    B = rng.standard_normal((K, N))
    C0 = rng.standard_normal((M, N))
    C, _ = run_gemm(toy_full_program, A, B, C0.copy(), alpha=alpha, beta=beta)
    assert np.allclose(C, reference_gemm(A, B, C0, alpha, beta), atol=1e-10)
