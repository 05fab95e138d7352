"""Rank-level failures in the multi-cluster driver: dead ranks are
routed around (correct result + degraded-mode report), stragglers and
link faults cost simulated time, and total failure raises."""

import numpy as np
import pytest

from repro.core.options import CompilerOptions
from repro.errors import RankFailureError, TransientFaultError
from repro.faults import FaultPolicy, RetryPolicy
from repro.multi.comm import SimComm
from repro.multi.driver import MultiClusterGemm
from repro.sunway.arch import TOY_ARCH


def make(grid=(2, 2), policy=None, retry=None):
    return MultiClusterGemm(
        grid, arch=TOY_ARCH, fault_policy=policy, retry_policy=retry
    )


def run_gemm_case(mc, rng_seed=2, M=48, N=48, K=16):
    rng = np.random.default_rng(rng_seed)
    A = rng.standard_normal((M, K))
    B = rng.standard_normal((K, N))
    C, report = mc.run(A, B, None, beta=0.0)
    return A, B, C, report


def test_dead_rank_yields_correct_result_and_degraded_report():
    policy = FaultPolicy(enabled=True, seed=0, dead_ranks=(1,))
    A, B, C, report = run_gemm_case(make((2, 2), policy))
    assert np.allclose(C, A @ B, atol=1e-11)
    assert report.degraded
    assert report.failed_ranks == (1,)
    assert 1 in report.reassigned
    assert report.reassigned[1] not in report.failed_ranks
    assert "degraded" in report.degraded_summary()
    assert "rank 1" in report.degraded_summary()


def test_healthy_run_reports_no_degradation():
    A, B, C, report = run_gemm_case(make((2, 2)))
    assert not report.degraded
    assert report.failed_ranks == ()
    assert report.degraded_summary() == "all ranks healthy"


def test_multiple_dead_ranks_round_robin_over_healthy():
    policy = FaultPolicy(enabled=True, seed=0, dead_ranks=(0, 2))
    A, B, C, report = run_gemm_case(make((2, 2), policy))
    assert np.allclose(C, A @ B, atol=1e-11)
    assert report.failed_ranks == (0, 2)
    assert set(report.reassigned) == {0, 2}
    assert set(report.reassigned.values()) <= {1, 3}


def test_dead_rank_slows_the_run():
    """The replacement computes two blocks serially, so the degraded run
    must take longer than the healthy one."""
    _, _, _, healthy = run_gemm_case(make((2, 2)))
    policy = FaultPolicy(enabled=True, seed=0, dead_ranks=(3,))
    _, _, _, degraded = run_gemm_case(make((2, 2), policy))
    assert degraded.seconds > healthy.seconds


def test_all_ranks_dead_raises():
    policy = FaultPolicy(enabled=True, seed=0, dead_ranks=(0, 1, 2, 3))
    mc = make((2, 2), policy)
    rng = np.random.default_rng(0)
    with pytest.raises(RankFailureError):
        mc.run(rng.standard_normal((48, 16)), rng.standard_normal((16, 48)))


def test_straggler_rank_extends_elapsed_time():
    _, _, _, fast = run_gemm_case(make((2, 2)))
    policy = FaultPolicy(
        enabled=True, seed=0, straggler_ranks=(2,), straggler_factor=8.0
    )
    A, B, C, slow = run_gemm_case(make((2, 2), policy))
    assert np.allclose(C, A @ B, atol=1e-11)  # slow, never wrong
    assert slow.seconds > fast.seconds
    assert not slow.degraded  # stragglers are not failures


def test_comm_faults_retry_and_stay_correct():
    policy = FaultPolicy(enabled=True, seed=1, comm_fault_rate=0.3)
    mc = make((2, 2), policy)
    A, B, C, report = run_gemm_case(mc)
    assert np.allclose(C, A @ B, atol=1e-11)
    assert mc.comm.stats["retries"] > 0


def test_comm_retry_exhaustion_raises():
    comm = SimComm(
        2,
        fault_policy=FaultPolicy(enabled=True, seed=0, comm_fault_rate=1.0),
        retry_policy=RetryPolicy(max_retries=1),
    )
    with pytest.raises(TransientFaultError) as exc_info:
        comm._charge(0, 1, 4096)
    assert "retry budget of 1" in str(exc_info.value)


def test_dead_endpoint_transfers_are_skipped():
    comm = SimComm(3, fault_policy=FaultPolicy(enabled=True, dead_ranks=(1,)))
    comm._charge(0, 1, 1 << 20)
    assert comm.stats["messages"] == 0
    assert comm.clocks[0] == 0.0
    comm._charge(0, 2, 1 << 20)
    assert comm.stats["messages"] == 1


def test_barrier_ignores_dead_ranks():
    comm = SimComm(3, fault_policy=FaultPolicy(enabled=True, dead_ranks=(2,)))
    comm.advance(0, 5.0)
    comm.barrier()
    assert comm.clocks[0] == comm.clocks[1] == 5.0
    assert comm.clocks[2] == 0.0  # frozen, not dragged to the release


def test_policy_rides_on_options():
    """The driver picks the fault plane off CompilerOptions when no
    explicit policy is given — the path the CLI uses."""
    policy = FaultPolicy(enabled=True, seed=0, dead_ranks=(1,))
    options = CompilerOptions.full().with_(
        fault_policy=policy, retry_policy=RetryPolicy()
    )
    mc = MultiClusterGemm((2, 2), arch=TOY_ARCH, options=options)
    A, B, C, report = run_gemm_case(mc)
    assert np.allclose(C, A @ B, atol=1e-11)
    assert report.failed_ranks == (1,)
