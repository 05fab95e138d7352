"""Subprocess isolation: crash containment, deadlines, the breaker.

The circuit-breaker state machine is exercised deterministically with an
injected clock (the quotas convention); the worker-pool tests run real
subprocesses against the toy architecture, with crashes and hangs
injected through the seeded fault plane — the same streams the chaos
suite uses, so a 100 %-rate policy makes the failure deterministic.
"""

import json

import pytest

from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.errors import (
    CompileTimeout,
    ConfigurationError,
    PoisonedKernelError,
    WorkerCrashError,
)
from repro.faults import FaultPolicy
from repro.serve.isolation import CircuitBreaker, ProcessIsolation
from repro.service.keys import cache_key
from repro.sunway import TOY_ARCH

CRASH = CompilerOptions(
    fault_policy=FaultPolicy(enabled=True, seed=1, compile_crash_rate=1.0)
)
HANG = CompilerOptions(
    fault_policy=FaultPolicy(
        enabled=True, seed=1, compile_hang_rate=1.0, compile_hang_s=30.0
    )
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- circuit breaker (deterministic, injected clock) --------------------------


def test_breaker_opens_at_threshold_and_half_opens_after_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=2, cooldown_s=10.0, clock=clock)
    breaker.check("k")  # closed: no strikes yet
    assert breaker.record_failure("k") == 1
    breaker.check("k")  # one strike is still below the threshold
    assert breaker.record_failure("k") == 2
    with pytest.raises(PoisonedKernelError) as excinfo:
        breaker.check("k")
    assert excinfo.value.key == "k" and excinfo.value.strikes == 2
    assert breaker.quarantined() == ["k"]
    # Cooldown elapses: exactly one half-open trial is admitted,
    # concurrent attempts keep failing fast.
    clock.advance(10.0)
    breaker.check("k")
    with pytest.raises(PoisonedKernelError):
        breaker.check("k")
    # The trial fails: the key re-opens for a fresh cooldown.
    breaker.record_failure("k")
    with pytest.raises(PoisonedKernelError):
        breaker.check("k")
    clock.advance(10.0)
    breaker.check("k")  # next half-open trial
    breaker.record_success("k")  # trial compile lands: fully closed
    breaker.check("k")
    breaker.check("k")
    assert breaker.quarantined() == []
    assert breaker.stats()["strikes"] == {}
    assert breaker.stats()["trips"] == 2


def test_breaker_success_clears_partial_strikes():
    breaker = CircuitBreaker(threshold=3, clock=FakeClock())
    breaker.record_failure("k")
    breaker.record_failure("k")
    breaker.record_success("k")
    breaker.record_failure("k")
    breaker.record_failure("k")
    breaker.check("k")  # 2 strikes < 3: still closed


def test_breaker_keys_are_independent():
    breaker = CircuitBreaker(threshold=1, clock=FakeClock())
    breaker.record_failure("poisoned")
    with pytest.raises(PoisonedKernelError):
        breaker.check("poisoned")
    breaker.check("healthy")


def test_breaker_persists_and_reloads_quarantine(tmp_path):
    state = tmp_path / "poison-keys.json"
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, cooldown_s=10.0, clock=clock,
                             state_path=state)
    breaker.record_failure("k")
    data = json.loads(state.read_text())
    assert data["quarantined"] == ["k"] and data["strikes"] == {"k": 1}
    # A restarted daemon reloads the quarantine; the cooldown restarts
    # from boot (monotonic stamps cannot survive the process).
    reloaded = CircuitBreaker(threshold=1, cooldown_s=10.0, clock=clock,
                              state_path=state)
    with pytest.raises(PoisonedKernelError):
        reloaded.check("k")
    clock.advance(10.0)
    reloaded.check("k")  # half-open trial after the fresh cooldown
    reloaded.record_success("k")
    assert json.loads(state.read_text())["quarantined"] == []


def test_breaker_persistence_is_best_effort(tmp_path):
    import os

    if os.geteuid() == 0:
        pytest.skip("root ignores directory permissions")
    tmp_path.chmod(0o500)
    try:
        breaker = CircuitBreaker(
            threshold=1, clock=FakeClock(),
            state_path=tmp_path / "poison-keys.json",
        )
        breaker.record_failure("k")  # must not raise on the RO dir
        assert breaker.stats()["persist_errors"] == 1
        with pytest.raises(PoisonedKernelError):
            breaker.check("k")
    finally:
        tmp_path.chmod(0o700)


def test_breaker_validates_configuration():
    with pytest.raises(ConfigurationError):
        CircuitBreaker(threshold=0)
    with pytest.raises(ConfigurationError):
        CircuitBreaker(cooldown_s=-1.0)


# -- process pool (real subprocesses, toy arch) -------------------------------


@pytest.fixture()
def pool():
    isolation = ProcessIsolation(workers=2, deadline_s=20.0,
                                 poison_threshold=2)
    yield isolation
    isolation.close()


def test_isolated_compile_is_bit_exact(pool):
    from repro.core.pipeline import GemmCompiler

    spec, options = GemmSpec(), CompilerOptions()
    isolated = pool.compile(spec, TOY_ARCH, options)
    direct = GemmCompiler(TOY_ARCH, options).compile(spec)
    a, b = isolated.to_dict(), direct.to_dict()
    for payload in (a, b):
        payload.pop("codegen_seconds")  # wall time differs, code must not
        payload.pop("pass_stats")
    assert a == b
    assert pool.stats()["jobs_ok"] == 1


def test_worker_crash_is_contained_and_striked(pool):
    spec = GemmSpec(trans_a=True)
    with pytest.raises(WorkerCrashError) as excinfo:
        pool.compile(spec, TOY_ARCH, CRASH)
    key = cache_key(spec, TOY_ARCH, CRASH)
    assert excinfo.value.key == key
    stats = pool.stats()
    assert stats["crashes"] == 1 and stats["restarts"] == 1
    assert stats["poison"]["strikes"] == {key: 1}
    # The daemon itself survived: a clean compile still works.
    pool.compile(GemmSpec(), TOY_ARCH, CompilerOptions())


def test_repeated_crashes_trip_the_poison_breaker(pool):
    spec = GemmSpec(trans_a=True)
    for _ in range(2):  # poison_threshold=2
        with pytest.raises(WorkerCrashError):
            pool.compile(spec, TOY_ARCH, CRASH)
    with pytest.raises(PoisonedKernelError):
        pool.compile(spec, TOY_ARCH, CRASH)
    # No third subprocess was sacrificed: the breaker fails fast.
    assert pool.stats()["crashes"] == 2
    # Other keys stay unaffected.
    pool.compile(GemmSpec(trans_b=True), TOY_ARCH, CompilerOptions())


def test_hung_worker_is_killed_at_the_deadline():
    with ProcessIsolation(workers=1, deadline_s=0.5) as pool:
        with pytest.raises(CompileTimeout) as excinfo:
            pool.compile(GemmSpec(), TOY_ARCH, HANG)
        assert excinfo.value.timeout_s == 0.5
        stats = pool.stats()
        assert stats["timeouts"] == 1 and stats["kills"] == 1
        # The replacement worker serves the next job.
        pool.compile(GemmSpec(), TOY_ARCH, CompilerOptions())


def test_per_request_timeout_tightens_the_deadline():
    with ProcessIsolation(workers=1, deadline_s=60.0) as pool:
        with pytest.raises(CompileTimeout) as excinfo:
            pool.compile(GemmSpec(), TOY_ARCH, HANG, timeout_s=0.5)
        assert excinfo.value.timeout_s == 0.5


def test_memory_budget_overrun_recycles_the_worker():
    # Any real compile peaks well above 1 MiB, so the budget trips
    # deterministically without needing an allocation bomb.
    with ProcessIsolation(workers=1, deadline_s=20.0,
                          memory_budget_mb=1.0) as pool:
        with pytest.raises(WorkerCrashError) as excinfo:
            pool.compile(GemmSpec(), TOY_ARCH, CompilerOptions())
        assert "budget" in str(excinfo.value)
        stats = pool.stats()
        assert stats["memory_overruns"] == 1 and stats["restarts"] == 1


def test_clean_compiler_failures_pass_through_without_strikes(pool):
    # A tile plan that overflows SPM fails deterministically *inside*
    # the worker; the original exception type crosses the process
    # boundary and the key is not struck (clean failures are not
    # poison — re-requesting them must stay allowed and cheap).
    from repro.core.options import TileConfig
    from repro.errors import SPMOverflowError

    options = CompilerOptions(tile_config=TileConfig(mt=512, nt=512, kt=512))
    with pytest.raises(SPMOverflowError, match="SPM"):
        pool.compile(GemmSpec(), TOY_ARCH, options)
    assert pool.stats()["poison"]["strikes"] == {}
    assert pool.stats()["crashes"] == 0


def test_workers_are_recycled_after_job_quota():
    with ProcessIsolation(workers=1, deadline_s=20.0,
                          recycle_after=1) as pool:
        pool.compile(GemmSpec(), TOY_ARCH, CompilerOptions())
        pool.compile(GemmSpec(trans_a=True), TOY_ARCH, CompilerOptions())
        stats = pool.stats()
        assert stats["spawned"] >= 2 and stats["restarts"] >= 1


def test_isolation_validates_configuration():
    with pytest.raises(ConfigurationError):
        ProcessIsolation(workers=0)
    with pytest.raises(ConfigurationError):
        ProcessIsolation(deadline_s=0)
    with pytest.raises(ConfigurationError):
        ProcessIsolation(memory_budget_mb=-1)


# -- admission refusals across the boundary ------------------------------------


def test_failure_reply_keeps_an_admission_refusal_report():
    """A worker's failure reply carries a refusal's report, so the parent
    rebuilds ``KernelAdmissionError`` with it, not a bare message."""
    import pickle

    from repro.errors import KernelAdmissionError
    from repro.serve.isolation import _failure_reply, _rebuild_error
    from tests.verify.test_admission import DroppedSynchAstPass, rejection

    refusal, report = rejection({"ast-generation": DroppedSynchAstPass()})
    # The reply crosses the pipe pickled.
    reply = pickle.loads(pickle.dumps(_failure_reply(refusal)))
    rebuilt = _rebuild_error(reply)
    assert type(rebuilt) is KernelAdmissionError
    assert str(rebuilt) == str(refusal)
    assert rebuilt.report == report and not rebuilt.report.ok


def test_isolated_daemon_verify_answers_a_refusal_with_its_checks(monkeypatch):
    """Under ``--isolation process`` the ``verify`` op reports a refused
    kernel as ``ok: false`` with its checks, as the thread daemon does."""
    from repro.schedule import REWRITES, Rewrite
    from repro.serve import Client, ServeConfig, start_in_thread
    from repro.service import CompileService, ServiceConfig
    from tests.schedule.test_rewrites import _drop_first_dma_wait

    # Patched before the daemon forks its workers, so they inherit it.
    monkeypatch.setitem(
        REWRITES, "split-waits",
        Rewrite("split-waits", "drops a wait", _drop_first_dma_wait),
    )
    handle = start_in_thread(
        CompileService(ServiceConfig()),
        ServeConfig(workers=1, quota=None, isolation="process"),
    )
    try:
        with Client(handle.address, tenant="t") as client:
            refused = client.verify({"arch": "toy", "schedule": "optimize"})
    finally:
        handle.stop()
    assert (refused["ok"], refused["checks"]) == (False, 4)
