"""Overload protection: bounded queues, deadlines, brownout, health.

Three layers are pinned down here:

* the **queue** (admission watermarks, shed-below, expired-in-queue)
  and the **brownout controller** single-threadedly with fake clocks —
  the policies are deterministic functions of their inputs;
* the **budget arithmetic** (`deadline_at` / `remaining_s` /
  `is_expired` / `merge_timeout`) with Hypothesis, because every later
  layer (queue, dispatch, worker timeout) leans on these four
  functions being boringly correct;
* the **daemon end to end** over real sockets: a request whose
  deadline dies in the queue provably never reaches a worker, the
  `health` op reports the overload surface, brownout fast-fails cold
  compiles while serving warm ones, and an unconfigured daemon keeps
  the historical wire behaviour byte for byte.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    DegradedModeError,
    OverloadError,
    ProtocolError,
)
from repro.serve import Client, ServeConfig, start_in_thread
from repro.serve.overload import (
    BROWNOUT,
    HEALTHY,
    BrownoutController,
    OverloadConfig,
    class_caps,
    deadline_at,
    is_expired,
    merge_timeout,
    remaining_s,
)
from repro.serve.protocol import Request
from repro.serve.queue import (
    RETRY_AFTER_DEFAULT_S,
    RETRY_AFTER_MAX_S,
    RETRY_AFTER_MIN_S,
    FairPriorityQueue,
)
from repro.serve.quotas import DEFAULT_COSTS
from repro.service import CompileService, ServiceConfig


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# class_caps / OverloadConfig
# ---------------------------------------------------------------------------


def test_class_caps_ordering_and_floor():
    caps = class_caps(12)
    assert caps == {"interactive": 12, "batch": 8, "warmup": 4}
    # Tiny depths: every class keeps at least one slot, ordering holds.
    for depth in range(1, 8):
        caps = class_caps(depth)
        assert caps["warmup"] >= 1
        assert caps["warmup"] <= caps["batch"] <= caps["interactive"] == depth
    with pytest.raises(ConfigurationError):
        class_caps(0)


def test_overload_config_off_by_default():
    config = OverloadConfig()
    assert not config.enabled
    assert config.caps() is None
    assert config.controller() is None


def test_overload_config_validation():
    with pytest.raises(ConfigurationError):
        OverloadConfig(max_queue_depth=0)
    with pytest.raises(ConfigurationError):
        OverloadConfig(deadline_default_ms=-5.0)
    with pytest.raises(ConfigurationError):
        OverloadConfig(brownout_exit_ms=10.0)  # exit without enter
    with pytest.raises(ConfigurationError):
        OverloadConfig(brownout_enter_ms=50.0, brownout_exit_ms=80.0)
    with pytest.raises(ConfigurationError):
        OverloadConfig(ewma_alpha=0.0)


# ---------------------------------------------------------------------------
# Bounded queue: admission, shedding, expiry
# ---------------------------------------------------------------------------


def test_arrival_over_watermark_is_rejected_when_nothing_lower():
    queue = FairPriorityQueue(caps=class_caps(2))
    queue.put("a", priority="interactive", tenant="t")
    queue.put("b", priority="interactive", tenant="t")
    with pytest.raises(OverloadError) as excinfo:
        queue.put("c", priority="interactive", tenant="t")
    exc = excinfo.value
    assert exc.priority == "interactive"
    assert not exc.shed
    assert exc.retry_after_s == RETRY_AFTER_DEFAULT_S  # no drain observed yet
    assert queue.rejected["interactive"] == 1
    assert len(queue) == 2  # the rejected arrival was never admitted


def test_interactive_arrival_sheds_youngest_lowest_class():
    dropped = []
    queue = FairPriorityQueue(caps=class_caps(3))  # i=3, b=2, w=1
    queue.drop_handler = lambda item, exc: dropped.append((item, exc))
    queue.put("w0", priority="warmup", tenant="t")
    queue.put("b0", priority="batch", tenant="t")
    queue.put("i0", priority="interactive", tenant="t")
    # Queue is at the interactive watermark (3); the next interactive
    # arrival evicts the warmup entry (lowest class) instead of failing.
    queue.put("i1", priority="interactive", tenant="t")
    assert len(dropped) == 1
    victim, exc = dropped[0]
    assert victim == "w0"
    assert isinstance(exc, OverloadError) and exc.shed
    assert exc.priority == "warmup"
    assert queue.shed["warmup"] == 1
    # Scheduling order is unharmed: interactive first, then batch.
    assert queue.get(timeout=0) == "i0"
    assert queue.get(timeout=0) == "i1"
    assert queue.get(timeout=0) == "b0"


def test_warmup_arrival_cannot_shed_higher_classes():
    queue = FairPriorityQueue(caps=class_caps(3))  # warmup watermark = 1
    queue.put("i0", priority="interactive", tenant="t")
    with pytest.raises(OverloadError):
        queue.put("w0", priority="warmup", tenant="t")
    assert queue.rejected["warmup"] == 1
    assert queue.shed == {p: 0 for p in queue.shed}


def test_expired_entry_is_shed_at_pop_never_dispatched():
    clock = FakeClock()
    dropped = []
    queue = FairPriorityQueue(clock=clock)
    queue.drop_handler = lambda item, exc: dropped.append((item, exc))
    queue.put("dying", priority="batch", tenant="t", deadline_at=1.0)
    queue.put("alive", priority="batch", tenant="t")
    clock.advance(2.0)  # the first entry's budget is gone
    assert queue.get(timeout=0) == "alive"
    assert queue.expired["batch"] == 1
    victim, exc = dropped[0]
    assert victim == "dying"
    assert isinstance(exc, DeadlineExceededError)
    assert exc.phase == "queue"


def test_retry_after_tracks_observed_drain_rate():
    clock = FakeClock()
    queue = FairPriorityQueue(clock=clock, drain_alpha=1.0)
    for n in range(4):
        queue.put(n, priority="batch", tenant="t")
    queue.get(timeout=0)
    clock.advance(0.5)
    queue.get(timeout=0)  # observed drain interval: 0.5 s/dequeue
    # Two items left, 0.5 s each: the hint is the drain estimate.
    assert queue.retry_after_s() == pytest.approx(2 * 0.5)
    # And it is clamped to sane bounds however extreme the estimate.
    assert RETRY_AFTER_MIN_S <= queue.retry_after_s() <= RETRY_AFTER_MAX_S


def test_stats_reports_caps_and_overload_counters():
    queue = FairPriorityQueue(caps=class_caps(2))
    stats = queue.stats()
    assert stats["caps"] == class_caps(2)
    for key in ("shed", "expired", "rejected"):
        assert set(stats[key]) == {"interactive", "batch", "warmup"}
    assert stats["retry_after_s"] == RETRY_AFTER_DEFAULT_S


def test_wait_observer_receives_queue_wait_seconds():
    clock = FakeClock()
    waits = []
    queue = FairPriorityQueue(clock=clock)
    queue.wait_observer = waits.append
    queue.put("x", priority="interactive", tenant="t")
    clock.advance(0.25)
    queue.get(timeout=0)
    assert waits == [pytest.approx(0.25)]


# ---------------------------------------------------------------------------
# Brownout hysteresis (injectable clock)
# ---------------------------------------------------------------------------


def brownout(dwell=2.0, alpha=1.0, clock=None):
    return BrownoutController(
        enter_ms=100.0,
        exit_ms=50.0,
        min_dwell_s=dwell,
        alpha=alpha,
        clock=clock if clock is not None else FakeClock(),
    )


def test_brownout_enters_at_threshold_and_dwells():
    clock = FakeClock()
    ctrl = brownout(dwell=2.0, clock=clock)
    assert ctrl.observe(99.0) == HEALTHY  # below the enter threshold
    assert ctrl.observe(150.0) == BROWNOUT
    assert ctrl.entered == 1
    # EWMA already below the exit threshold, but the dwell forbids an
    # exit until 2 s have elapsed in brownout — no flapping.
    assert ctrl.observe(0.0) == BROWNOUT
    clock.advance(1.9)
    assert ctrl.observe(0.0) == BROWNOUT
    clock.advance(0.2)
    assert ctrl.observe(0.0) == HEALTHY
    assert ctrl.exited == 1


def test_brownout_exit_requires_ewma_below_exit_threshold():
    clock = FakeClock()
    ctrl = brownout(dwell=0.0, clock=clock)
    ctrl.observe(200.0)
    assert ctrl.state == BROWNOUT
    # 60 ms is below enter (100) but above exit (50): still browned out.
    assert ctrl.observe(60.0) == BROWNOUT
    assert ctrl.observe(40.0) == HEALTHY


def test_idle_observations_decay_the_ewma():
    ctrl = brownout(dwell=0.0, alpha=0.5)
    ctrl.observe(400.0)
    assert ctrl.state == BROWNOUT
    for _ in range(10):
        ctrl.idle()
    assert ctrl.state == HEALTHY
    assert ctrl.ewma_ms < 1.0


def test_brownout_transitions_are_logged():
    clock = FakeClock()
    ctrl = brownout(dwell=0.0, clock=clock)
    ctrl.observe(500.0)
    clock.advance(3.0)
    ctrl.observe(0.0)
    stats = ctrl.stats()
    assert [t["state"] for t in stats["transitions"]] == [BROWNOUT, HEALTHY]
    assert stats["entered"] == 1 and stats["exited"] == 1


# ---------------------------------------------------------------------------
# Deadline-budget arithmetic (property-tested)
# ---------------------------------------------------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
budget_ms = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
maybe_timeout = st.one_of(
    st.none(),
    st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


@settings(max_examples=200, deadline=None)
@given(received=finite, deadline_ms=budget_ms, now=finite)
def test_remaining_budget_is_never_negative(received, deadline_ms, now):
    at = deadline_at(received, deadline_ms)
    left = remaining_s(at, now)
    assert left is not None and left >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    received=finite,
    deadline_ms=budget_ms,
    now=finite,
    dt=st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)
def test_remaining_budget_is_monotone_in_time(received, deadline_ms, now, dt):
    at = deadline_at(received, deadline_ms)
    # Time only moves forward; the budget only shrinks.
    assert remaining_s(at, now + dt) <= remaining_s(at, now)


@settings(max_examples=200, deadline=None)
@given(received=finite, deadline_ms=budget_ms, now=finite)
def test_expired_iff_budget_exhausted(received, deadline_ms, now):
    at = deadline_at(received, deadline_ms)
    assert is_expired(at, now) == (remaining_s(at, now) == 0.0)


@settings(max_examples=200, deadline=None)
@given(now=finite)
def test_unbounded_deadline_never_expires(now):
    assert remaining_s(None, now) is None
    assert not is_expired(None, now)


@settings(max_examples=200, deadline=None)
@given(timeout_s=maybe_timeout, budget_s=maybe_timeout)
def test_merge_timeout_takes_the_tighter_bound(timeout_s, budget_s):
    merged = merge_timeout(timeout_s, budget_s)
    if timeout_s is None and budget_s is None:
        assert merged is None  # nothing bounds the worker
    else:
        for bound in (timeout_s, budget_s):
            if bound is not None:
                assert merged <= bound
        assert merged in (timeout_s, budget_s)


@settings(max_examples=100, deadline=None)
@given(
    waits=st.lists(
        st.floats(
            min_value=0.0, max_value=99.0, allow_nan=False, allow_infinity=False
        ),
        max_size=50,
    )
)
def test_hysteresis_never_enters_below_threshold(waits):
    # The EWMA of samples all below enter_ms can never reach enter_ms,
    # so no observation sequence of them causes a brownout.
    ctrl = brownout(dwell=0.0, alpha=0.3)
    for wait in waits:
        assert ctrl.observe(wait) == HEALTHY
    assert ctrl.entered == 0


@settings(max_examples=100, deadline=None)
@given(
    waits=st.lists(
        st.floats(
            min_value=0.0,
            max_value=1e4,
            allow_nan=False,
            allow_infinity=False,
        ),
        max_size=50,
    )
)
def test_hysteresis_never_exits_before_dwell(waits):
    # A frozen clock means the dwell can never elapse: once in
    # brownout, no observation sequence whatsoever flips it back.
    ctrl = brownout(dwell=2.0, clock=FakeClock())
    ctrl.observe(1e6)
    assert ctrl.state == BROWNOUT
    for wait in waits:
        assert ctrl.observe(wait) == BROWNOUT
    assert ctrl.exited == 0


@settings(max_examples=50, deadline=None)
@given(
    waits=st.lists(
        st.floats(
            min_value=0.0,
            max_value=1e4,
            allow_nan=False,
            allow_infinity=False,
        ),
        max_size=30,
    )
)
def test_hysteresis_is_deterministic(waits):
    # The controller is a pure function of (observations, clock): two
    # replays agree on every state and counter.
    a, b = brownout(clock=FakeClock()), brownout(clock=FakeClock())
    for wait in waits:
        assert a.observe(wait) == b.observe(wait)
    assert (a.entered, a.exited, a.ewma_ms) == (b.entered, b.exited, b.ewma_ms)


# ---------------------------------------------------------------------------
# Wire behaviour
# ---------------------------------------------------------------------------


def test_request_without_deadline_is_byte_identical_on_the_wire():
    base = dict(id="abc", op="ping", tenant="t")
    assert "deadline_ms" not in Request(**base).to_dict()
    assert Request(**base, deadline_ms=250.0).to_dict()["deadline_ms"] == 250.0


def test_request_deadline_validation():
    frame = Request(id="abc", op="ping", tenant="t").to_dict()
    for bad in (0, -1, "soon", True, float("inf")):
        with pytest.raises(ProtocolError):
            Request.from_dict({**frame, "deadline_ms": bad})


def test_health_probe_is_quota_free():
    # A health probe must stay answerable under overload — the whole
    # point of the op — so it cannot be charged against a quota.
    assert DEFAULT_COSTS["health"] == 0.0


# ---------------------------------------------------------------------------
# Daemon end-to-end
# ---------------------------------------------------------------------------


def gated_service(calls, started, gate):
    """A service whose compile blocks on ``gate`` — one request can be
    parked inside a worker deterministically."""

    def slow_compile(spec, arch, options, timeout_s=None):
        from repro.core.pipeline import GemmCompiler

        calls.append(1)
        started.set()
        assert gate.wait(timeout=30.0)
        return GemmCompiler(arch, options).compile(spec)

    return CompileService(ServiceConfig(), compile_fn=slow_compile)


def test_health_op_on_unconfigured_daemon():
    handle = start_in_thread(
        CompileService(ServiceConfig()), ServeConfig(workers=1, quota=None)
    )
    try:
        with Client(handle.address, tenant="t") as client:
            health = client.health()
            assert health["state"] == "healthy" and health["ready"]
            assert health["brownout"] is None
            assert health["overload"]["overload_rejected"] == 0
            assert health["workers"]["configured"] == 1
            stats = client.stats()
            assert stats["server"]["overload"] is None
    finally:
        handle.stop()


def test_deadline_expired_in_queue_is_never_dispatched():
    calls, started, gate = [], threading.Event(), threading.Event()
    handle = start_in_thread(
        gated_service(calls, started, gate),
        ServeConfig(workers=1, quota=None, overload=OverloadConfig(
            max_queue_depth=8
        )),
    )
    try:
        blocker_done, doomed_outcome = [], []

        def blocker():
            with Client(handle.address, tenant="hog", timeout=60.0) as client:
                blocker_done.append(client.compile({"arch": "toy"}))

        def doomed():
            # 80 ms of budget, but the only worker is parked: the
            # deadline dies in the queue before dispatch is possible.
            try:
                with Client(
                    handle.address, tenant="t", timeout=60.0
                ) as client:
                    doomed_outcome.append(
                        client.request(
                            "compile",
                            {"arch": "toy", "trans_a": True},
                            deadline_ms=80.0,
                        )
                    )
            except Exception as exc:
                doomed_outcome.append(exc)

        thread_a = threading.Thread(target=blocker)
        thread_a.start()
        assert started.wait(timeout=30.0)  # the only worker is now busy
        thread_b = threading.Thread(target=doomed)
        thread_b.start()
        deadline = time.monotonic() + 30.0
        while len(handle.server.queue) < 1 and time.monotonic() < deadline:
            time.sleep(0.01)  # wait for the doomed request to be queued
        time.sleep(0.2)  # ...and now its 80 ms budget is provably gone
        gate.set()
        thread_a.join(timeout=30.0)
        thread_b.join(timeout=30.0)
        assert isinstance(doomed_outcome[0], DeadlineExceededError)
        assert doomed_outcome[0].phase == "queue"
        assert blocker_done and blocker_done[0]["source"] == "compiled"
        # The expired compile provably never reached a worker.
        assert len(calls) == 1
        with Client(handle.address, tenant="t") as probe:
            health = probe.health()
        assert health["overload"]["deadline_expired_queue"] == 1
        assert health["overload"]["deadline_expired_dispatch"] == 0
    finally:
        gate.set()
        handle.stop()


def test_full_queue_rejects_over_the_wire_with_retry_hint():
    calls, started, gate = [], threading.Event(), threading.Event()
    handle = start_in_thread(
        gated_service(calls, started, gate),
        ServeConfig(workers=1, quota=None, overload=OverloadConfig(
            max_queue_depth=1
        )),
    )
    try:
        def send(name, params, outcomes):
            try:
                with Client(handle.address, tenant=name, timeout=60.0) as c:
                    outcomes.append(c.compile(params))
            except Exception as exc:
                outcomes.append(exc)

        served, queued, refused = [], [], []
        thread_a = threading.Thread(
            target=send, args=("a", {"arch": "toy"}, served)
        )
        thread_a.start()
        assert started.wait(timeout=30.0)  # worker busy; queue empty
        thread_b = threading.Thread(
            target=send, args=("b", {"arch": "toy", "trans_a": True}, queued)
        )
        thread_b.start()
        deadline = time.monotonic() + 30.0
        while len(handle.server.queue) < 1 and time.monotonic() < deadline:
            time.sleep(0.01)  # wait for b to occupy the single queue slot
        send("c", {"arch": "toy", "trans_b": True}, refused)
        gate.set()
        thread_a.join(timeout=30.0)
        thread_b.join(timeout=30.0)
        assert isinstance(refused[0], OverloadError)
        assert refused[0].retry_after_s > 0.0
        assert served[0]["key"] and queued[0]["key"]
        with Client(handle.address, tenant="t") as probe:
            health = probe.health()
        assert health["overload"]["overload_rejected"] == 1
        assert health["queue"]["rejected"]["interactive"] == 1
    finally:
        gate.set()
        handle.stop()


@pytest.fixture()
def brownout_daemon():
    """A daemon whose brownout controller can be flipped synchronously
    (huge dwell-free thresholds fed by the test, not by real waits)."""
    handle = start_in_thread(
        CompileService(ServiceConfig()),
        ServeConfig(workers=2, quota=None, overload=OverloadConfig(
            max_queue_depth=16,
            brownout_enter_ms=100.0,
            brownout_exit_ms=50.0,
            brownout_dwell_s=0.0,
        )),
    )
    yield handle
    handle.stop()


def test_brownout_serves_warm_fast_fails_cold(brownout_daemon):
    handle = brownout_daemon
    with Client(handle.address, tenant="t") as client:
        warm = client.compile({"arch": "toy"})  # prime the cache
        handle.server.brownout.observe(1e6)  # force the brownout
        health = client.health()
        assert health["state"] == "brownout" and not health["ready"]
        # The cache is the degraded serving tier: the warm key flows...
        again = client.compile({"arch": "toy"})
        assert again["key"] == warm["key"]
        # ...while a cold compile fast-fails without touching a worker.
        with pytest.raises(DegradedModeError) as excinfo:
            client.compile({"arch": "toy", "trans_a": True})
        assert excinfo.value.retry_after_s > 0.0
        # Warmup is always refused in brownout, cached or not.
        with pytest.raises(DegradedModeError):
            client.warmup()
        health = client.health()
        assert health["overload"]["brownout_warm_served"] >= 1
        assert health["overload"]["brownout_rejected"] >= 2
        # Recovery: the EWMA decays (idle queue), state flips back.
        for _ in range(64):
            handle.server.brownout.idle()
        assert client.health()["state"] == "healthy"
        assert client.compile({"arch": "toy", "trans_a": True})["key"]


def test_client_retries_after_brownout_clears(brownout_daemon):
    handle = brownout_daemon
    handle.server.brownout.observe(1e6)
    with Client(
        handle.address,
        tenant="t",
        overload_retries=3,
        overload_retry_budget_s=30.0,
    ) as client:
        outcome = []

        def attempt():
            outcome.append(client.compile({"arch": "toy", "trans_b": True}))

        thread = threading.Thread(target=attempt)
        thread.start()
        # First attempt is rejected; the client sleeps the server's
        # retry_after_s hint.  Clear the brownout underneath it.
        deadline = time.monotonic() + 30.0
        while client.overload_retried == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        for _ in range(64):
            handle.server.brownout.idle()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert outcome and outcome[0]["key"]
        assert client.overload_retried >= 1


def test_overload_flood_plan_is_deterministic():
    from repro.bench.loadgen import OverloadScenario, overload_flood_plan

    scenario = OverloadScenario(seed=7, flood_requests=40, flood_window_s=2.0)
    plan = overload_flood_plan(scenario)
    assert plan == overload_flood_plan(scenario)  # pure in the seed
    assert len(plan) == 40
    offsets = [entry["offset_s"] for entry in plan]
    assert offsets == sorted(offsets)
    assert all(0.0 <= off <= 2.0 for off in offsets)
    classes = {entry["priority"] for entry in plan}
    # Bernoulli(warmup_fraction) per arrival: both classes appear, and
    # nothing outside the flood's two classes ever does.
    assert classes == {"warmup", "batch"}
    assert plan != overload_flood_plan(OverloadScenario(seed=8))


def test_deadline_budget_caps_worker_timeout(brownout_daemon):
    # A generous deadline flows through without effect; the response
    # meta echoes it so clients can audit what the server enforced.
    with Client(brownout_daemon.address, tenant="t") as client:
        response = client.request_response(
            "compile", {"arch": "toy"}, deadline_ms=60_000.0
        )
        assert response.ok
        assert response.meta["deadline_ms"] == 60_000.0
        # And an unstamped request carries no deadline meta at all.
        bare = client.request_response("compile", {"arch": "toy"})
        assert "deadline_ms" not in bare.meta
