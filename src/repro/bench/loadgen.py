"""Seeded load generator for the compilation daemon.

Replays a deterministic multi-tenant request trace against a live
``swgemm serve`` daemon and reports serving-path metrics: p50/p99
latency, throughput, cache hit rate, per-tenant quota rejections, and
the single-flight dedup proof the daemon's whole design rests on::

    compiles executed  <  unique kernels requested  <=  requests sent

The trace is a pure function of its seed (``random.Random``, no wall
clock): identical seeds produce identical traces — the committed
``BENCH_serve.json`` records the trace digest so a rerun can prove it
replayed the same workload.  The measured latencies are of course not
deterministic; the trace section is.

Run it standalone against a self-hosted daemon::

    python -m repro.bench.loadgen --requests 1200 --tenants 4 --seed 2022

or against an already-running one with ``--host``/``--port`` or
``--socket-path``.  ``--assert-p99-ms`` / ``--assert-hit-rate`` turn it
into a CI gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.client import Client
from repro.serve.protocol import spec_and_options

#: Kernel descriptors of the mixed window.  ``hot`` descriptors are
#: prewarmed before the measured window (so the window serves them from
#: cache — that is what makes the dedup inequality *strict*); ``cold``
#: ones first appear inside the window and cost one compile each.
HOT_KERNELS: Tuple[Dict[str, Any], ...] = (
    {},
    {"use_asm": False},
    {"enable_rma": False},
    {"fusion": "epilogue", "epilogue_func": "sigmoid"},
    {"fusion": "prologue", "prologue_func": "quant"},
    {"batch": True},
)

COLD_KERNELS: Tuple[Dict[str, Any], ...] = (
    {"schedule": "off"},
    {"trans_a": True},
    {"trans_b": True},
    {"trans_a": True, "trans_b": True},
    # Same reconciled key as the default descriptor: --no-verify is
    # normalised out of cache keys, so this "distinct" descriptor must
    # NOT cost a compile — the key-collapse path in the proof.
    {"verify": False},
)

#: Small problem sizes for ``run`` ops (the toy arch executes these in
#: tens of milliseconds).
RUN_SHAPES: Tuple[Tuple[int, int, int], ...] = (
    (32, 32, 16),
    (48, 32, 16),
    (32, 48, 32),
)

_OPS = ("compile", "run", "verify", "stats", "ping")
_OP_WEIGHTS = (58, 22, 10, 7, 3)
_PRIORITIES = ("interactive", "batch")
_PRIORITY_WEIGHTS = (70, 30)


@dataclass(frozen=True)
class TraceConfig:
    """Shape of one seeded workload."""

    seed: int = 2022
    requests: int = 1200
    tenants: Tuple[str, ...] = ("alpha", "beta", "gamma", "delta")
    arch: str = "toy"
    #: fraction of kernel-descriptor picks drawn from the hot pool
    hot_fraction: float = 0.8
    #: tune ops replayed *after* the measured window (their candidate
    #: compiles must not pollute the dedup inequality)
    tunes: int = 2
    tune_budget: int = 2

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")


def generate_trace(config: TraceConfig) -> List[Dict[str, Any]]:
    """The mixed-window trace: a pure function of ``config``."""
    rng = random.Random(config.seed)
    trace: List[Dict[str, Any]] = []
    for index in range(config.requests):
        op = rng.choices(_OPS, weights=_OP_WEIGHTS)[0]
        entry: Dict[str, Any] = {
            "index": index,
            "tenant": rng.choice(config.tenants),
            "op": op,
            "priority": rng.choices(_PRIORITIES, weights=_PRIORITY_WEIGHTS)[0],
            "params": {},
        }
        if op in ("compile", "run", "verify"):
            pool = (
                HOT_KERNELS
                if rng.random() < config.hot_fraction
                else COLD_KERNELS
            )
            params: Dict[str, Any] = {"arch": config.arch, **rng.choice(pool)}
            if op == "run":
                M, N, K = rng.choice(RUN_SHAPES)
                params.update(M=M, N=N, K=K, seed=rng.randrange(1 << 16))
            entry["params"] = params
        trace.append(entry)
    return trace


def tune_trace(config: TraceConfig) -> List[Dict[str, Any]]:
    """The post-window tune ops (deterministic like the main trace)."""
    rng = random.Random(config.seed + 1)
    shapes = ((576, 1024, 512), (192, 576, 384), (1280, 768, 512))
    return [
        {
            "tenant": config.tenants[i % len(config.tenants)],
            "op": "tune",
            "priority": "batch",
            "params": {
                "arch": config.arch,
                "M": shape[0],
                "N": shape[1],
                "K": shape[2],
                "seed": rng.randrange(1 << 16),
                "budget": config.tune_budget,
            },
        }
        for i, shape in enumerate(shapes[: config.tunes])
    ]


def trace_digest(trace: Sequence[Dict[str, Any]]) -> str:
    """SHA-256 over the canonical trace JSON (the reproducibility proof)."""
    blob = json.dumps(list(trace), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def unique_kernel_keys(trace: Sequence[Dict[str, Any]]) -> List[str]:
    """Reconciled cache keys the trace's kernel ops will be served under.

    Runs the same wire codec and option reconciliation the daemon runs,
    so descriptors that normalise identically (``verify: false``) count
    as one kernel — exactly what the dedup inequality compares against.
    """
    from repro.service import cache_key

    keys = set()
    for entry in trace:
        if entry["op"] not in ("compile", "run", "verify"):
            continue
        spec, options, arch = spec_and_options(entry["params"])
        keys.add(cache_key(spec, arch, options))
    return sorted(keys)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Everything one replay of a trace produced."""

    outcomes: List[Dict[str, Any]] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> List[Dict[str, Any]]:
        return [o for o in self.outcomes if o["ok"]]

    def latencies_ms(self) -> List[float]:
        return sorted(o["latency_ms"] for o in self.outcomes)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 1)))  # ceil without math
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


def replay(
    address, trace: Sequence[Dict[str, Any]], timeout: float = 120.0
) -> ReplayResult:
    """Replay a trace with one client thread per tenant.

    Each tenant's requests keep their trace order (a tenant is one
    synchronous caller); tenants run concurrently — which is what makes
    concurrent same-key requests actually collide on the daemon's
    single-flight path."""
    by_tenant: Dict[str, List[Dict[str, Any]]] = {}
    for entry in trace:
        by_tenant.setdefault(entry["tenant"], []).append(entry)
    result = ReplayResult()
    lock = threading.Lock()

    def worker(tenant: str, entries: List[Dict[str, Any]]) -> None:
        outcomes: List[Dict[str, Any]] = []
        with Client(address, tenant=tenant, timeout=timeout) as client:
            for entry in entries:
                started = time.perf_counter()
                response = client.request_response(
                    entry["op"], entry["params"], priority=entry["priority"]
                )
                latency_ms = 1e3 * (time.perf_counter() - started)
                outcome = {
                    "tenant": tenant,
                    "op": entry["op"],
                    "priority": entry["priority"],
                    "ok": response.ok,
                    "latency_ms": latency_ms,
                    "source": (response.meta or {}).get("source"),
                    "error": (response.error or {}).get("type"),
                }
                outcomes.append(outcome)
        with lock:
            result.outcomes.extend(outcomes)

    threads = [
        threading.Thread(target=worker, args=item, daemon=True)
        for item in by_tenant.items()
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_seconds = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------


def run_serve_bench(
    config: Optional[TraceConfig] = None,
    address=None,
    workers: int = 4,
    quota_capacity: Optional[float] = 60.0,
    quota_refill: float = 30.0,
) -> Dict[str, Any]:
    """The full benchmark: warmup → snapshot → mixed window → snapshot
    → tune phase → quota burst probe, against ``address`` or a
    self-hosted in-process daemon.

    Returns the ``BENCH_serve.json`` payload.  The default quota sizing
    is the daemon's own default (60 tokens @ 30/s per tenant): generous
    enough that the paced mixed window is admitted in full, tight enough
    that the burst probe — one tenant firing cached compiles as fast as
    the socket allows — provably hits rejections.  Pass
    ``quota_capacity=None`` to disable quotas."""
    config = config or TraceConfig()
    handle = None
    if address is None:
        from repro.serve import QuotaConfig, ServeConfig, start_in_thread
        from repro.service import CompileService

        quota = (
            QuotaConfig(capacity=quota_capacity, refill_per_s=quota_refill)
            if quota_capacity is not None
            else None
        )
        service = CompileService()
        handle = start_in_thread(
            service, ServeConfig(workers=workers, quota=quota)
        )
        address = handle.address
    try:
        return _run_phases(config, address)
    finally:
        if handle is not None:
            try:
                Client(address, tenant="loadgen-admin").shutdown()
            except Exception:
                pass
            handle.stop()


def _service_snapshot(client: Client) -> Dict[str, Any]:
    stats = client.stats()
    service = stats.get("service") or {}
    compiles = service.get("compiles") or {}
    return {
        "compiles": int(compiles.get("count", 0)),
        "deduped": int(service.get("single_flight_deduped", 0)),
        "requests": int(service.get("requests", 0)),
        "server": stats.get("server") or {},
    }


def _run_phases(config: TraceConfig, address) -> Dict[str, Any]:
    trace = generate_trace(config)
    digest = trace_digest(trace)
    unique_keys = unique_kernel_keys(trace)
    hot_keys = unique_kernel_keys(
        [
            {"op": "compile", "params": {"arch": config.arch, **kernel}}
            for kernel in HOT_KERNELS
        ]
    )

    admin = Client(address, tenant="loadgen-admin", timeout=300.0)
    with admin:
        # Phase 1 — prewarm the hot pool (and the daemon's standard set)
        # so the measured window serves them from cache.
        for kernel in HOT_KERNELS:
            admin.compile({"arch": config.arch, **kernel})
        before = _service_snapshot(admin)

        # Phase 2 — the measured mixed window.
        result = replay(address, trace)
        after = _service_snapshot(admin)

        # Phase 3 — tune ops, after the dedup snapshot on purpose: each
        # tune compiles candidate configs, which would otherwise drown
        # the inequality.
        tune_outcomes = []
        for entry in tune_trace(config):
            started = time.perf_counter()
            response = admin.request_response(
                entry["op"], entry["params"], priority=entry["priority"]
            )
            tune_outcomes.append(
                {
                    "ok": response.ok,
                    "latency_ms": 1e3 * (time.perf_counter() - started),
                    "shape": "{M}x{N}x{K}".format(**entry["params"]),
                    "error": (response.error or {}).get("type"),
                }
            )

    # Phase 4 — quota burst probe: one tenant fires cached compiles as
    # fast as the socket allows.  Under the default token bucket the
    # burst outruns the refill, so rejections here prove per-tenant
    # quotas are enforced without touching the measured window.
    burst_requests = 120
    burst_rejected = 0
    with Client(address, tenant="burst", timeout=300.0) as burst:
        for _ in range(burst_requests):
            response = burst.request_response(
                "compile", {"arch": config.arch}
            )
            if (
                not response.ok
                and (response.error or {}).get("type") == "QuotaExceededError"
            ):
                burst_rejected += 1

    compiles_window = after["compiles"] - before["compiles"]
    kernel_ops = [
        o for o in result.outcomes if o["op"] in ("compile", "run", "verify")
    ]
    kernel_ok = [o for o in kernel_ops if o["ok"]]
    sources: Dict[str, int] = {}
    for outcome in kernel_ok:
        source = outcome["source"] or "unknown"
        sources[source] = sources.get(source, 0) + 1
    hits = sum(
        count
        for source, count in sources.items()
        if source in ("memory", "disk", "deduped")
    )
    hit_rate = hits / len(kernel_ok) if kernel_ok else 0.0

    latencies = result.latencies_ms()
    by_op: Dict[str, Dict[str, float]] = {}
    for op in sorted({o["op"] for o in result.outcomes}):
        op_lat = sorted(
            o["latency_ms"] for o in result.outcomes if o["op"] == op
        )
        by_op[op] = {
            "count": len(op_lat),
            "p50_ms": round(percentile(op_lat, 0.50), 3),
            "p99_ms": round(percentile(op_lat, 0.99), 3),
        }
    quota_by_tenant: Dict[str, int] = {}
    for outcome in result.outcomes:
        if outcome["error"] == "QuotaExceededError":
            quota_by_tenant[outcome["tenant"]] = (
                quota_by_tenant.get(outcome["tenant"], 0) + 1
            )
    quota_rejected = sum(quota_by_tenant.values())
    errors = sum(
        1
        for o in result.outcomes
        if not o["ok"] and o["error"] != "QuotaExceededError"
    )

    return {
        "figure": "serve",
        "arch": config.arch,
        "trace": {
            "seed": config.seed,
            "requests": config.requests,
            "tenants": list(config.tenants),
            "arch": config.arch,
            "digest": digest,
            "unique_kernel_keys": len(unique_keys),
            "hot_kernel_keys": len(hot_keys),
            "ops": {
                op: sum(1 for e in trace if e["op"] == op)
                for op in sorted({e["op"] for e in trace})
            },
            "priorities": {
                p: sum(1 for e in trace if e["priority"] == p)
                for p in _PRIORITIES
            },
        },
        "dedup": {
            "requests_window": len(trace),
            "unique_keys_window": len(unique_keys),
            "compiles_executed_window": compiles_window,
            "single_flight_deduped_total": after["deduped"],
            "proof_strict": compiles_window < len(unique_keys) <= len(trace),
        },
        "latency_ms": {
            "count": len(latencies),
            "p50": round(percentile(latencies, 0.50), 3),
            "p90": round(percentile(latencies, 0.90), 3),
            "p99": round(percentile(latencies, 0.99), 3),
            "max": round(latencies[-1], 3) if latencies else 0.0,
            "by_op": by_op,
        },
        "throughput_rps": round(
            len(result.outcomes) / result.wall_seconds, 1
        )
        if result.wall_seconds
        else 0.0,
        "wall_seconds": round(result.wall_seconds, 3),
        "cache": {"hit_rate": round(hit_rate, 4), "sources": sources},
        "quota": {
            "rejected_window": quota_rejected,
            "by_tenant": quota_by_tenant,
            "burst_requests": burst_requests,
            "burst_rejected": burst_rejected,
            "enforced": burst_rejected > 0,
        },
        "errors": errors,
        "tune": tune_outcomes,
    }


# ---------------------------------------------------------------------------
# The overload scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverloadScenario:
    """Shape of the seeded open-loop overload spike.

    Unlike the mixed window (closed-loop: each tenant waits for its
    previous response), the spike is **open-loop**: every flood request
    gets its own connection and fires at a seeded arrival offset whether
    or not earlier requests have been answered — which is what real
    overload looks like, and what a closed-loop generator can never
    produce (it self-throttles exactly when the server slows down)."""

    seed: int = 2022
    #: flood requests (batch/warmup-priority ``run`` ops) in the spike
    flood_requests: int = 60
    #: seconds over which the seeded arrival offsets are spread
    flood_window_s: float = 1.0
    #: fraction of flood requests sent at ``warmup`` priority — queued
    #: warmup work is what batch arrivals shed when the queue fills
    warmup_fraction: float = 0.25
    #: end-to-end budget each flood request carries; ``None``
    #: self-calibrates to ~2.5 measured service times, so the
    #: expiry proof holds on fast and slow machines alike (a fixed
    #: budget is either never or always exceeded depending on host speed)
    flood_deadline_ms: Optional[float] = None
    #: interactive cached-compile probes fired during and after the spike
    probes: int = 25
    #: spacing of the interactive probes
    probe_interval_s: float = 0.08
    #: daemon knobs under test
    workers: int = 1
    max_queue_depth: int = 8
    brownout_enter_ms: float = 150.0
    brownout_exit_ms: float = 75.0
    brownout_dwell_s: float = 0.75
    #: problem size of one flood ``run`` (~100 ms on the toy arch — the
    #: spike outruns a one-worker daemon roughly 6x)
    flood_shape: Tuple[int, int, int] = (64, 64, 32)
    arch: str = "toy"
    #: seconds to wait for the daemon to report healthy again
    recovery_timeout_s: float = 15.0

    def __post_init__(self) -> None:
        if self.flood_requests < 1:
            raise ValueError("flood_requests must be >= 1")
        if self.flood_window_s <= 0:
            raise ValueError("flood_window_s must be > 0")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must be in [0, 1]")


#: Kernel descriptors used only by the brownout cold-probe — they must
#: not be prewarmed anywhere in the overload scenario.
_BROWNOUT_COLD_KERNELS: Tuple[Dict[str, Any], ...] = (
    {"trans_a": True},
    {"trans_b": True},
    {"trans_a": True, "trans_b": True},
)


def overload_flood_plan(config: OverloadScenario) -> List[Dict[str, Any]]:
    """The seeded open-loop spike: arrival offsets (seconds, sorted
    ascending) and the priority class of each arrival — a pure function
    of the scenario, like :func:`generate_trace`."""
    rng = random.Random(config.seed)
    offsets = sorted(
        rng.uniform(0.0, config.flood_window_s)
        for _ in range(config.flood_requests)
    )
    return [
        {
            "offset_s": offset,
            "priority": (
                "warmup"
                if rng.random() < config.warmup_fraction
                else "batch"
            ),
        }
        for offset in offsets
    ]


def run_overload_bench(config: Optional[OverloadScenario] = None) -> Dict[str, Any]:
    """Drive a seeded arrival spike into an overload-protected daemon.

    Self-hosts a deliberately undersized daemon (``workers=1``, bounded
    queue, brownout enabled, quotas off so only overload mechanisms
    answer) and produces the ``BENCH_serve_overload.json`` payload with
    three structural proofs:

    * **zero expired dispatches** — every request whose deadline died
      carries no ``exec_ms`` in its response meta, i.e. no worker ever
      executed it;
    * **interactive latency bounded** — cached interactive probes keep
      a bounded p99 while the batch flood is shed around them;
    * **brownout entry and exit** — the hysteresis controller entered
      under the spike and recovered to healthy after it.
    """
    from repro.serve import (
        OverloadConfig as ServeOverloadConfig,
        ServeConfig,
        start_in_thread,
    )
    from repro.service import CompileService

    config = config or OverloadScenario()
    overload = ServeOverloadConfig(
        max_queue_depth=config.max_queue_depth,
        brownout_enter_ms=config.brownout_enter_ms,
        brownout_exit_ms=config.brownout_exit_ms,
        brownout_dwell_s=config.brownout_dwell_s,
    )
    service = CompileService()
    handle = start_in_thread(
        service,
        ServeConfig(workers=config.workers, quota=None, overload=overload),
    )
    address = handle.address
    try:
        return _run_overload_phases(config, address, overload)
    finally:
        try:
            Client(address, tenant="overload-admin").shutdown()
        except Exception:
            pass
        handle.stop()


def _outcome(response, latency_ms: float) -> Dict[str, Any]:
    meta = response.meta or {}
    return {
        "ok": response.ok,
        "latency_ms": round(latency_ms, 3),
        "error": (response.error or {}).get("type"),
        "retry_after_s": (response.error or {}).get("retry_after_s"),
        # Present only when a worker actually executed the handler —
        # the signal behind the zero-expired-dispatches proof.
        "executed": "exec_ms" in meta,
    }


def _run_overload_phases(
    config: OverloadScenario, address, overload
) -> Dict[str, Any]:
    warm_kernel = {"arch": config.arch}
    plan = overload_flood_plan(config)

    admin = Client(address, tenant="overload-admin", timeout=120.0)
    with admin:
        # Phase 1 — prewarm the one kernel the flood and the probes use,
        # so flood slowness is pure execution (not compilation) and the
        # interactive probes are cache hits brownout keeps serving.
        # Measure the service time of one flood op while we are at it:
        # the deadline calibrates to it, so the expiry proof holds on
        # fast and slow hosts alike.
        admin.compile(warm_kernel)
        M, N, K = config.flood_shape
        service_samples = []
        for _ in range(3):
            started = time.perf_counter()
            admin.request(
                "run", {"arch": config.arch, "M": M, "N": N, "K": K}
            )
            service_samples.append(1e3 * (time.perf_counter() - started))
        service_ms = sorted(service_samples)[1]  # median of three
        deadline_ms = config.flood_deadline_ms
        if deadline_ms is None:
            deadline_ms = max(50.0, 2.5 * service_ms)
        health_before = admin.health()

        flood_outcomes: List[Optional[Dict[str, Any]]] = [None] * len(plan)
        # Flood threads + the probe thread + this coordinator all
        # release together, so offset 0.0 means "the moment the spike
        # starts", not "whenever thread i got scheduled".
        barrier = threading.Barrier(len(plan) + 2)
        spike_clock: Dict[str, float] = {}

        def flood_one(i: int, entry: Dict[str, Any]) -> None:
            # Open loop: every request owns a connection and a thread,
            # and fires at its seeded offset regardless of how the
            # daemon is coping — a blocked request never delays the next
            # arrival (the self-throttling a closed-loop generator
            # cannot avoid).  Connections are opened before the barrier
            # so connect() cost cannot skew arrivals.
            with Client(
                address, tenant="flood", timeout=60.0, retry=False
            ) as client:
                barrier.wait()
                delay = entry["offset_s"] - (
                    time.perf_counter() - spike_clock["start"]
                )
                if delay > 0:
                    time.sleep(delay)
                started = time.perf_counter()
                response = client.request_response(
                    "run",
                    {"arch": config.arch, "M": M, "N": N, "K": K},
                    priority=entry["priority"],
                    deadline_ms=deadline_ms,
                )
                outcome = _outcome(
                    response, 1e3 * (time.perf_counter() - started)
                )
                outcome["priority"] = entry["priority"]
                flood_outcomes[i] = outcome

        probe_outcomes: List[Dict[str, Any]] = []

        def probe() -> None:
            # Interactive cached compiles, evenly spaced across the
            # spike and its tail — the latency the flood must not hurt.
            with Client(
                address, tenant="probe", timeout=60.0, retry=False
            ) as client:
                barrier.wait()
                for _ in range(config.probes):
                    started = time.perf_counter()
                    response = client.request_response(
                        "compile", warm_kernel, priority="interactive"
                    )
                    probe_outcomes.append(
                        _outcome(
                            response, 1e3 * (time.perf_counter() - started)
                        )
                    )
                    time.sleep(config.probe_interval_s)

        # Phase 2 — the spike.
        flood_threads = [
            threading.Thread(target=flood_one, args=(i, entry), daemon=True)
            for i, entry in enumerate(plan)
        ]
        probe_thread = threading.Thread(target=probe, daemon=True)
        for thread in flood_threads:
            thread.start()
        probe_thread.start()
        spike_clock["start"] = time.perf_counter()
        barrier.wait()

        # Phase 3 — watch the health surface flip to brownout, then
        # probe the degraded tier: a warm compile must still be served,
        # a cold one must fast-fail with DegradedModeError.
        states_seen: List[str] = []
        brownout_warm: Optional[Dict[str, Any]] = None
        brownout_cold: List[Dict[str, Any]] = []
        watch_deadline = time.perf_counter() + config.flood_window_s + 10.0
        while time.perf_counter() < watch_deadline:
            state = admin.health()["state"]
            if not states_seen or states_seen[-1] != state:
                states_seen.append(state)
            if state == "brownout" and brownout_warm is None:
                started = time.perf_counter()
                response = admin.request_response(
                    "compile", warm_kernel, priority="interactive"
                )
                brownout_warm = _outcome(
                    response, 1e3 * (time.perf_counter() - started)
                )
                for kernel in _BROWNOUT_COLD_KERNELS:
                    response = admin.request_response(
                        "compile",
                        {"arch": config.arch, **kernel},
                        priority="interactive",
                    )
                    brownout_cold.append(_outcome(response, 0.0))
            if brownout_warm is not None and not any(
                thread.is_alive() for thread in flood_threads
            ):
                break
            time.sleep(0.05)
        for thread in flood_threads:
            thread.join(timeout=60.0)
        probe_thread.join(timeout=60.0)

        # Phase 4 — recovery: with the spike gone, idle observations
        # decay the EWMA below the exit threshold; wait for healthy.
        recovery_started = time.perf_counter()
        recovered = False
        while time.perf_counter() - recovery_started < config.recovery_timeout_s:
            if admin.health()["state"] == "healthy":
                recovered = True
                break
            time.sleep(0.05)
        recovery_s = time.perf_counter() - recovery_started

        health_after = admin.health()
        stats = admin.stats()["server"]

    flood_done = [o for o in flood_outcomes if o is not None]
    counters = stats["counters"]
    queue_stats = stats["pool"]["queue"]
    brownout_stats = (stats["overload"] or {}).get("brownout") or {}

    def error_counts(outcomes: Sequence[Dict[str, Any]]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in outcomes:
            if not outcome["ok"]:
                name = outcome["error"] or "unknown"
                counts[name] = counts.get(name, 0) + 1
        return counts

    expired_total = (
        counters["deadline_expired_queue"]
        + counters["deadline_expired_dispatch"]
    )
    expired_executed = sum(
        1
        for o in flood_done
        if o["error"] == "DeadlineExceededError" and o["executed"]
    )
    probe_latencies = sorted(
        o["latency_ms"] for o in probe_outcomes if o["ok"]
    )
    cold_rejected = sum(
        1 for o in brownout_cold if o["error"] == "DegradedModeError"
    )
    retry_hints = [
        o["retry_after_s"]
        for o in flood_done
        if o["retry_after_s"] is not None
    ]

    return {
        "figure": "serve_overload",
        "arch": config.arch,
        "scenario": {
            "seed": config.seed,
            "flood_requests": config.flood_requests,
            "flood_window_s": config.flood_window_s,
            "warmup_fraction": config.warmup_fraction,
            "flood_deadline_ms": round(deadline_ms, 3),
            "deadline_calibrated": config.flood_deadline_ms is None,
            "service_time_ms": round(service_ms, 3),
            "flood_shape": list(config.flood_shape),
            "probes": config.probes,
            "workers": config.workers,
            "max_queue_depth": config.max_queue_depth,
            "brownout_enter_ms": config.brownout_enter_ms,
            "brownout_exit_ms": config.brownout_exit_ms,
            "brownout_dwell_s": config.brownout_dwell_s,
            "arrival_digest": trace_digest(
                [
                    {
                        "offset_us": int(1e6 * e["offset_s"]),
                        "priority": e["priority"],
                    }
                    for e in plan
                ]
            ),
        },
        "flood": {
            "sent": len(flood_done),
            "ok": sum(1 for o in flood_done if o["ok"]),
            "errors": error_counts(flood_done),
            "priorities": {
                p: sum(1 for e in plan if e["priority"] == p)
                for p in ("batch", "warmup")
            },
        },
        "interactive": {
            "probes": len(probe_outcomes),
            "ok": len(probe_latencies),
            "errors": error_counts(probe_outcomes),
            "p50_ms": round(percentile(probe_latencies, 0.50), 3),
            "p99_ms": round(percentile(probe_latencies, 0.99), 3),
            "max_ms": round(probe_latencies[-1], 3) if probe_latencies else 0.0,
        },
        "deadlines": {
            "expired_in_queue": counters["deadline_expired_queue"],
            "expired_at_dispatch": counters["deadline_expired_dispatch"],
            "expired_total": expired_total,
            "expired_executed": expired_executed,
            "proof_zero_expired_dispatched": (
                expired_total > 0 and expired_executed == 0
            ),
        },
        "shedding": {
            "rejected": counters["overload_rejected"],
            "shed": counters["overload_shed"],
            "queue": {
                "caps": queue_stats["caps"],
                "high_water": queue_stats["high_water"],
                "rejected": queue_stats["rejected"],
                "shed": queue_stats["shed"],
                "expired": queue_stats["expired"],
            },
            "retry_after_s": {
                "hints": len(retry_hints),
                "min": round(min(retry_hints), 3) if retry_hints else None,
                "max": round(max(retry_hints), 3) if retry_hints else None,
            },
        },
        "brownout": {
            "entered": brownout_stats.get("entered", 0),
            "exited": brownout_stats.get("exited", 0),
            "states_seen": states_seen,
            "state_before": health_before["state"],
            "state_after": health_after["state"],
            "recovered": recovered,
            "recovery_s": round(recovery_s, 3),
            "warm_served": brownout_warm,
            "cold_probes": len(brownout_cold),
            "cold_rejected": cold_rejected,
            "warm_served_counter": counters["brownout_warm_served"],
            "rejected_counter": counters["brownout_rejected"],
            "transitions": brownout_stats.get("transitions", []),
        },
        "proofs": {
            "zero_expired_dispatched": (
                expired_total > 0 and expired_executed == 0
            ),
            "interactive_p99_bounded": bool(probe_latencies),
            "brownout_entered": brownout_stats.get("entered", 0) >= 1,
            "brownout_recovered": recovered,
        },
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _main_overload(args) -> int:
    """The ``--scenario overload`` leg of :func:`main`."""
    scenario = OverloadScenario(
        seed=args.seed,
        flood_requests=args.flood_requests,
        flood_window_s=args.flood_window,
        flood_deadline_ms=args.flood_deadline_ms,
        max_queue_depth=args.max_queue_depth,
        brownout_enter_ms=args.brownout_enter_ms,
        brownout_exit_ms=args.brownout_exit_ms,
        arch=args.arch,
    )
    payload = run_overload_bench(scenario)

    flood = payload["flood"]
    deadlines = payload["deadlines"]
    interactive = payload["interactive"]
    brownout = payload["brownout"]
    print(
        f"spike: {flood['sent']} open-loop requests over "
        f"{payload['scenario']['flood_window_s']}s against "
        f"{payload['scenario']['workers']} worker(s); "
        f"{flood['ok']} served, errors {flood['errors']}"
    )
    print(
        f"deadlines: {deadlines['expired_in_queue']} expired in queue, "
        f"{deadlines['expired_at_dispatch']} at dispatch, "
        f"{deadlines['expired_executed']} executed by a worker "
        f"({'OK' if deadlines['proof_zero_expired_dispatched'] else 'VIOLATED'})"
    )
    print(
        f"interactive probes: {interactive['ok']}/{interactive['probes']} ok, "
        f"p50 {interactive['p50_ms']} ms, p99 {interactive['p99_ms']} ms"
    )
    print(
        f"brownout: entered {brownout['entered']}x, exited "
        f"{brownout['exited']}x, states {'>'.join(brownout['states_seen'])}, "
        f"recovery {brownout['recovery_s']}s, warm served "
        f"{brownout['warm_served_counter']}, cold rejected "
        f"{brownout['rejected_counter']}"
    )
    print(
        f"shedding: {payload['shedding']['rejected']} rejected, "
        f"{payload['shedding']['shed']} shed, queue high-water "
        f"{payload['shedding']['queue']['high_water']} "
        f"(caps {payload['shedding']['queue']['caps']})"
    )
    print(
        f"arrival digest {payload['scenario']['arrival_digest'][:16]} "
        f"(seed {args.seed})"
    )

    output = args.output
    if output == "BENCH_serve.json":  # scenario-specific default
        output = "BENCH_serve_overload.json"
    if output != "-":
        from repro.bench.harness import write_bench_file

        path = write_bench_file(output, payload)
        print(f"wrote {path}")

    failed = False
    if args.assert_proofs:
        for name, held in payload["proofs"].items():
            if not held:
                print(f"FAIL: proof {name} violated", file=sys.stderr)
                failed = True
    if (
        args.assert_interactive_p99_ms is not None
        and interactive["p99_ms"] > args.assert_interactive_p99_ms
    ):
        print(
            f"FAIL: interactive p99 {interactive['p99_ms']} ms exceeds "
            f"{args.assert_interactive_p99_ms} ms",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.loadgen",
        description="Replay a seeded multi-tenant trace against the "
        "compilation daemon and report serving metrics.",
    )
    parser.add_argument(
        "--scenario", choices=("mixed", "overload"), default="mixed",
        help="'mixed': closed-loop multi-tenant window (BENCH_serve); "
        "'overload': open-loop arrival spike against a bounded, "
        "brownout-enabled daemon (BENCH_serve_overload)",
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--requests", type=int, default=1200)
    parser.add_argument(
        "--tenants", type=int, default=4,
        help="number of concurrent tenants (default: 4)",
    )
    parser.add_argument("--arch", default="toy",
                        choices=("toy", "sw26010", "sw26010pro"))
    parser.add_argument("--tunes", type=int, default=2)
    parser.add_argument(
        "--host", default=None,
        help="replay against a running daemon instead of self-hosting",
    )
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--socket-path", default=None, metavar="PATH")
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker threads of the self-hosted daemon (default: 4)",
    )
    parser.add_argument(
        "--output", default="BENCH_serve.json", metavar="FILE",
        help="payload destination at the repo root ('-' prints only)",
    )
    parser.add_argument(
        "--assert-p99-ms", type=float, default=None, metavar="MS",
        help="fail (exit 1) if overall p99 latency exceeds MS",
    )
    parser.add_argument(
        "--assert-hit-rate", type=float, default=None, metavar="FRACTION",
        help="fail (exit 1) if the cache hit rate is below FRACTION",
    )
    parser.add_argument(
        "--flood-requests", type=int, default=60,
        help="[overload] spike size (default: 60)",
    )
    parser.add_argument(
        "--flood-window", type=float, default=1.0, metavar="SECONDS",
        help="[overload] spike arrival window (default: 1.0)",
    )
    parser.add_argument(
        "--flood-deadline-ms", type=float, default=None, metavar="MS",
        help="[overload] per-request end-to-end budget (default: "
        "self-calibrated to ~2.5 measured service times)",
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=8, metavar="N",
        help="[overload] daemon queue bound under test (default: 8)",
    )
    parser.add_argument(
        "--brownout-enter-ms", type=float, default=150.0, metavar="MS",
        help="[overload] brownout entry threshold (default: 150)",
    )
    parser.add_argument(
        "--brownout-exit-ms", type=float, default=75.0, metavar="MS",
        help="[overload] brownout exit threshold (default: 75)",
    )
    parser.add_argument(
        "--assert-interactive-p99-ms", type=float, default=None, metavar="MS",
        help="[overload] fail (exit 1) if interactive-probe p99 exceeds MS",
    )
    parser.add_argument(
        "--assert-proofs", action="store_true",
        help="[overload] fail (exit 1) unless every structural proof "
        "holds: >0 deadline expirations, 0 expired dispatches, brownout "
        "entered and recovered",
    )
    args = parser.parse_args(argv)

    if args.scenario == "overload":
        return _main_overload(args)

    tenant_names = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                    "eta", "theta")
    config = TraceConfig(
        seed=args.seed,
        requests=args.requests,
        tenants=tenant_names[: max(1, min(args.tenants, len(tenant_names)))],
        arch=args.arch,
        tunes=args.tunes,
    )
    address = None
    if args.socket_path:
        address = args.socket_path
    elif args.host or args.port:
        address = (args.host or "127.0.0.1", args.port or 7070)
    payload = run_serve_bench(config, address=address, workers=args.workers)

    lat = payload["latency_ms"]
    print(
        f"replayed {payload['trace']['requests']} requests from "
        f"{len(payload['trace']['tenants'])} tenant(s) in "
        f"{payload['wall_seconds']}s ({payload['throughput_rps']} req/s)"
    )
    print(
        f"latency p50 {lat['p50']} ms, p90 {lat['p90']} ms, "
        f"p99 {lat['p99']} ms, max {lat['max']} ms"
    )
    dedup = payload["dedup"]
    print(
        f"dedup proof: {dedup['compiles_executed_window']} compiles < "
        f"{dedup['unique_keys_window']} unique kernels <= "
        f"{dedup['requests_window']} requests "
        f"({'OK' if dedup['proof_strict'] else 'VIOLATED'})"
    )
    print(
        f"cache hit rate {payload['cache']['hit_rate']:.1%} "
        f"{payload['cache']['sources']}; "
        f"quota window/burst rejected "
        f"{payload['quota']['rejected_window']}/"
        f"{payload['quota']['burst_rejected']}; "
        f"errors {payload['errors']}"
    )
    print(f"trace digest {payload['trace']['digest'][:16]} (seed {args.seed})")

    if args.output != "-":
        from repro.bench.harness import write_bench_file

        path = write_bench_file(args.output, payload)
        print(f"wrote {path}")

    failed = False
    if not dedup["proof_strict"]:
        print("FAIL: single-flight dedup inequality violated", file=sys.stderr)
        failed = True
    if args.assert_p99_ms is not None and lat["p99"] > args.assert_p99_ms:
        print(
            f"FAIL: p99 {lat['p99']} ms exceeds {args.assert_p99_ms} ms",
            file=sys.stderr,
        )
        failed = True
    if (
        args.assert_hit_rate is not None
        and payload["cache"]["hit_rate"] < args.assert_hit_rate
    ):
        print(
            f"FAIL: hit rate {payload['cache']['hit_rate']:.3f} below "
            f"{args.assert_hit_rate}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
