"""Serving-path benchmark — the multi-tenant daemon under load.

Boots an in-process ``KernelServer``, replays a seeded mixed trace from
four concurrent tenants through real sockets, and asserts the serving
properties the daemon exists for:

* single-flight dedup — compiles executed < unique kernels requested
  <= requests sent (the prewarmed hot pool makes the first inequality
  strict, and the ``schedule:recipe`` descriptor collapsing onto the
  default key makes unique-keys < descriptors);
* cache hit rate above the floor the CI ``serve`` job also enforces;
* per-tenant token-bucket quotas actually rejecting a burst;
* a sane latency distribution (p99 bounded, nothing hung).

The committed ``BENCH_serve.json`` at the repo root is the full
1200-request run of the same generator (``python -m repro.bench.loadgen``);
this bench uses a smaller trace so the suite stays fast.  The trace is a
pure function of its seed — the digest assertion proves reruns replay
the identical workload even though measured latencies vary.
"""

import pytest

from repro.bench.loadgen import (
    TraceConfig,
    generate_trace,
    run_serve_bench,
    trace_digest,
    unique_kernel_keys,
)

SEED = 2022


@pytest.fixture(scope="module")
def payload():
    return run_serve_bench(
        TraceConfig(seed=SEED, requests=240, tunes=1), workers=4
    )


def test_trace_is_deterministic(benchmark):
    config = TraceConfig(seed=SEED, requests=240)
    first = generate_trace(config)
    second = benchmark(lambda: generate_trace(config))
    assert first == second
    assert trace_digest(first) == trace_digest(second)
    # A different seed is a different workload.
    assert trace_digest(generate_trace(TraceConfig(seed=7, requests=240))) \
        != trace_digest(first)


def test_single_flight_dedup_proof(payload, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    dedup = payload["dedup"]
    assert dedup["proof_strict"]
    assert (
        dedup["compiles_executed_window"]
        < dedup["unique_keys_window"]
        <= dedup["requests_window"]
    )
    # The schedule:recipe descriptor must collapse onto the default key:
    # 11 descriptors, at most 10 distinct kernels.
    config = TraceConfig(seed=SEED, requests=240)
    assert len(unique_kernel_keys(generate_trace(config))) <= 10


def test_cache_hit_rate_and_latency(payload, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert payload["cache"]["hit_rate"] >= 0.5
    assert payload["errors"] == 0
    lat = payload["latency_ms"]
    assert 0 < lat["p50"] <= lat["p99"] <= lat["max"]
    # Generous sanity ceiling — toy-arch ops are milliseconds; a p99 in
    # the tens of seconds means the queue or the pool wedged.
    assert lat["p99"] < 30_000


def test_quotas_enforced_under_burst(payload, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    quota = payload["quota"]
    assert quota["enforced"]
    assert quota["burst_rejected"] > 0
    assert quota["burst_rejected"] < quota["burst_requests"]


def test_tune_ops_served(payload, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert payload["tune"], "tune phase produced no outcomes"
    assert all(outcome["ok"] for outcome in payload["tune"])
