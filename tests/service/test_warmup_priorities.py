"""Warmup routed through the shared priority pool.

``CompileService.warmup()`` must submit its precompiles at the lowest
priority class on whatever pool the daemon attached — so a warmup fleet
can saturate idle workers but never delay interactive traffic — and the
service stats must expose the per-class execution counts that prove it.
"""

import threading

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.core.pipeline import GemmCompiler
from repro.serve.workers import WorkerPool
from repro.service import CompileService, ServiceConfig
from repro.service.service import standard_requests
from repro.sunway.arch import TOY_ARCH


def test_warmup_uses_attached_pool_at_warmup_priority():
    pool = WorkerPool(2, name="test-attached")
    service = CompileService(ServiceConfig())
    service.attach_worker_pool(pool)
    try:
        rows = service.warmup()
        assert len(rows) == len(standard_requests())
        assert all(row["source"] == "compiled" for row in rows)
        stats = pool.stats()
        assert stats["executed"]["warmup"] == len(rows)
        assert stats["executed"]["interactive"] == 0
    finally:
        service.close()
        pool.shutdown(drain=True)


def test_warmup_lazily_builds_private_pool():
    service = CompileService(ServiceConfig(workers=2))
    try:
        assert service.stats()["workers"] is None  # no pool yet
        rows = service.warmup(requests=standard_requests()[:2])
        assert len(rows) == 2
        workers = service.stats()["workers"]
        assert workers is not None
        assert workers["executed"]["warmup"] == 2
    finally:
        service.close()


def test_interactive_preempts_queued_warmup():
    """On a busy 1-worker pool, an interactive job queued *after* a pile
    of warmup jobs still runs before all but the already-started one."""
    order = []
    order_lock = threading.Lock()
    release = threading.Event()

    def gated_compile(spec, arch, options, timeout_s=None):
        # First warmup compile blocks the only worker so everything else
        # queues up behind it; later compiles run instantly.
        with order_lock:
            first = not order
        if first:
            release.wait(timeout=30.0)
        return GemmCompiler(arch, options).compile(spec)

    service = CompileService(ServiceConfig(), compile_fn=gated_compile)
    pool = WorkerPool(1, name="test-preempt")
    service.attach_worker_pool(pool)

    def record(tag):
        with order_lock:
            order.append(tag)

    try:
        warmup_thread = threading.Thread(
            target=lambda: [
                record(f"warmup:{row['key'][:6]}")
                for row in service.warmup(requests=standard_requests()[:4])
            ]
        )
        warmup_thread.start()
        # Wait until the worker is inside the first (gated) warmup job.
        assert _wait_for(lambda: pool.stats()["queue"]["size"] >= 3)
        interactive = pool.submit(
            lambda: record("interactive"),
            priority="interactive",
            tenant="user",
        )
        release.set()
        interactive.result(timeout=30.0)
        warmup_thread.join(timeout=60.0)
        # The interactive job ran ahead of every still-queued warmup job.
        started_after_gate = [t for t in order if t != "warmup:" + order[0][7:]]
        assert order.index("interactive") <= 1, order
        stats = pool.stats()
        assert stats["executed"]["interactive"] == 1
        assert stats["executed"]["warmup"] == 4
        assert started_after_gate  # warmups did complete afterwards
    finally:
        release.set()
        service.close()
        pool.shutdown(drain=True)


def test_stats_expose_priority_classes():
    pool = WorkerPool(1, name="test-stats")
    service = CompileService(ServiceConfig())
    service.attach_worker_pool(pool)
    try:
        pool.submit(lambda: None, priority="interactive", tenant="a").result(5)
        pool.submit(lambda: None, priority="batch", tenant="b").result(5)
        service.warmup(requests=standard_requests()[:1])
        workers = service.stats()["workers"]
        assert workers["executed"] == {
            "interactive": 1,
            "batch": 1,
            "warmup": 1,
        }
        assert set(workers["queue"]["enqueued"]) == {
            "interactive",
            "batch",
            "warmup",
        }
    finally:
        service.close()
        pool.shutdown(drain=True)


def test_attach_replaces_owned_pool():
    service = CompileService(ServiceConfig(workers=1))
    private = service.worker_pool()
    shared = WorkerPool(1, name="test-shared")
    try:
        service.attach_worker_pool(shared)
        assert service.worker_pool() is shared
        # The private pool was drained and shut down on replacement.
        with pytest.raises(Exception):
            private.submit(lambda: None)
        # close() must not shut down a pool the service does not own.
        service.close()
        shared.submit(lambda: None, priority="batch", tenant="t").result(5)
    finally:
        shared.shutdown(drain=True)


def _wait_for(predicate, timeout=30.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False
