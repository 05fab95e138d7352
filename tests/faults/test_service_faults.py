"""Artifact-store hardening and the single-flight poisoning fix."""

import json
import threading

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.faults import FaultPolicy, RetryPolicy
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import TOY_ARCH


def fresh_service(tmp_path, **config_kw):
    return CompileService(ServiceConfig(cache_dir=tmp_path / "cache", **config_kw))


# -- quarantine ------------------------------------------------------------


def test_truncated_artifact_is_quarantined_and_recompiled(tmp_path):
    service = fresh_service(tmp_path)
    spec = GemmSpec()
    service.get_program(spec, TOY_ARCH)
    key = service.reconciled_key(spec, TOY_ARCH)
    path = service.store.path_for(key)
    path.write_text(path.read_text()[:40])  # truncate mid-JSON

    again = fresh_service(tmp_path)
    program = again.get_program(spec, TOY_ARCH)
    assert program is not None
    stats = again.store.stats()
    assert stats["quarantined"] == 1
    assert stats["quarantine_files"] == 1
    # the corrupt bytes moved aside, and a fresh artifact replaced them
    assert path.exists()
    assert json.loads(path.read_text())["key"] == key
    quarantined = list(again.store.quarantine_dir.glob("*.json"))
    assert len(quarantined) == 1
    assert quarantined[0].read_text() == path.read_text()[:40] \
        or len(quarantined[0].read_text()) == 40


def test_garbage_json_is_quarantined(tmp_path):
    service = fresh_service(tmp_path)
    spec = GemmSpec()
    service.get_program(spec, TOY_ARCH)
    path = service.store.path_for(service.reconciled_key(spec, TOY_ARCH))
    path.write_text('{"key": "valid json, wrong schema"}')
    again = fresh_service(tmp_path)
    assert again.get_program(spec, TOY_ARCH) is not None
    assert again.store.stats()["quarantined"] == 1


def test_quarantine_names_collide_safely(tmp_path):
    service = fresh_service(tmp_path)
    spec = GemmSpec()
    for _ in range(3):
        service.get_program(spec, TOY_ARCH)
        path = service.store.path_for(service.reconciled_key(spec, TOY_ARCH))
        path.write_text("garbage")
        # a fresh service re-reads from disk (memory tier is per-instance)
        service = fresh_service(tmp_path)
        service.get_program(spec, TOY_ARCH)
    files = list(service.store.quarantine_dir.glob("*.json"))
    assert len(files) == 3  # none overwrote another


def test_quarantine_counter_is_persistent(tmp_path):
    service = fresh_service(tmp_path)
    spec = GemmSpec()
    service.get_program(spec, TOY_ARCH)
    path = service.store.path_for(service.reconciled_key(spec, TOY_ARCH))
    path.write_text("garbage")
    again = fresh_service(tmp_path)
    again.get_program(spec, TOY_ARCH)
    # a later `swgemm cache stats` process sees the cumulative count
    later = fresh_service(tmp_path)
    assert later.store.load_persistent_stats().get("quarantined") == 1


def test_injected_artifact_corruption_round_trips(tmp_path):
    """With the artifact fault plane on, every write lands truncated;
    the next read must quarantine it and recompile — the store's own
    chaos loop."""
    chaos = FaultPolicy(enabled=True, seed=0, artifact_corruption_rate=1.0)
    writer = fresh_service(tmp_path, fault_policy=chaos)
    spec = GemmSpec()
    writer.get_program(spec, TOY_ARCH)

    reader = fresh_service(tmp_path)
    program = reader.get_program(spec, TOY_ARCH)
    assert program is not None
    assert reader.store.stats()["quarantined"] == 1


# -- single-flight poisoning fix -------------------------------------------


def test_waiters_reattempt_after_owner_failure():
    """A transiently failing compile must not poison every concurrent
    waiter: they wake, re-attempt as the new owner, and succeed."""
    started = threading.Event()
    gate = threading.Event()
    calls = []
    lock = threading.Lock()

    def flaky_compile(spec, arch, options, timeout_s=None):
        with lock:
            calls.append(1)
            first = len(calls) == 1
        if first:
            started.set()
            assert gate.wait(timeout=10.0)
            raise RuntimeError("transient compile failure")
        from repro.core.pipeline import GemmCompiler

        return GemmCompiler(arch, options).compile(spec)

    service = CompileService(ServiceConfig(), flaky_compile)
    results, errors = [], []

    def request():
        try:
            results.append(service.get_program(GemmSpec(), TOY_ARCH))
        except RuntimeError as exc:
            errors.append(exc)

    owner = threading.Thread(target=request)
    owner.start()
    assert started.wait(timeout=10.0)
    waiters = [threading.Thread(target=request) for _ in range(2)]
    for t in waiters:
        t.start()
    import time

    deadline = time.monotonic() + 10.0
    while service.deduped < 2:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    gate.set()
    owner.join(timeout=10.0)
    for t in waiters:
        t.join(timeout=10.0)

    assert len(errors) == 1      # only the owner sees its own failure
    assert len(results) == 2     # both waiters recovered
    assert service.flight_retries >= 1
    assert service.stats()["single_flight_retries"] >= 1


def test_options_restamped_on_cache_hit():
    """Policies are excluded from cache keys, so a hit for a *chaotic*
    request must come back stamped with the requested policies — not
    whatever the first caller compiled with."""
    service = CompileService(ServiceConfig())
    spec = GemmSpec()
    clean = service.get_program(spec, TOY_ARCH, CompilerOptions.full())
    assert clean.options.fault_policy is None

    chaos = CompilerOptions.full().with_(
        fault_policy=FaultPolicy.chaos(seed=4),
        retry_policy=RetryPolicy(max_retries=7),
    )
    chaotic = service.get_program(spec, TOY_ARCH, chaos)
    assert chaotic.options.fault_policy == FaultPolicy.chaos(seed=4)
    assert chaotic.options.retry_policy.max_retries == 7
    assert service.compile_count == 1  # same artifact served both

    # and back again: a clean request after a chaotic one stays clean
    clean_again = service.get_program(spec, TOY_ARCH, CompilerOptions.full())
    assert clean_again.options.fault_policy is None
    assert service.compile_count == 1
