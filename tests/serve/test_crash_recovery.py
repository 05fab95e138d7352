"""Crash recovery, in process: journal replay and chaos containment.

These tests build the same daemon the CLI boots (via
``start_in_thread``) but drive the crash states directly: a journal
pre-loaded with accepted-but-never-completed requests stands in for a
killed predecessor, and the fault plane's 100 %-rate compile streams
make one tenant's kernel deterministically poisonous while other
tenants keep compiling.  The subprocess ``kill -9`` variant lives in
``tests/integration/test_cli_serve_recovery.py``.
"""

import threading
import time

import pytest

from repro.errors import PoisonedKernelError, WorkerCrashError
from repro.serve.client import Client, RemoteError
from repro.serve.journal import RequestJournal
from repro.serve.server import ServeConfig, start_in_thread
from repro.service import CompileService, ServiceConfig


def _wait_for_replay(client, timeout_s: float = 30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        stats = client.stats()["server"]
        if stats["journal"]["replay_pending"] == 0:
            return stats
        time.sleep(0.05)
    raise AssertionError("journal replay never finished")


def _accepted(op, params, tenant="t", rid="r"):
    return {
        "id": rid,
        "op": op,
        "tenant": tenant,
        "priority": "interactive",
        "params": params,
    }


# -- journal replay -----------------------------------------------------------


def test_pending_requests_replay_on_boot(tmp_path):
    journal = RequestJournal(tmp_path / "journal")
    journal.record_accepted(_accepted("compile", {"arch": "toy"}, rid="r1"))
    journal.record_accepted(
        _accepted("compile", {"arch": "toy", "trans_a": True}, rid="r2")
    )
    done = journal.record_accepted(
        _accepted("compile", {"arch": "toy", "trans_b": True}, rid="r3")
    )
    journal.record_completed(done)  # acknowledged before the "crash"
    journal.close()  # no tombstones for r1/r2: the daemon died mid-job

    service = CompileService(ServiceConfig(cache_dir=tmp_path / "cache"))
    handle = start_in_thread(
        service,
        ServeConfig(workers=2, quota=None,
                    journal_dir=str(tmp_path / "journal")),
    )
    try:
        with Client(handle.address, tenant="probe") as client:
            stats = _wait_for_replay(client)
            assert stats["counters"]["replayed"] == 2
            assert stats["counters"]["replay_failed"] == 0
            assert stats["journal"]["recovered_pending"] == 2
            # The replayed kernels are already cached for tenants.
            assert client.compile({"arch": "toy"})["source"] != "compiled"
            assert (
                client.compile({"arch": "toy", "trans_a": True})["source"]
                != "compiled"
            )
            # The completed one was NOT replayed: compiling it is fresh.
            assert (
                client.compile({"arch": "toy", "trans_b": True})["source"]
                == "compiled"
            )
    finally:
        handle.stop()
    # Every replayed entry was tombstoned: the next boot has nothing.
    reopened = RequestJournal(tmp_path / "journal")
    assert len(reopened.pending()) == 0
    reopened.close()


def test_unparseable_journal_entry_is_tombstoned_not_fatal(tmp_path):
    journal = RequestJournal(tmp_path / "journal")
    journal.record_accepted({"op": "no-such-op", "params": {}})
    journal.record_accepted(_accepted("compile", {"arch": "toy"}))
    journal.close()
    handle = start_in_thread(
        None,
        ServeConfig(workers=1, quota=None,
                    journal_dir=str(tmp_path / "journal")),
    )
    try:
        with Client(handle.address, tenant="probe") as client:
            stats = _wait_for_replay(client)
            assert stats["counters"]["replayed"] == 1
            assert stats["counters"]["replay_failed"] == 1
    finally:
        handle.stop()
    reopened = RequestJournal(tmp_path / "journal")
    assert len(reopened.pending()) == 0  # the garbage cannot wedge boots
    reopened.close()


def test_journaled_schedule_object_is_tombstoned_not_fatal(tmp_path):
    """A compile journaled with a ``{"mode", "allow"}`` schedule object
    (the retired rewrite filter) fails its replay, is tombstoned, and
    the daemon keeps serving."""
    journal = RequestJournal(tmp_path / "journal")
    journal.record_accepted(_accepted(
        "compile",
        {"arch": "toy",
         "schedule": {"mode": "optimize", "allow": ["reorder-issues"]}},
        rid="filtered",
    ))
    journal.close()
    handle = start_in_thread(
        CompileService(ServiceConfig(cache_dir=tmp_path / "cache")),
        ServeConfig(workers=1, quota=None,
                    journal_dir=str(tmp_path / "journal")),
    )
    try:
        with Client(handle.address, tenant="probe") as client:
            stats = _wait_for_replay(client)
            assert stats["counters"]["replayed"] == 1
            assert stats["counters"]["replay_failed"] == 1
            # The refused replay compiled nothing under the mode alone.
            result = client.compile({"arch": "toy", "schedule": "optimize"})
            assert result["source"] == "compiled"
    finally:
        handle.stop()
    reopened = RequestJournal(tmp_path / "journal")
    assert len(reopened.pending()) == 0
    reopened.close()


def test_acknowledged_requests_are_tombstoned_live(tmp_path):
    handle = start_in_thread(
        None,
        ServeConfig(workers=1, quota=None,
                    journal_dir=str(tmp_path / "journal")),
    )
    try:
        with Client(handle.address, tenant="t") as client:
            client.compile({"arch": "toy"})
            client.ping()  # probes are not journaled
            stats = client.stats()["server"]
            assert stats["counters"]["journaled"] == 1
            assert stats["journal"]["pending"] == 0  # tombstoned pre-ack
    finally:
        handle.stop()


def test_journal_on_read_only_dir_degrades_and_daemon_serves(tmp_path):
    import os

    if os.geteuid() == 0:
        pytest.skip("root ignores directory permissions")
    jdir = tmp_path / "journal"
    jdir.mkdir()
    jdir.chmod(0o500)
    try:
        handle = start_in_thread(
            None,
            ServeConfig(workers=1, quota=None, journal_dir=str(jdir)),
        )
        try:
            with Client(handle.address, tenant="t") as client:
                result = client.compile({"arch": "toy"})
                assert result["source"] == "compiled"
                stats = client.stats()["server"]
                assert stats["journal"]["degraded"] is True
                assert stats["counters"]["journal_dropped"] == 1
        finally:
            handle.stop()
    finally:
        jdir.chmod(0o700)


# -- chaos containment (the acceptance scenario) ------------------------------


def test_poisoned_kernel_is_quarantined_while_other_tenants_succeed(tmp_path):
    """ISSUE 7 acceptance: a compile that kills its worker is contained
    and quarantined while concurrent tenants' requests complete."""
    service = CompileService(ServiceConfig(cache_dir=tmp_path / "cache"))
    handle = start_in_thread(
        service,
        ServeConfig(workers=2, quota=None, isolation="process",
                    poison_threshold=2, worker_deadline_s=30.0),
    )
    poison_params = {
        "arch": "toy",
        "trans_a": True,
        "fault_policy": {
            "enabled": True,
            "seed": 7,
            "compile_crash_rate": 1.0,
        },
    }
    clean_errors = []

    def clean_tenant(i):
        try:
            with Client(handle.address, tenant=f"clean-{i}") as client:
                result = client.compile({"arch": "toy", "trans_b": bool(i)})
                if result["key"] is None:
                    raise AssertionError("no key")
        except Exception as exc:  # collected, asserted on the main thread
            clean_errors.append(exc)

    try:
        with Client(handle.address, tenant="poison") as client:
            threads = [
                threading.Thread(target=clean_tenant, args=(i,))
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for attempt in range(2):  # poison_threshold=2
                with pytest.raises(WorkerCrashError, match="worker died"):
                    client.compile(dict(poison_params))
            with pytest.raises(PoisonedKernelError, match="quarantined"):
                client.compile(dict(poison_params))
            for t in threads:
                t.join(timeout=30.0)
            assert not clean_errors, clean_errors
            stats = client.stats()["server"]
            assert stats["isolation"]["crashes"] == 2
            assert stats["isolation"]["restarts"] >= 2
            assert len(stats["isolation"]["poison"]["quarantined"]) == 1
    finally:
        handle.stop()
    # The quarantine survives the daemon: it landed in the cache dir
    # and `swgemm cache stats` reports it.
    from repro.service.store import ArtifactStore

    store = ArtifactStore(tmp_path / "cache")
    assert len(store.poison_keys()) == 1


def test_hung_compile_is_killed_while_other_tenants_succeed(tmp_path):
    handle = start_in_thread(
        CompileService(ServiceConfig(cache_dir=tmp_path / "cache")),
        ServeConfig(workers=2, quota=None, isolation="process",
                    worker_deadline_s=1.0),
    )
    hang_params = {
        "arch": "toy",
        "trans_a": True,
        "fault_policy": {
            "enabled": True,
            "seed": 7,
            "compile_hang_rate": 1.0,
            "compile_hang_s": 60.0,
        },
    }
    try:
        with Client(handle.address, tenant="hang", timeout=30.0) as client:
            started = time.monotonic()
            with pytest.raises(RemoteError) as excinfo:
                client.compile(hang_params)
            assert excinfo.value.remote_type == "CompileTimeout"
            assert time.monotonic() - started < 20.0  # killed, not waited
            # The daemon survived the kill; a clean compile succeeds.
            assert client.compile({"arch": "toy"})["source"] == "compiled"
            stats = client.stats()["server"]
            assert stats["isolation"]["timeouts"] == 1
            assert stats["isolation"]["kills"] == 1
    finally:
        handle.stop()


def test_process_isolation_serves_cache_hits_without_workers(tmp_path):
    # A poisoned *key* with a cached artifact still serves: quarantine
    # guards compilation, not the cache.
    service = CompileService(ServiceConfig(cache_dir=tmp_path / "cache"))
    handle = start_in_thread(
        service,
        ServeConfig(workers=1, quota=None, isolation="process"),
    )
    try:
        with Client(handle.address, tenant="t") as client:
            first = client.compile({"arch": "toy"})
            assert first["source"] == "compiled"
            again = client.compile({"arch": "toy"})
            assert again["source"] == "memory"
    finally:
        handle.stop()
