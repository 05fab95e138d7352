"""Crash recovery of the real daemon process: ``kill -9`` + restart.

The in-process suite (``tests/serve/test_crash_recovery.py``) drives the
journal and breaker directly; this one proves the property end-to-end
the way an operator would hit it: boot ``swgemm serve`` as a subprocess
with a journal, get one request acknowledged and one wedged in flight,
``SIGKILL`` the daemon, and restart it on the same directories.  The
acknowledged request must be served from cache after the restart (zero
lost acknowledged work) and the wedged one must be replayed from the
journal — with the pending record visible on disk in between, read
through the non-mutating ``scan_segments`` so the scan itself cannot
launder a broken journal into a passing test.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.serve.journal import scan_segments

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

HANG_PARAMS = {
    "arch": "toy",
    "trans_a": True,
    "fault_policy": {
        "enabled": True,
        "seed": 7,
        "compile_hang_rate": 1.0,
        "compile_hang_s": 120.0,
    },
}


def _boot_daemon(tmp_path, ready_name, *extra_args):
    ready = tmp_path / ready_name
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal-dir", str(tmp_path / "journal"),
            "--isolation", "process",
            "--ready-file", str(ready),
            "--workers", "2",
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        # Its own process group: the daemon's isolation workers share
        # it, so the test can see (and reap) every process it started.
        start_new_session=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            return process, json.loads(ready.read_text())
        if process.poll() is not None:
            raise AssertionError(
                f"daemon exited early:\n{process.stdout.read()}"
            )
        time.sleep(0.05)
    _kill_group(process)
    raise AssertionError("daemon never wrote the ready file")


def _group_members(pgid):
    """Live (non-zombie) processes of one process group."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        state, pgrp = fields[0], int(fields[2])
        if pgrp == pgid and state != "Z":
            members.append(int(stat.parent.name))
    return members


def _wait_group_gone(pgid, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.1)
    return _group_members(pgid)


def _kill_group(process):
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if process.poll() is None:
        process.wait(timeout=10.0)


def _address(info):
    return info["socket"] if info["socket"] else (info["host"], info["port"])


def _wait_for_replay(client, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        stats = client.stats()["server"]
        if stats["journal"]["replay_pending"] == 0:
            return stats
        time.sleep(0.1)
    raise AssertionError("journal replay never finished")


def test_kill9_daemon_replays_journal_and_keeps_acked_work(tmp_path):
    from repro import connect

    process, info = _boot_daemon(
        tmp_path, "ready-1.json", "--worker-deadline", "120"
    )
    try:
        with connect(_address(info), tenant="acked") as client:
            acked = client.compile({"arch": "toy"})
            assert acked["source"] == "compiled" and acked["key"]

        # Wedge one request in flight: the hang kernel sleeps inside its
        # isolated worker well past the moment we SIGKILL the daemon, so
        # its accepted record has no tombstone when the process dies.
        def wedge():
            try:
                with connect(_address(info), tenant="wedged") as victim:
                    victim.compile(HANG_PARAMS)
            except Exception:
                pass  # the SIGKILL below severs this connection

        hang = threading.Thread(target=wedge, daemon=True)
        hang.start()
        with connect(_address(info), tenant="probe") as probe:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                counters = probe.stats()["server"]["counters"]
                if counters["journaled"] >= 2:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("hang request never reached the journal")

        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=10.0)
        hang.join(timeout=10.0)
        # No isolation worker outlives the daemon: the idle one sees EOF
        # on its pipe, the one stalled in the 120 s hang notices it was
        # reparented.
        assert _wait_group_gone(process.pid) == []

        # The wedge survived the crash on disk: exactly one accepted
        # record without a tombstone (the acked compile has one).
        pending, counters = scan_segments(tmp_path / "journal")
        assert len(pending) == 1
        assert [b["op"] for b in pending.values()] == ["compile"]
    finally:
        _kill_group(process)

    # Restart on the same directories.  The tight worker deadline makes
    # the replayed hang fail fast instead of blocking the boot for the
    # full 120 s sleep; either way it must be tombstoned, not retried
    # forever.
    restarted, info = _boot_daemon(
        tmp_path, "ready-2.json", "--worker-deadline", "1"
    )
    try:
        with connect(_address(info), tenant="verify") as client:
            stats = _wait_for_replay(client)
            # The wedged request was re-dispatched; under the 1 s
            # deadline it fails (CompileTimeout) but is tombstoned —
            # at-least-once ends here, never in a retry storm.
            assert stats["counters"]["replayed"] == 1
            assert stats["journal"]["recovered_pending"] == 1
            # Zero lost acknowledged work: the pre-crash compile is
            # served from the cache, not recompiled.
            again = client.compile({"arch": "toy"})
            assert again["key"] == acked["key"]
            assert again["source"] != "compiled"
            client.shutdown(drain=True)
        restarted.wait(timeout=30.0)
        assert restarted.returncode == 0
        output = restarted.stdout.read()
        assert "replaying 1 journaled request(s)" in output
    finally:
        _kill_group(restarted)

    # Nothing left to replay: a third boot would start clean.
    pending, _ = scan_segments(tmp_path / "journal")
    assert pending == {}
