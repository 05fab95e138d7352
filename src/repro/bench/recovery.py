"""Crash-recovery benchmark for the serving daemon.

Two questions, one payload (``BENCH_serve_recovery.json``):

1. **What does subprocess isolation cost?**  The same seeded trace is
   replayed against two self-hosted daemons — one with the in-thread
   compile path, one with ``--isolation process`` — and the p50/p99
   windows are reported side by side.  The overhead is dominated by the
   pipe round-trip per *miss*; hits never touch a worker, so a warm
   daemon pays close to nothing.

2. **How fast does a killed daemon recover, and does it lose work?**
   A real ``swgemm serve`` subprocess is booted with a journal, a set
   of compiles is acknowledged, one request is wedged in flight on a
   hang kernel, and the daemon is ``SIGKILL``ed.  The journal is then
   scanned non-mutatingly (the evidence), the daemon is restarted on
   the same directories, and the payload records the boot-to-replayed
   window plus the zero-lost-acknowledged-work check: every key acked
   before the kill must be served from cache after it.

Run it standalone::

    python -m repro.bench.recovery --requests 300 --seed 2022

``--assert-recovery-s`` and ``--assert-zero-lost`` turn it into the CI
chaos gate; ``--work-dir`` pins the crash phase's directories somewhere
inspectable (CI uploads the journal from there on failure).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.bench.loadgen import (
    TraceConfig,
    generate_trace,
    percentile,
    replay,
    trace_digest,
)
from repro.serve.client import Client
from repro.serve.journal import scan_segments

#: The wedge kernel: hangs its isolated worker far past the SIGKILL.
HANG_PARAMS: Dict[str, Any] = {
    "arch": "toy",
    "trans_a": True,
    "fault_policy": {
        "enabled": True,
        "seed": 7,
        "compile_hang_rate": 1.0,
        "compile_hang_s": 120.0,
    },
}

#: Distinct kernels acknowledged before the kill (each key must survive).
ACKED_KERNELS = (
    {"arch": "toy"},
    {"arch": "toy", "trans_b": True},
    {"arch": "toy", "use_asm": False},
    {"arch": "toy", "enable_rma": False},
)


# ---------------------------------------------------------------------------
# Phase 1 — isolation overhead (thread vs process)
# ---------------------------------------------------------------------------


def _measure_isolation(
    config: TraceConfig, isolation: str, workers: int
) -> Dict[str, Any]:
    from repro.serve import ServeConfig, start_in_thread
    from repro.service import CompileService

    service = CompileService()
    handle = start_in_thread(
        service,
        ServeConfig(workers=workers, quota=None, isolation=isolation),
    )
    try:
        result = replay(handle.address, generate_trace(config))
    finally:
        handle.stop()
    latencies = result.latencies_ms()
    compile_lat = sorted(
        o["latency_ms"]
        for o in result.outcomes
        if o["op"] == "compile" and o["ok"]
    )
    return {
        "isolation": isolation,
        "requests": len(result.outcomes),
        "errors": sum(1 for o in result.outcomes if not o["ok"]),
        "wall_seconds": round(result.wall_seconds, 3),
        "p50_ms": round(percentile(latencies, 0.50), 3),
        "p99_ms": round(percentile(latencies, 0.99), 3),
        "compile_p50_ms": round(percentile(compile_lat, 0.50), 3),
        "compile_p99_ms": round(percentile(compile_lat, 0.99), 3),
    }


# ---------------------------------------------------------------------------
# Phase 2 — kill -9 / restart
# ---------------------------------------------------------------------------


def _boot_daemon(
    work_dir: Path, ready_name: str, deadline_s: float
) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--cache-dir", str(work_dir / "cache"),
            "--journal-dir", str(work_dir / "journal"),
            "--isolation", "process",
            "--worker-deadline", str(deadline_s),
            "--ready-file", str(work_dir / ready_name),
            "--workers", "2",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def _await_ready(
    process: subprocess.Popen, ready: Path, timeout_s: float = 30.0
):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            return json.loads(ready.read_text())
        if process.poll() is not None:
            raise RuntimeError("daemon exited before becoming ready")
        time.sleep(0.05)
    process.kill()
    raise RuntimeError("daemon never wrote the ready file")


def _addr(info: Dict[str, Any]):
    return info["socket"] if info["socket"] else (info["host"], info["port"])


def _crash_phase(work_dir: Path) -> Dict[str, Any]:
    work_dir.mkdir(parents=True, exist_ok=True)
    process = _boot_daemon(work_dir, "ready-1.json", deadline_s=120.0)
    info = _await_ready(process, work_dir / "ready-1.json")
    acked: List[Dict[str, Any]] = []
    try:
        with Client(_addr(info), tenant="acked", timeout=60.0) as client:
            for params in ACKED_KERNELS:
                result = client.compile(dict(params))
                acked.append({"params": dict(params), "key": result["key"]})

        def wedge() -> None:
            try:
                with Client(_addr(info), tenant="wedged",
                            timeout=300.0) as victim:
                    victim.compile(dict(HANG_PARAMS))
            except Exception:
                pass  # severed by the SIGKILL — the point of the phase

        hang = threading.Thread(target=wedge, daemon=True)
        hang.start()
        with Client(_addr(info), tenant="probe", timeout=60.0) as probe:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                counters = probe.stats()["server"]["counters"]
                if counters["journaled"] >= len(acked) + 1:
                    break
                time.sleep(0.05)
            else:
                raise RuntimeError("wedge request never reached the journal")

        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=10.0)
        hang.join(timeout=10.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)

    pending, scan_counters = scan_segments(work_dir / "journal")

    # Restart on the same directories; the tight deadline makes the
    # replayed hang fail fast instead of sleeping out its 120 s.
    restart_started = time.perf_counter()
    restarted = _boot_daemon(work_dir, "ready-2.json", deadline_s=2.0)
    lost: List[str] = []
    try:
        info = _await_ready(restarted, work_dir / "ready-2.json")
        ready_seconds = time.perf_counter() - restart_started
        with Client(_addr(info), tenant="verify", timeout=60.0) as client:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                stats = client.stats()["server"]
                if stats["journal"]["replay_pending"] == 0:
                    break
                time.sleep(0.05)
            else:
                raise RuntimeError("journal replay never finished")
            recovery_seconds = time.perf_counter() - restart_started
            for entry in acked:
                again = client.compile(dict(entry["params"]))
                if (
                    again["key"] != entry["key"]
                    or again["source"] == "compiled"
                ):
                    lost.append(entry["key"])
            final = client.stats()["server"]
            client.shutdown(drain=True)
        restarted.wait(timeout=30.0)
    finally:
        if restarted.poll() is None:
            restarted.kill()
            restarted.wait(timeout=10.0)

    return {
        "acknowledged_before_kill": len(acked),
        "journal_pending_after_kill": len(pending),
        "journal_records_scanned": scan_counters["records"],
        "ready_seconds": round(ready_seconds, 3),
        "recovery_seconds": round(recovery_seconds, 3),
        "replayed": final["counters"]["replayed"],
        "replay_failed": final["counters"]["replay_failed"],
        "recovered_pending": final["journal"]["recovered_pending"],
        "lost_acknowledged": lost,
        "worker_restarts": final["isolation"]["restarts"],
    }


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------


def run_recovery_bench(
    config: Optional[TraceConfig] = None,
    workers: int = 4,
    work_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """The full benchmark: overhead windows, then the crash phase."""
    config = config or TraceConfig(requests=300)
    trace = generate_trace(config)
    thread_window = _measure_isolation(config, "thread", workers)
    process_window = _measure_isolation(config, "process", workers)
    crash = _crash_phase(
        Path(work_dir)
        if work_dir is not None
        else Path(tempfile.mkdtemp(prefix="swgemm-recovery-"))
    )
    overhead = (
        round(process_window["p99_ms"] / thread_window["p99_ms"], 3)
        if thread_window["p99_ms"]
        else 0.0
    )
    return {
        "figure": "serve_recovery",
        # Machine-readable: every kernel in this benchmark targets the
        # down-scaled functional-test arch.
        "arch": "toy",
        "trace": {
            "seed": config.seed,
            "requests": config.requests,
            "tenants": list(config.tenants),
            "digest": trace_digest(trace),
        },
        "isolation_overhead": {
            "thread": thread_window,
            "process": process_window,
            "p99_overhead_x": overhead,
        },
        "crash": crash,
        "zero_lost_acknowledged": not crash["lost_acknowledged"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.recovery",
        description="Measure isolation overhead and kill -9 recovery of "
        "the compilation daemon.",
    )
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--requests", type=int, default=300,
        help="trace length of the overhead windows (default: 300)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="crash-phase cache/journal location (default: a temp dir)",
    )
    parser.add_argument(
        "--output", default="BENCH_serve_recovery.json", metavar="FILE",
        help="payload destination at the repo root ('-' prints only)",
    )
    parser.add_argument(
        "--assert-recovery-s", type=float, default=None, metavar="S",
        help="fail (exit 1) if boot-to-replayed exceeds S seconds",
    )
    parser.add_argument(
        "--assert-zero-lost", action="store_true",
        help="fail (exit 1) if any acknowledged request was lost",
    )
    args = parser.parse_args(argv)

    config = TraceConfig(seed=args.seed, requests=args.requests)
    payload = run_recovery_bench(
        config,
        workers=args.workers,
        work_dir=Path(args.work_dir) if args.work_dir else None,
    )

    overhead = payload["isolation_overhead"]
    crash = payload["crash"]
    print(
        "isolation overhead: thread p50/p99 "
        f"{overhead['thread']['p50_ms']}/{overhead['thread']['p99_ms']} ms, "
        "process p50/p99 "
        f"{overhead['process']['p50_ms']}/{overhead['process']['p99_ms']} ms "
        f"({overhead['p99_overhead_x']}x p99)"
    )
    print(
        f"crash phase: {crash['acknowledged_before_kill']} acked, "
        f"{crash['journal_pending_after_kill']} pending after kill -9, "
        f"recovered in {crash['recovery_seconds']} s "
        f"({crash['replayed']} replayed, "
        f"{crash['replay_failed']} replay failure(s))"
    )
    print(
        "zero lost acknowledged work: "
        f"{'OK' if payload['zero_lost_acknowledged'] else 'VIOLATED'}"
    )

    if args.output != "-":
        from repro.bench.harness import write_bench_file

        path = write_bench_file(args.output, payload)
        print(f"wrote {path}")

    failed = False
    if args.assert_zero_lost and not payload["zero_lost_acknowledged"]:
        print(
            f"FAIL: lost acknowledged keys {crash['lost_acknowledged']}",
            file=sys.stderr,
        )
        failed = True
    if (
        args.assert_recovery_s is not None
        and crash["recovery_seconds"] > args.assert_recovery_s
    ):
        print(
            f"FAIL: recovery took {crash['recovery_seconds']} s, "
            f"budget {args.assert_recovery_s} s",
            file=sys.stderr,
        )
        failed = True
    if crash["journal_pending_after_kill"] < 1:
        print(
            "FAIL: the kill left no pending journal record — the wedge "
            "never made it to disk",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
