"""Subprocess worker isolation for the compilation daemon.

PR 6 ran compile jobs on threads *inside* the daemon process, so one
poisoned kernel — a pass that raises ``SystemExit``, spins forever, or
eats the heap — took every tenant down with it.  This module moves the
dangerous part (actual codegen) into a pool of recyclable worker
subprocesses:

* :class:`ProcessIsolation` exposes a ``compile(spec, arch, options,
  timeout_s=None)`` callable with the exact signature
  :class:`~repro.service.service.CompileService` expects from its
  ``compile_fn`` seam, so the daemon swaps it in with
  :meth:`~repro.service.service.CompileService.set_compile_fn` and the
  whole cache/single-flight/admission stack above it is unchanged.
* Job specs are pickled over a :mod:`multiprocessing` pipe; results
  come back as :meth:`~repro.runtime.program.CompiledProgram.to_dict`
  payloads, so a worker crash can never corrupt parent state.
* Every job has a wall-clock deadline.  A worker that blows it is
  hard-killed and replaced; the daemon answers the caller with a
  structured :class:`~repro.errors.CompileTimeout`.
* A worker that dies mid-job (``SystemExit``, signal, OOM-kill) is
  reaped and replaced; the caller gets a
  :class:`~repro.errors.WorkerCrashError`.  Likewise a job whose peak
  RSS exceeds the configured memory budget — the worker is recycled
  before the bloat can accumulate.
* Crashes/timeouts/overruns put a *strike* on the offending
  content-addressed cache key in a :class:`CircuitBreaker`; at
  ``poison_threshold`` strikes the key is quarantined and further
  requests fail fast with :class:`~repro.errors.PoisonedKernelError`
  instead of feeding a retry storm.  After ``cooldown_s`` one half-open
  trial compile is allowed through; success clears the quarantine.

The chaos hooks ride on the request's own
:class:`~repro.faults.FaultPolicy` (``compile_crash_rate`` /
``compile_hang_rate``): the *worker subprocess* draws from the seeded
``compile`` stream, so tests and CI can make a specific kernel crash
or hang deterministically while everything else compiles normally.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_mod
import resource
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set

import repro.errors as errors_mod
from repro.errors import (
    CompilationError,
    CompileTimeout,
    ConfigurationError,
    KernelAdmissionError,
    PoisonedKernelError,
    WorkerCrashError,
)
from repro.service.store import atomic_write


def _peak_rss_mb() -> float:
    """Peak RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: How often a worker that is idle, or stalled in a simulated hang,
#: checks that the daemon that forked it is still its parent.
PARENT_CHECK_S = 0.5


def _worker_main(conn, inherited, parent_pid: int) -> None:
    """Worker-subprocess loop: recv pickled job, compile, send result.

    Clean compiler failures are reported structurally (exception type,
    message and an admission refusal's report; see
    :func:`_failure_reply`) so the parent re-raises them without striking
    the key.
    ``SystemExit``/``KeyboardInterrupt`` intentionally propagate — they
    kill the worker, which is exactly the crash the parent must contain.

    A worker never outlives its daemon.  It first closes the parent-side
    pipe ends it inherited at fork (its own and every earlier
    sibling's): otherwise the workers keep each other's pipes open, and
    a killed daemon's ``recv`` never sees EOF.  It also exits once
    reparented — checked every :data:`PARENT_CHECK_S` while idle and
    while stalled in a simulated hang.
    """
    from repro.core.pipeline import GemmCompiler
    from repro.faults import FaultInjector

    for other in inherited:
        other.close()
    while True:
        try:
            while not conn.poll(PARENT_CHECK_S):
                if os.getppid() != parent_pid:
                    return
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:  # orderly shutdown
            return
        spec, arch, options, timeout_s = job
        policy = getattr(options, "fault_policy", None)
        if policy is not None and policy.enabled:
            injector = FaultInjector(policy).fork("compile")
            if injector.compile_hang():
                # Simulated hung pass: stall until the parent's deadline
                # kills us.  Real wall-clock sleep, not simulated time.
                wake = time.monotonic() + policy.compile_hang_s
                while (left := wake - time.monotonic()) > 0:
                    if os.getppid() != parent_pid:
                        return
                    time.sleep(min(left, PARENT_CHECK_S))
            if injector.compile_crash():
                raise SystemExit(13)  # the segfault-equivalent
        try:
            program = GemmCompiler(arch, options).compile(
                spec, timeout_s=timeout_s
            )
            reply: Dict[str, Any] = {
                "ok": True,
                "program": program.to_dict(),
                "peak_rss_mb": _peak_rss_mb(),
            }
        except Exception as exc:
            reply = _failure_reply(exc)
            reply["peak_rss_mb"] = _peak_rss_mb()
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):
            return


def _failure_reply(exc: Exception) -> Dict[str, Any]:
    """A clean compiler failure as a worker reports it: the exception's
    type name and message and, for an admission refusal, its encoded
    report."""
    reply: Dict[str, Any] = {
        "ok": False,
        "error_type": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, KernelAdmissionError):
        from repro.runtime import serde

        reply["report"] = serde.encode(exc.report)
    return reply


def _rebuild_error(reply: Dict[str, Any]) -> BaseException:
    """A worker's failure reply → the matching local exception; an
    admission refusal gets its report back."""
    type_name = str(reply.get("error_type", "CompilationError"))
    message = str(reply.get("message", "isolated compile failed"))
    if "report" in reply:
        from repro.runtime import serde

        return KernelAdmissionError(message, report=serde.decode(reply["report"]))
    cls = getattr(errors_mod, type_name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            return cls(message)
        except TypeError:
            pass  # exotic constructor signature; fall through
    return CompilationError(f"{type_name}: {message}")


class CircuitBreaker:
    """Per-key strike counter with quarantine, cooldown and half-open.

    Deterministic and clock-injectable (the quotas convention): tests
    drive the state machine with a fake monotonic clock.  State is
    persisted best-effort to ``state_path`` (atomic JSON write; an
    OSError means a read-only cache dir and the breaker simply stays
    session-local, mirroring the artifact store's degradation).
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
        state_path: Optional[Path] = None,
    ) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"poison threshold must be >= 1, got {threshold}"
            )
        if cooldown_s < 0:
            raise ConfigurationError(
                f"cooldown_s must be >= 0, got {cooldown_s}"
            )
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.state_path = Path(state_path) if state_path is not None else None
        self.trips = 0
        self.persist_errors = 0
        self._lock = threading.Lock()
        self._strikes: Dict[str, int] = {}
        self._opened: Dict[str, float] = {}
        self._trial: set = set()
        self._load()

    # -- state machine -------------------------------------------------------

    def check(self, key: str) -> None:
        """Gate one compile attempt; raises for quarantined keys.

        A key past its cooldown admits exactly one half-open trial;
        concurrent attempts during the trial still fail fast."""
        with self._lock:
            opened = self._opened.get(key)
            if opened is None:
                return
            elapsed = self.clock() - opened
            if elapsed >= self.cooldown_s and key not in self._trial:
                self._trial.add(key)
                return
            raise PoisonedKernelError(
                f"kernel {key[:16]}… is quarantined after "
                f"{self._strikes.get(key, self.threshold)} worker "
                f"crashes/timeouts; retry after the "
                f"{self.cooldown_s:g}s cooldown",
                key=key,
                strikes=self._strikes.get(key, self.threshold),
            )

    def record_failure(self, key: str) -> int:
        """One crash/timeout/overrun strike; returns the strike count."""
        with self._lock:
            strikes = self._strikes.get(key, 0) + 1
            self._strikes[key] = strikes
            was_trial = key in self._trial
            self._trial.discard(key)
            if strikes >= self.threshold or was_trial:
                if key not in self._opened or was_trial:
                    self.trips += 1
                self._opened[key] = self.clock()
            self._persist_locked()
            return strikes

    def record_success(self, key: str) -> None:
        """A completed compile clears the key entirely."""
        with self._lock:
            dirty = key in self._strikes or key in self._opened
            self._strikes.pop(key, None)
            self._opened.pop(key, None)
            self._trial.discard(key)
            if dirty:
                self._persist_locked()

    def quarantined(self) -> List[str]:
        with self._lock:
            return sorted(self._opened)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
                "strikes": dict(sorted(self._strikes.items())),
                "quarantined": sorted(self._opened),
                "trips": self.trips,
                "persist_errors": self.persist_errors,
            }

    # -- persistence (best-effort, store convention) -------------------------

    def _load(self) -> None:
        if self.state_path is None:
            return
        try:
            data = json.loads(self.state_path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(data, dict):
            return
        strikes = data.get("strikes")
        if isinstance(strikes, dict):
            self._strikes = {
                str(k): int(v)
                for k, v in strikes.items()
                if isinstance(v, int) and v > 0
            }
        # Quarantine survives restart; monotonic stamps do not, so the
        # cooldown restarts from boot time for previously-open keys.
        now = self.clock()
        for key in data.get("quarantined", []):
            self._opened[str(key)] = now

    def _persist_locked(self) -> None:
        if self.state_path is None:
            return
        payload = {
            "strikes": dict(sorted(self._strikes.items())),
            "quarantined": sorted(self._opened),
        }
        try:
            self.state_path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write(self.state_path, json.dumps(payload, sort_keys=True))
        except OSError:
            self.persist_errors += 1  # read-only cache dir: session-local


class _Worker:
    """One recyclable compile subprocess and its parent-side pipe end.

    ``siblings`` are the parent-side pipe ends of the pool's other live
    workers; the child inherits them at fork and closes them."""

    def __init__(self, ctx, serial: int, siblings: List[Any]) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, [parent_conn, *siblings], os.getpid()),
            name=f"swgemm-isolated-{serial}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.serial = serial
        self.jobs = 0

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)
        # Release the Process object's pipes/semaphores eagerly.
        try:
            self.proc.close()
        except (ValueError, AttributeError):
            pass

    def stop(self, timeout: float = 2.0) -> None:
        """Orderly shutdown: ask nicely, then kill."""
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self.proc.join(timeout=timeout)
        self.kill()


class ProcessIsolation:
    """Recyclable subprocess pool behind the ``compile_fn`` seam."""

    def __init__(
        self,
        workers: int = 2,
        deadline_s: float = 30.0,
        memory_budget_mb: Optional[float] = None,
        poison_threshold: int = 3,
        cooldown_s: float = 300.0,
        recycle_after: int = 64,
        state_path: Optional[Path] = None,
        mp_context: str = "fork",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"isolation pool needs >= 1 worker, got {workers}"
            )
        if deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise ConfigurationError(
                f"memory_budget_mb must be > 0, got {memory_budget_mb}"
            )
        self.workers = workers
        self.deadline_s = deadline_s
        self.memory_budget_mb = memory_budget_mb
        self.recycle_after = max(1, int(recycle_after))
        self.breaker = CircuitBreaker(
            threshold=poison_threshold,
            cooldown_s=cooldown_s,
            clock=clock,
            state_path=state_path,
        )
        self._ctx = multiprocessing.get_context(mp_context)
        self._lock = threading.Lock()
        self._closed = False
        self._serial = 0
        #: Every spawned worker not yet replaced.
        self._live: Set[_Worker] = set()
        self.spawned = 0
        self.restarts = 0
        self.kills = 0
        self.crashes = 0
        self.timeouts = 0
        self.memory_overruns = 0
        self.jobs_ok = 0
        self.peak_rss_mb = 0.0
        self._idle: "queue_mod.Queue[_Worker]" = queue_mod.Queue()
        for _ in range(workers):
            self._idle.put(self._spawn())

    # -- pool plumbing -------------------------------------------------------

    def _spawn(self) -> _Worker:
        # Fork under the lock, so the parent-side pipe ends the child
        # inherits are exactly those of the live workers it is told to
        # close.
        with self._lock:
            self._serial += 1
            self.spawned += 1
            worker = _Worker(
                self._ctx, self._serial, [w.conn for w in self._live]
            )
            self._live.add(worker)
        return worker

    def _replace(self, worker: _Worker, killed: bool = False) -> None:
        """Reap a dead/poisoned worker and put a fresh one in the pool."""
        worker.kill()
        with self._lock:
            self._live.discard(worker)
            self.restarts += 1
            if killed:
                self.kills += 1
            closed = self._closed
        if not closed:
            self._idle.put(self._spawn())

    def _release(self, worker: _Worker) -> None:
        if worker.jobs >= self.recycle_after:
            # Planned recycling bounds leak/fragmentation accumulation.
            self._replace(worker)
        else:
            self._idle.put(worker)

    # -- the compile_fn seam -------------------------------------------------

    def compile(self, spec, arch, options, timeout_s: Optional[float] = None):
        """Compile in a worker subprocess; the ``compile_fn`` contract.

        Raises :class:`PoisonedKernelError` for quarantined keys,
        :class:`CompileTimeout` past the deadline (worker killed),
        :class:`WorkerCrashError` when the worker dies or busts its
        memory budget, and the re-built original exception for clean
        compiler failures."""
        from repro.service.keys import cache_key

        key = cache_key(spec, arch, options)
        self.breaker.check(key)
        deadline = self.deadline_s
        if timeout_s is not None:
            deadline = min(deadline, float(timeout_s))
        worker = self._idle.get()
        timed_out = False
        reply: Optional[Dict[str, Any]] = None
        try:
            worker.conn.send((spec, arch, options, timeout_s))
            if worker.conn.poll(deadline):
                reply = worker.conn.recv()
            else:
                timed_out = True
        except (EOFError, OSError, BrokenPipeError):
            pass  # worker died under the job: the crash path below
        if timed_out:
            # Hung past the wall-clock deadline: hard kill, replace.
            self._replace(worker, killed=True)
            self.timeouts += 1
            strikes = self.breaker.record_failure(key)
            # Say which budget actually fired: the caller's propagated
            # end-to-end deadline, or this pool's own worker deadline —
            # an operator tuning --worker-deadline should not chase
            # timeouts that a tenant's deadline_ms caused.
            which = (
                "propagated request deadline"
                if timeout_s is not None and float(timeout_s) < self.deadline_s
                else "worker deadline"
            )
            raise CompileTimeout(
                f"isolated compile of kernel {key[:16]}… exceeded its "
                f"{deadline:g}s {which}; worker killed and replaced "
                f"(strike {strikes}/{self.breaker.threshold})",
                timeout_s=deadline,
            )
        if reply is None:
            # send failed or recv hit EOF: the worker died under the
            # job (SystemExit, signal, OOM-kill).
            exitcode = self._reap(worker)
            self.crashes += 1
            strikes = self.breaker.record_failure(key)
            raise WorkerCrashError(
                f"isolated compile worker died (exit code {exitcode}) "
                f"while building kernel {key[:16]}…; worker replaced "
                f"(strike {strikes}/{self.breaker.threshold})",
                key=key,
            )
        worker.jobs += 1
        peak = float(reply.get("peak_rss_mb", 0.0))
        with self._lock:
            self.peak_rss_mb = max(self.peak_rss_mb, peak)
        budget = self.memory_budget_mb
        if budget is not None and peak > budget:
            # The job finished but bloated the worker past its budget:
            # recycle before the bloat hurts the next tenant, and strike
            # the key — a kernel that OOMs the worker is poison too.
            self._replace(worker, killed=True)
            self.memory_overruns += 1
            strikes = self.breaker.record_failure(key)
            raise WorkerCrashError(
                f"isolated compile of kernel {key[:16]}… peaked at "
                f"{peak:.0f} MiB, over the {budget:g} MiB budget; worker "
                f"recycled (strike {strikes}/{self.breaker.threshold})",
                key=key,
            )
        self._release(worker)
        if not reply.get("ok"):
            # Clean compiler failure: not a crash, no strike — the
            # original exception type is re-raised for the caller.
            raise _rebuild_error(reply)
        from repro.runtime.program import CompiledProgram

        self.jobs_ok += 1
        self.breaker.record_success(key)
        return CompiledProgram.from_dict(reply["program"])

    def _reap(self, worker: _Worker) -> Optional[int]:
        worker.proc.join(timeout=5.0)
        exitcode = worker.proc.exitcode
        self._replace(worker)
        return exitcode

    # -- reporting / lifecycle ----------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "mode": "process",
                "workers": self.workers,
                "deadline_s": self.deadline_s,
                "memory_budget_mb": self.memory_budget_mb,
                "spawned": self.spawned,
                "restarts": self.restarts,
                "kills": self.kills,
                "crashes": self.crashes,
                "timeouts": self.timeouts,
                "memory_overruns": self.memory_overruns,
                "jobs_ok": self.jobs_ok,
                "peak_rss_mb": round(self.peak_rss_mb, 1),
                "poison": self.breaker.stats(),
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue_mod.Empty:
                break
            worker.stop()

    def __enter__(self) -> "ProcessIsolation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
