"""Statistics, provenance and the measurement loop shared by every workload."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run leaves behind (temp cache dirs, result files, traces).
OUT_DIR = ROOT / ".perfbench"

#: A tail needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest nearest-rank percentile with at least ten samples
    beyond it: ``(value, percentile, samples beyond)``.

    With fewer than eleven samples no such percentile exists; the
    maximum is returned with the number of samples actually beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return float(ordered[index]), 100.0 * (index + 1) / n, n - index - 1


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_program() -> None:
    """Start a fresh interpreter that imports the program (one such
    start is too noisy to stand for set-up on its own)."""
    subprocess.run(
        [sys.executable, "-c", "import repro.api"], cwd=ROOT,
        capture_output=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live child process (MB), from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Operations and passes
# ---------------------------------------------------------------------------


@dataclass
class Failures:
    """Counts attempted operations and correctness checks, and the ones
    that failed (so ``failed <= attempted``)."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    #: serve-mixed counts from two client threads
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self, what: str, fn: Callable[[], object]):
        """Run one operation; an exception counts it as failed and
        returns ``None``."""
        self.add(1)
        try:
            return fn()
        except Exception as exc:  # every failure feeds error_rate
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def check(self, ok: bool, what: str) -> bool:
        """One correctness check; a false ``ok`` fails it."""
        self.add(1)
        if not ok:
            self.fail(what)
        return ok

    def add(self, attempts: int) -> None:
        with self._lock:
            self.attempted += attempts

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


#: The yardstick loop's time (s) on the 2-core x86 host the benchmark was
#: defined on (median over minutes).  Scaled times read as milliseconds on
#: a host running at that speed.
NOMINAL_LOOP_S = 1.7e-3


def _loop() -> None:
    counts: Dict[int, int] = {}
    for i in range(10_000):
        counts[i % 97] = counts.get(i % 97, 0) + i


@dataclass
class Timing:
    """One timed operation: host milliseconds, and the factor that scales
    them to the nominal host speed."""

    host_ms: float = 0.0
    scale: float = 1.0

    @property
    def ms(self) -> float:
        return self.host_ms * self.scale


class Yardstick:
    """Host speed, sampled beside every timed operation.

    The shared host's own speed moves by up to 2x in phases of one to
    tens of seconds (a fixed loop, timed every second for two minutes,
    read 2.2-4.2 ms), so a run of tens of seconds cannot average it away.
    The compiler, the simulator and the executor slow down with that loop
    (log-time correlation 0.7-0.85 per operation).  So a fixed pure-Python
    loop is timed right before and right after each timed operation, and
    the operation's time is scaled by ``NOMINAL_LOOP_S`` over the mean of
    the two: a change to the program moves the scaled time as it moves
    the host time, a change in the host's speed mostly does not.
    """

    #: A sample this recent stands in for the one before the next operation.
    REUSE_S = 0.25

    def __init__(self) -> None:
        self._last: Optional[Tuple[float, float]] = None  # (taken at, loop s)

    def sample(self) -> float:
        """The loop's time (s): the faster of two, so that one preemption
        does not read as a slow host."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t0)
        self._last = (time.perf_counter(), best)
        return best

    def scale(self, before: float, after: float) -> float:
        return NOMINAL_LOOP_S / ((before + after) / 2)

    @contextmanager
    def timing(self) -> Iterator[Timing]:
        """Time the ``with`` block; the yielded ``Timing`` is filled in on
        exit."""
        last = self._last
        if last is not None and time.perf_counter() - last[0] < self.REUSE_S:
            before = last[1]
        else:
            before = self.sample()
        timing = Timing()
        t0 = time.perf_counter()
        yield timing
        timing.host_ms = 1e3 * (time.perf_counter() - t0)
        timing.scale = self.scale(before, self.sample())


#: Shared by set-up and every workload.
YARDSTICK = Yardstick()


@dataclass
class PassResult:
    """One pass over a workload's fixed item list."""

    #: host seconds
    seconds: float
    #: item id -> latency (ms) of that item in this pass, at nominal speed
    latencies_ms: Dict[str, float]
    #: item id -> host latency (ms)
    host_ms: Dict[str, float]

    @classmethod
    def of(cls, seconds: float, timings: Dict[str, Timing]) -> "PassResult":
        return cls(seconds, {item: t.ms for item, t in timings.items()},
                   {item: t.host_ms for item, t in timings.items()})

    @property
    def scaled_seconds(self) -> float:
        """The pass at nominal speed, scaled as its items were."""
        host = sum(self.host_ms.values())
        return self.seconds * (sum(self.latencies_ms.values()) / host if host else 1.0)


class Workload:
    """What ``run.py`` drives; subclasses override what they need."""

    name = ""
    archs: Sequence[str] = ()
    #: what ``p50_ms``, ``tail_ms`` and ``ops_per_s`` measure here
    aliases: Dict[str, str] = {}
    #: set for the traced half of a ``--trace 1`` run
    tracer = None

    def warm_up(self) -> None:
        """One set-up; ``run.py`` times several and keeps the median."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every pass."""

    def report(self, passes: Sequence[PassResult]) -> Dict[str, Tuple]:
        """The workload's own named metrics, for the printed report."""
        return {}

    def layer_counters(self, passes: Sequence[PassResult]) -> Dict[str, float]:
        """Per-layer metrics read from the program's own counters."""
        return {}

    def peak_rss_extra_mb(self) -> float:
        """Peak RSS of the workload's other processes."""
        return 0.0

    def close(self) -> None:
        """Stop whatever the workload started."""


def run_passes(
    run_pass: Callable[[int], PassResult], seconds: float, first: int = 0
) -> List[PassResult]:
    """Repeat passes while the next one, as long as the last, still ends
    within ``seconds`` (at least one pass)."""
    passes: List[PassResult] = []
    deadline = time.perf_counter() + seconds
    index = first
    while not passes or time.perf_counter() + passes[-1].seconds <= deadline:
        passes.append(run_pass(index))
        index += 1
    return passes


def item_means(passes: Sequence[PassResult]) -> List[float]:
    """Per-item mean latency over passes (an item missing from a pass,
    because it failed there, is skipped in that pass)."""
    by_item: Dict[str, List[float]] = {}
    for result in passes:
        for item, ms in result.latencies_ms.items():
            by_item.setdefault(item, []).append(ms)
    return [sum(v) / len(v) for v in by_item.values()]


def latency_metrics(
    passes: Sequence[PassResult], aliases: Dict[str, str]
) -> Dict[str, Tuple]:
    """The latency/throughput end-to-end metrics every workload reports;
    ``aliases`` names what each one is on this workload.

    Every figure is at nominal host speed (see ``Yardstick``).  ``p50_ms``
    is the median of every sample in the window.  ``tail_ms`` is taken
    over the items (each item's mean over passes), so its sample count,
    and with it its percentile, does not depend on how many passes fitted
    in the window.  ``ops_per_s`` is samples over pass seconds.
    """
    samples = [ms for p in passes for ms in p.latencies_ms.values()]
    per_item = item_means(passes)
    value, pct, beyond = tail(per_item)
    items = len(per_item)
    metrics = {
        "p50_ms": (median(samples), "ms", f"n={len(samples)}, nominal speed"),
        "tail_ms": (value, "ms", f"p{pct:.1f} of items, {beyond} beyond, "
                                 f"n={items}, nominal speed"),
        "ops_per_s": (
            len(samples) / sum(p.scaled_seconds for p in passes),
            "1/s",
            f"{items} items/pass, {len(passes)} passes, nominal speed",
        ),
    }
    return {
        name: (value, unit, f"{aliases[name]}: {note}" if name in aliases else note)
        for name, (value, unit, note) in metrics.items()
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code even in a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, archs: Sequence[str]) -> Dict[str, object]:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "archs": sorted(set(archs)),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
    }
