"""serve-mixed: a closed loop against a ``swgemm serve`` daemon.

The only workload that reaches the serving layer (framing, queue,
workers).  The daemon runs as a subprocess with 2 worker threads,
thread isolation and quotas off; two client connections each send their
half of every pass's requests one after another (closed loop, 2
clients), in lockstep: both send their n-th request, of the same op,
once both have their (n-1)-th response.  A pass is a fixed mix of
compile, run, verify, stats and ping in the style of
``bench/loadgen.py``: kernel ops mostly hit the prewarmed hot keys on
the toy arch, and a few compile and verify ops hit cold keys.  Every pass runs against a freshly booted and prewarmed
daemon, so the same cold keys are cold in every pass and every pass
does the same work.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench import grid
from perfbench.common import (
    OUT_DIR, ROOT, YARDSTICK, Failures, PassResult, Workload, child_peak_rss_mb,
)

ARCH = "toy"
WORKERS = 2
CLIENTS = 2

#: Hot kernel descriptors, prewarmed during set-up (bench/loadgen.py's).
HOT_KERNELS: Tuple[Dict[str, object], ...] = (
    {},
    {"use_asm": False},
    {"enable_rma": False},
    {"fusion": "epilogue", "epilogue_func": "sigmoid"},
    {"fusion": "prologue", "prologue_func": "quant"},
    {"batch": True},
)

#: Hot kernels a ``run`` may use.  The daemon's ``run`` op checks its
#: output against an unfused ``A @ B``, so fused kernels would read as
#: wrong results there.
RUN_KERNELS = tuple(k for k in HOT_KERNELS if "fusion" not in k)

#: Small ``run`` shapes (tens of milliseconds on the toy arch).
RUN_SHAPES = ((32, 32, 16), (48, 32, 16), (32, 48, 32))

#: Requests each connection sends in one pass: op, temperature, count.
#: Both connections send the same ops in the same order, in lockstep, so
#: a request overlaps only the other connection's request of its own op.
#: Free-running connections (one sending the 28 runs, the other the
#: rest) made a hot compile wait behind a run for the GIL in the daemon
#: now and then, by an amount that followed the host's scheduling, and
#: ``p50_ms`` -- which falls among the slowest hot compiles -- jumped
#: between ~8 and ~21 ms from run to run.
PASS_MIX = (
    ("compile", "hot", 30),
    ("compile", "cold", 1),
    ("run", "hot", 14),
    ("verify", "hot", 5),
    ("verify", "cold", 1),
    ("stats", None, 5),
    ("ping", None, 3),
)

_VARIANT_PARAMS = {
    "plain": {},
    "batched": {"batch": True},
    "prologue": {"fusion": "prologue", "prologue_func": "quant"},
    "epilogue": {"fusion": "epilogue", "epilogue_func": "sigmoid"},
    "no-rma": {"enable_rma": False},
    "transposed": {"trans_a": True},
}


def wire_params(point: grid.Point) -> Dict[str, object]:
    """A grid point as a ``compile`` request's params."""
    from repro import get_arch

    arch, backend, schedule, variant, tile = point
    params: Dict[str, object] = {
        "arch": arch, "kernel_backend": backend, "schedule": schedule,
        **_VARIANT_PARAMS[variant],
    }
    config = grid.tile_for(get_arch(arch), tile)
    if config is not None:
        params["tile"] = {"mt": config.mt, "nt": config.nt, "kt": config.kt}
    return params


def cold_keys(seed: int) -> List[Dict[str, object]]:
    """One distinct cold descriptor per cold request of a pass, drawn
    from one tier: toy-arch ``recipe``/``off`` keys (milliseconds to
    compile, like the hot ones; ``optimize`` would cost ~3x).  None is a
    hot key: every one names a non-default backend, schedule or tile."""
    points = [
        p for p, _ in grid.accepted_points()
        if p[0] == ARCH and p[2] in ("recipe", "off")
        and (p[1], p[2], p[4]) != ("vendor", "recipe", "default")
    ]
    needed = CLIENTS * sum(count for _, t, count in PASS_MIX if t == "cold")
    return [wire_params(p) for p in random.Random(seed).sample(points, needed)]


def client_requests(seed: int) -> List[List[Tuple[str, Dict[str, object]]]]:
    """Each client's request sequence, the same in every pass, so an
    item's mean over passes is over one request.  Every op is spread
    evenly through the sequence in a fixed order (under a seeded order,
    which requests overlap slow ones would change from seed to seed), and
    both clients send the same op, and the same run shape, at each step.
    Hot kernels go round in turn.  The seed sets the run data and the
    cold keys."""
    rng = random.Random(seed)
    cold = iter(cold_keys(seed))
    steps = sorted(
        ((i + 0.5) / count, rank, op, temperature, i)
        for rank, (op, temperature, count) in enumerate(PASS_MIX)
        for i in range(count)
    )
    sequences: List[List[Tuple[str, Dict[str, object]]]] = [
        [] for _ in range(CLIENTS)
    ]
    for _, _, op, temperature, i in steps:
        for c, sequence in enumerate(sequences):
            if temperature == "cold":
                params = next(cold)
            elif temperature == "hot":
                pool = RUN_KERNELS if op == "run" else HOT_KERNELS
                params = {"arch": ARCH, **pool[(CLIENTS * i + c) % len(pool)]}
            else:
                params = {}
            if op == "run":
                M, N, K = RUN_SHAPES[i % len(RUN_SHAPES)]
                params.update(M=M, N=N, K=K, seed=rng.randrange(1 << 16))
            sequence.append((op, params))
    return sequences


class Daemon:
    """One ``swgemm serve`` subprocess over a private cache directory."""

    def __init__(self) -> None:
        self.address = None
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        ready = os.path.join(self.dir, "ready.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.log = open(os.path.join(self.dir, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--cache-dir", os.path.join(self.dir, "cache"),
             "--ready-file", ready, "--host", "127.0.0.1", "--port", "0",
             "--workers", str(WORKERS), "--isolation", "thread",
             "--no-quotas"],
            cwd=self.dir, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60
        while not os.path.exists(ready):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("serve daemon did not become ready")
            time.sleep(0.01)
        while True:
            try:
                info = json.loads(Path(ready).read_text())
                break
            except ValueError:  # caught mid-write
                time.sleep(0.01)
        self.address = (info["host"], info["port"])

    def peak_rss_mb(self) -> float:
        return child_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        from repro.serve.client import Client

        try:
            if self.proc.poll() is None:
                try:
                    with Client(self.address, tenant="admin", timeout=30) as c:
                        c.shutdown()
                except Exception:
                    self.proc.terminate()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()
            shutil.rmtree(self.dir, ignore_errors=True)


class ServeMixed(Workload):
    name = "serve-mixed"
    aliases = {"p50_ms": "serve_p50_ms", "tail_ms": "serve_tail_ms",
               "ops_per_s": "serve_rps"}
    archs = [ARCH]

    def __init__(self, seed: int, failures: Failures) -> None:
        import repro.serve.client  # noqa: F401  (import is part of set-up)

        self.failures = failures
        self.sequences = client_requests(seed)
        self.daemon = None
        self.used = False
        self.outcomes: List[Dict[str, object]] = []

    def warm_up(self) -> None:
        """Boot a daemon to ready and prewarm the hot keys, with one run
        (a daemon from before is shut down first)."""
        from repro.serve.client import Client

        if self.daemon is not None:
            self.daemon.stop()
        self.daemon = Daemon()
        self.used = False
        with Client(self.daemon.address, tenant="admin", timeout=60) as client:
            for kernel in HOT_KERNELS:
                client.compile({"arch": ARCH, **kernel})
            M, N, K = RUN_SHAPES[0]
            client.run({"arch": ARCH, "M": M, "N": N, "K": K})

    def run_pass(self, index: int) -> PassResult:
        from repro.serve.client import Client

        if self.used:  # untimed: a fresh daemon, so cold keys are cold
            self.warm_up()
        self.used = True
        latencies: Dict[str, float] = {}
        lock = threading.Lock()
        # Host speed is sampled between steps, while both clients wait at
        # the barrier and the daemon is idle (a sample in a client thread
        # would run beside the other connection's request); a request is
        # scaled by the samples before and after its step.
        marks: List[Tuple[int, float]] = []  # (step it precedes, loop s)
        taken = [0.0]
        rounds = itertools.count()

        def mark(step: int) -> None:
            marks.append((step, YARDSTICK.sample()))
            taken[0] = time.perf_counter()

        def between_steps() -> None:
            step = next(rounds)
            if time.perf_counter() - taken[0] >= YARDSTICK.REUSE_S:
                mark(step)

        barrier = threading.Barrier(CLIENTS, action=between_steps, timeout=120)

        def client_loop(c: int) -> None:
            outcomes = []
            try:
                with Client(self.daemon.address, tenant=f"client{c}",
                            timeout=60) as client:
                    for i, (op, params) in enumerate(self.sequences[c]):
                        barrier.wait()
                        outcomes.append(
                            self._request(client, f"{c}:{i}", op, params)
                        )
            except Exception as exc:  # a lost connection fails the pass's rest
                barrier.abort()  # and the other client's
                self.failures.fail(f"client {c}: {type(exc).__name__}: {exc}")
            with lock:
                for item, outcome in outcomes:
                    if outcome is not None:
                        latencies[item] = outcome["latency_ms"]
                        self.outcomes.append(outcome)

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seconds = time.perf_counter() - t0
        mark(len(self.sequences[0]))
        steps = [step for step, _ in marks]
        scaled = {}
        for item, ms in latencies.items():
            after = bisect.bisect_right(steps, int(item.split(":")[1]))
            scaled[item] = ms * YARDSTICK.scale(marks[after - 1][1], marks[after][1])
        return PassResult(seconds, scaled, latencies)

    def _request(self, client, item: str, op: str, params):
        def send():
            if self.tracer is None:
                return client.request_response(op, params)
            with self.tracer.span("serve.request", op=op):
                return client.request_response(op, params)

        t0 = time.perf_counter()
        response = self.failures.attempt(f"{op} {params}", send)
        latency_ms = 1e3 * (time.perf_counter() - t0)
        if response is None:
            return item, None
        result = response.result or {}
        ok = response.ok and result.get("ok", True) is not False
        if not self.failures.check(ok, f"{op} {params}: {response.error or result}"):
            return item, None
        return item, {
            "op": op,
            "latency_ms": latency_ms,
            "server_ms": response.meta.get("server_ms"),
            "source": response.meta.get("source"),
        }

    # -- results -------------------------------------------------------------------

    def layer_counters(self, passes) -> Dict[str, float]:
        from perfbench.layers import serve_metrics

        return serve_metrics(self.outcomes)

    def peak_rss_extra_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
