"""The kernel compilation service.

``CompileService`` fronts :class:`~repro.core.pipeline.GemmCompiler`
with the two-tier cache production tensor compilers ship for exactly
this workload (swTVM, the TVM GEMM generator family): an in-process LRU
for the hot path and an on-disk artifact store shared across processes.
Lookups are *single-flight*: concurrent requests for the same
content-addressed key block on the one in-progress compilation instead
of compiling N times, while requests for distinct keys proceed in
parallel (``warmup`` fans a shape set out over a worker pool).

Every program consumer in the repo goes through a service —
:class:`~repro.runtime.simulator.PerformanceSimulator`, the bench
harness, and the CLI — so a sweep that touches dozens of near-identical
kernels compiles each distinct ``(spec, arch, options)`` triple once.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.options import CompilerOptions
from repro.errors import CompileTimeout
from repro.core.passes import reconcile_options
from repro.core.pipeline import GemmCompiler
from repro.core.spec import GemmSpec
from repro.faults import FaultInjector, FaultPolicy
from repro.runtime.program import CompiledProgram
from repro.service.cache import LRUCache
from repro.service.keys import cache_key
from repro.service.store import ArtifactStore
from repro.sunway.arch import SW26010PRO, ArchSpec

#: One compilation request: the content-addressed triple.
Request = Tuple[GemmSpec, ArchSpec, CompilerOptions]


class CompileFn(Protocol):
    """What the service compiles with.  ``timeout_s`` is the wall time
    the request has left (``None``: no deadline); the function enforces
    it and raises :class:`repro.errors.CompileTimeout` on an overrun."""

    def __call__(
        self,
        spec: GemmSpec,
        arch: ArchSpec,
        options: CompilerOptions,
        timeout_s: Optional[float] = None,
    ) -> CompiledProgram: ...


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`CompileService`."""

    #: Hot-tier capacity (distinct kernels held in process memory).
    memory_capacity: int = 64
    #: Warm-tier directory; ``None`` disables disk persistence.
    cache_dir: Optional[Path] = None
    #: ``False`` bypasses both tiers (the CLI's ``--no-cache``).
    enabled: bool = True
    #: Worker threads of the service's priority worker pool (used by
    #: :meth:`CompileService.warmup`, shared with the serving daemon).
    workers: int = 4
    #: Optional fault plane for the artifact store (chaos testing of the
    #: quarantine/recompile path); ``None`` or disabled means no faults.
    fault_policy: Optional[FaultPolicy] = None


@dataclass
class _Inflight:
    """Single-flight rendezvous for one key."""

    done: threading.Event = field(default_factory=threading.Event)
    program: Optional[CompiledProgram] = None
    error: Optional[BaseException] = None
    waiters: int = 0


def _default_compile(
    spec: GemmSpec,
    arch: ArchSpec,
    options: CompilerOptions,
    timeout_s: Optional[float] = None,
) -> CompiledProgram:
    return GemmCompiler(arch, options).compile(spec, timeout_s=timeout_s)


class CompileService:
    """Content-addressed, single-flight kernel compilation.

    ``compile_fn`` (default: :class:`GemmCompiler`) is a
    :class:`CompileFn`: it is always called with the ``timeout_s``
    keyword, the wall time the request has left, and enforces it."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        compile_fn: Optional[CompileFn] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._compile = compile_fn or _default_compile
        self._memory: LRUCache[CompiledProgram] = LRUCache(
            self.config.memory_capacity
        )
        injector = None
        if self.config.fault_policy is not None and self.config.fault_policy.enabled:
            injector = FaultInjector(self.config.fault_policy).fork("artifact")
        self._store = (
            ArtifactStore(self.config.cache_dir, injector=injector)
            if self.config.cache_dir is not None
            else None
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Inflight] = {}
        #: shared priority worker pool (lazily built for warmup, or
        #: attached by the serving daemon so warmup and request traffic
        #: schedule through one FairPriorityQueue)
        self._pool = None
        self._pool_owned = False
        #: lazily-built tuning-record store (imported on first use so the
        #: service module does not depend on repro.tune at import time)
        self._tuning_store = None
        self.tuning_lookups = 0
        self.tuning_hits = 0
        self.requests = 0
        self.bypassed = 0
        self.deduped = 0
        self.flight_retries = 0
        self.flight_timeouts = 0
        self.compile_count = 0
        self.compile_seconds_total = 0.0
        self.compile_seconds_max = 0.0

    # -- public API ---------------------------------------------------------

    def get_program(
        self,
        spec: GemmSpec,
        arch: Optional[ArchSpec] = None,
        options: Optional[CompilerOptions] = None,
        timeout_s: Optional[float] = None,
        shape_hint: Optional[Tuple[int, ...]] = None,
    ) -> CompiledProgram:
        """The cached compile: memory → disk → single-flight compile.

        ``timeout_s`` is a wall-clock deadline for the *whole* request,
        including time spent waiting on another request's in-progress
        compilation; overruns raise :class:`repro.errors.CompileTimeout`.

        ``shape_hint`` — ``(M, N, K)`` or ``(M, N, K, batch)`` — lets
        the service consult the tuning-record store: a default-config
        request whose shape class has a recorded winner is steered to
        the tuned configuration before key derivation, so tuned shape
        classes compile (and cache) straight to their best config.
        """
        return self.get_program_with_source(
            spec, arch, options, timeout_s=timeout_s, shape_hint=shape_hint
        )[0]

    def get_program_with_source(
        self,
        spec: GemmSpec,
        arch: Optional[ArchSpec] = None,
        options: Optional[CompilerOptions] = None,
        timeout_s: Optional[float] = None,
        shape_hint: Optional[Tuple[int, ...]] = None,
    ) -> Tuple[CompiledProgram, str]:
        """:meth:`get_program` plus where the program came from:
        ``memory``, ``disk``, ``deduped`` (another request's in-flight
        compile) or ``compiled``.  The serving daemon reports this per
        response so clients — and the load-generator benchmark — can
        measure cache hit rates without scraping server logs."""
        arch = arch or SW26010PRO
        options = options or CompilerOptions()
        options = self._apply_tuning(spec, arch, options, shape_hint)
        return self._get(spec, arch, options, timeout_s=timeout_s)

    def reconciled_key(
        self,
        spec: GemmSpec,
        arch: Optional[ArchSpec] = None,
        options: Optional[CompilerOptions] = None,
    ) -> str:
        """The cache key a request will actually be served under.

        :func:`~repro.service.keys.cache_key` reconciles the options —
        the same normalisation :meth:`get_program` applies — so distinct
        descriptors that compile identically (inert knobs, ``--no-verify``)
        map to one key.  The load generator uses this to count unique
        kernels a trace will demand."""
        return cache_key(spec, arch or SW26010PRO, options or CompilerOptions())

    def is_cached(
        self,
        spec: GemmSpec,
        arch: Optional[ArchSpec] = None,
        options: Optional[CompilerOptions] = None,
        shape_hint: Optional[Tuple[int, ...]] = None,
    ) -> bool:
        """Whether a request would be served without compiling.

        A cheap, side-effect-free probe of the hot tier, the in-flight
        rendezvous (a waiter dedups onto someone else's compile — warm
        enough) and the artifact store's path, in that order.  The
        serving daemon's brownout mode uses this to tell cache hits (to
        keep serving) from compile misses (to fast-fail) without
        spending a worker to find out.  The LRU recency order and the
        request/hit counters are untouched (only the tuning-steering
        lookup runs, since it decides which key the request would
        actually be served under)."""
        if not self.config.enabled:
            return False
        arch = arch or SW26010PRO
        options = options or CompilerOptions()
        options = self._apply_tuning(spec, arch, options, shape_hint)
        key = cache_key(spec, arch, options)
        with self._lock:
            if key in self._memory or key in self._inflight:
                return True
        return self._store is not None and self._store.path_for(key).exists()

    def set_compile_fn(self, compile_fn: CompileFn) -> None:
        """Swap the compile function behind the cache/single-flight stack.

        The serving daemon uses this seam to interpose
        :class:`~repro.serve.isolation.ProcessIsolation`: compilation
        moves into recyclable worker subprocesses while every layer
        above — content-addressed keys, the two cache tiers, the
        in-flight rendezvous, admission — stays unchanged."""
        self._compile = compile_fn

    def attach_worker_pool(self, pool) -> None:
        """Share the serving daemon's priority worker pool.

        Once attached, :meth:`warmup` submits through it (at ``warmup``
        priority) instead of building a private pool — so precompilation
        traffic schedules behind the daemon's interactive and batch
        requests on the exact same :class:`~repro.serve.queue.FairPriorityQueue`
        and can never starve them."""
        if self._pool is not None and self._pool_owned and self._pool is not pool:
            self._pool.shutdown(drain=True)
        self._pool = pool
        self._pool_owned = False

    def worker_pool(self, workers: Optional[int] = None):
        """The attached pool, or a lazily created private one."""
        with self._lock:
            if self._pool is None:
                from repro.serve.workers import WorkerPool

                self._pool = WorkerPool(
                    max(1, workers or self.config.workers),
                    name="swgemm-service",
                )
                self._pool_owned = True
            return self._pool

    def close(self) -> None:
        """Drain and shut down the private worker pool, if one exists."""
        with self._lock:
            pool, owned = self._pool, self._pool_owned
            self._pool = None
            self._pool_owned = False
        if pool is not None and owned:
            pool.shutdown(drain=True)

    def warmup(
        self,
        requests: Optional[Sequence[Request]] = None,
        workers: Optional[int] = None,
        priority: str = "warmup",
        tenant: str = "warmup",
    ) -> List[Dict[str, object]]:
        """Precompile a request set through the priority worker pool.

        Every job is submitted at ``warmup`` priority (the lowest
        class), so on a daemon-attached pool interactive and batch
        requests queued concurrently are always served first — warmup
        can saturate idle workers but never starve live traffic.
        Returns one row per request: key, variant, where the program
        came from (``memory``/``disk``/``compiled``) and the wall time
        spent.  ``workers`` only sizes a lazily created private pool;
        an attached pool keeps its own size.
        """
        requests = list(requests if requests is not None else standard_requests())
        pool = self.worker_pool(workers)

        def one(request: Request) -> Dict[str, object]:
            spec, arch, options = request
            started = time.perf_counter()
            _, source = self._get(spec, arch, options)
            return {
                "key": self.reconciled_key(spec, arch, options),
                "variant": options.variant_name()
                + (f"+{options.fusion}" if options.fusion != "none" else "")
                + ("+batch" if spec.is_batched else ""),
                "batched": spec.is_batched,
                "source": source,
                "seconds": time.perf_counter() - started,
            }

        futures = [
            pool.submit(
                (lambda request=request: one(request)),
                priority=priority,
                tenant=tenant,
            )
            for request in requests
        ]
        return [future.result() for future in futures]

    def clear(self) -> Dict[str, int]:
        """Drop both tiers; returns how many entries each held."""
        with self._lock:
            memory = self._memory.clear()
        disk = self._store.clear() if self._store else 0
        return {"memory": memory, "disk": disk}

    def stats(self) -> Dict[str, object]:
        """Structured report over both tiers and compile latencies."""
        with self._lock:
            count = self.compile_count
            report: Dict[str, object] = {
                "enabled": self.config.enabled,
                "requests": self.requests,
                "bypassed": self.bypassed,
                "single_flight_deduped": self.deduped,
                "single_flight_retries": self.flight_retries,
                "single_flight_timeouts": self.flight_timeouts,
                "memory": self._memory.stats(),
                "compiles": {
                    "count": count,
                    "total_seconds": self.compile_seconds_total,
                    "mean_ms": (
                        1e3 * self.compile_seconds_total / count if count else 0.0
                    ),
                    "max_ms": 1e3 * self.compile_seconds_max,
                },
                "tuning": {
                    "lookups": self.tuning_lookups,
                    "hits": self.tuning_hits,
                },
            }
            pool = self._pool
        # Per-priority-class execution counts of the shared worker pool
        # (warmup vs batch vs interactive) — absent until a pool exists.
        report["workers"] = pool.stats() if pool is not None else None
        report["tuning"]["records"] = len(self.tuning_store.keys())
        if self._store is not None:
            report["disk"] = self._store.stats()
            report["persistent"] = self._store.load_persistent_stats()
        return report

    @property
    def store(self) -> Optional[ArtifactStore]:
        return self._store

    @property
    def tuning_store(self):
        """The tuning-record store, rooted next to the artifact store
        (``<cache-dir>/tuning/``) or in-memory for cache-less services."""
        if self._tuning_store is None:
            from repro.tune.records import TuningRecordStore

            root = (
                self.config.cache_dir / "tuning"
                if self.config.cache_dir is not None
                else None
            )
            self._tuning_store = TuningRecordStore(root)
        return self._tuning_store

    # -- internals -----------------------------------------------------------

    def _apply_tuning(
        self,
        spec: GemmSpec,
        arch: ArchSpec,
        options: CompilerOptions,
        shape_hint: Optional[Tuple[int, ...]],
    ) -> CompilerOptions:
        """Steer a default-config request to its shape class's recorded
        winner.

        Only requests that leave every tunable knob at its default are
        eligible: an explicit ``tile_config``, a kernel other than the
        vendor default (the naive ablation or the parametric generator),
        the no-RMA ablation or a schedule policy other than the recipe
        (``off``, ``optimize``) states intent the tuner must not
        override.
        """
        if (
            shape_hint is None
            or options.tile_config is not None
            or options.kernel_backend != "vendor"
            or not options.enable_rma
            or options.schedule.mode != "recipe"
        ):
            return options
        from repro.tune.records import record_key, shape_class

        with self._lock:
            self.tuning_lookups += 1
        record = self.tuning_store.get(
            record_key(spec, arch, shape_class(*shape_hint))
        )
        if record is None:
            return options
        with self._lock:
            self.tuning_hits += 1
        self._flush_persistent({"tuning_hits": 1})
        return record.apply(options)

    @staticmethod
    def _restamp(
        program: CompiledProgram, options: CompilerOptions
    ) -> CompiledProgram:
        """Re-apply the caller's runtime-only knobs to a cached program.

        Fault/retry policies are excluded from cache keys (they change
        execution, not code generation), so a hit may carry a different
        policy than the caller asked for — hand back a copy stamped with
        the requested options."""
        current = getattr(program, "options", None)
        if current is None or current == options:
            return program
        return dataclasses.replace(program, options=options)

    def _ensure_verified(self, program: CompiledProgram) -> CompiledProgram:
        """Attach a verification report to a report-less cached program.

        A program can sit in the hot tier (or a single-flight result)
        without a report when it was compiled for a ``--no-verify``
        request; a verifying caller must still get admission-checked
        code, so verify in place — the report attaches to the cached
        object and the work happens once.

        Stub programs without the attribute (test doubles injected via
        ``compile_fn``) are passed through untouched — only a real
        ``CompiledProgram`` that explicitly carries ``verification=None``
        needs the re-check."""
        if getattr(program, "verification", False) is None:
            from repro.verify import admit, verify_program

            program.verification = admit(verify_program(program))
        return program

    def _get(
        self,
        spec: GemmSpec,
        arch: ArchSpec,
        options: CompilerOptions,
        timeout_s: Optional[float] = None,
    ) -> Tuple[CompiledProgram, str]:
        # Reconcile up front (preserving the runtime-only fault/retry
        # policies, which reconciliation never touches): the reconciled
        # set is what the compiler compiles with, what cache_key hashes,
        # and what _restamp stamps onto cache hits — a hit can never hand
        # back options the compile itself would have rewritten.
        options = reconcile_options(spec, options, arch)
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )

        def remaining() -> Optional[float]:
            return None if deadline is None else deadline - time.monotonic()

        with self._lock:
            self.requests += 1
        if not self.config.enabled:
            with self._lock:
                self.bypassed += 1
            program, _ = self._compile_timed(
                spec, arch, options, timeout_s=remaining()
            )
            return program, "compiled"

        key = cache_key(spec, arch, options)
        while True:
            with self._lock:
                cached = self._memory.get(key)
                if cached is not None:
                    if options.verify:
                        cached = self._ensure_verified(cached)
                    self._flush_persistent({"requests": 1, "memory_hits": 1})
                    return self._restamp(cached, options), "memory"
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _Inflight()
                    self._inflight[key] = flight
                    owner = True
                else:
                    flight.waiters += 1
                    self.deduped += 1
                    owner = False

            if owner:
                break
            if not flight.done.wait(timeout=remaining()):
                # Deadline expired while another request compiled this
                # key: the contract is wall time for the *whole* request,
                # so give up loudly instead of hanging on the stranger's
                # compile.
                with self._lock:
                    self.flight_timeouts += 1
                raise CompileTimeout(
                    f"compile deadline of {timeout_s}s exceeded while "
                    "waiting on an in-flight compilation of the same "
                    "kernel",
                    timeout_s=timeout_s or 0.0,
                )
            if flight.error is None:
                assert flight.program is not None
                program = flight.program
                if options.verify:
                    program = self._ensure_verified(program)
                self._flush_persistent({"requests": 1, "deduped": 1})
                return self._restamp(program, options), "deduped"
            # The owner's compile failed.  Its error may be transient
            # (fault injection, a flaky disk) and belongs to the owner's
            # request anyway — instead of propagating a stranger's
            # exception, loop and re-attempt as the new owner.
            with self._lock:
                self.flight_retries += 1

        source = "compiled"
        try:
            verify_on_load = options.verify
            program = (
                self._store.get(key, verify_on_load=verify_on_load)
                if self._store
                else None
            )
            if program is not None:
                source = "disk"
                self._flush_persistent({"requests": 1, "disk_hits": 1})
            else:
                program, elapsed = self._compile_timed(
                    spec, arch, options, timeout_s=remaining()
                )
                if self._store is not None:
                    self._store.put(key, program)
                self._flush_persistent(
                    {"requests": 1, "compiles": 1, "compile_seconds": elapsed}
                )
        except BaseException as exc:
            with self._lock:
                del self._inflight[key]
            flight.error = exc
            flight.done.set()
            raise
        with self._lock:
            self._memory.put(key, program)
            del self._inflight[key]
        flight.program = program
        flight.done.set()
        return self._restamp(program, options), source

    def _compile_timed(
        self,
        spec: GemmSpec,
        arch: ArchSpec,
        options: CompilerOptions,
        timeout_s: Optional[float] = None,
    ) -> Tuple[CompiledProgram, float]:
        if timeout_s is not None and timeout_s <= 0:
            raise CompileTimeout(
                "compile deadline already exhausted before compilation "
                "started",
                timeout_s=timeout_s,
            )
        started = time.perf_counter()
        program = self._compile(spec, arch, options, timeout_s=timeout_s)
        elapsed = time.perf_counter() - started
        with self._lock:
            self.compile_count += 1
            self.compile_seconds_total += elapsed
            self.compile_seconds_max = max(self.compile_seconds_max, elapsed)
        return program, elapsed

    def _flush_persistent(self, deltas: Dict[str, float]) -> None:
        if self._store is not None:
            self._store.bump_persistent_stats(deltas)


# ---------------------------------------------------------------------------
# Standard warmup set and the shared default service
# ---------------------------------------------------------------------------


def standard_requests(arch: Optional[ArchSpec] = None) -> List[Request]:
    """The kernels a production deployment serves constantly: the four
    §8.1 breakdown variants, batched GEMM, and both fusion patterns."""
    arch = arch or SW26010PRO
    requests: List[Request] = [
        (GemmSpec(), arch, CompilerOptions.baseline()),
        (GemmSpec(), arch, CompilerOptions.with_asm()),
        (GemmSpec(), arch, CompilerOptions.with_rma()),
        (GemmSpec(), arch, CompilerOptions.full()),
        (
            GemmSpec(batch_param="BS"),
            arch,
            CompilerOptions.full().with_(batch=True),
        ),
        (
            GemmSpec(prologue_func="quant"),
            arch,
            CompilerOptions.full().with_(fusion="prologue", prologue_func="quant"),
        ),
        (
            GemmSpec(epilogue_func="sigmoid"),
            arch,
            CompilerOptions.full().with_(fusion="epilogue", epilogue_func="sigmoid"),
        ),
    ]
    return requests


_default_service: Optional[CompileService] = None
_default_lock = threading.Lock()


def get_default_service() -> CompileService:
    """The process-wide memory-only service library callers share."""
    global _default_service
    with _default_lock:
        if _default_service is None:
            _default_service = CompileService()
        return _default_service


def set_default_service(service: Optional[CompileService]) -> None:
    """Replace (or with ``None`` reset) the shared default service."""
    global _default_service
    with _default_lock:
        _default_service = service
