"""Timed performance evaluation.

The paper reports Gflops for shapes up to 15360³; interpreting every
statement of such a run would take hours in Python, but the generated
schedule repeats itself at two levels, and the simulator times one
instance of each.

*Chunks.*  The mesh processes ``(M/chunk_m)·(N/chunk_n)`` identical
``chunk_m × chunk_n × K`` blocks strictly sequentially (the C tile's
get/put is never overlapped across chunks — §6.1 notes C's latency
cannot be hidden), so a run is one chunk times the chunk count plus the
one-off spawn cost.

*k steps.*  After the §6 peel, every iteration of the k loop does the
same work (Fig. 10): with latency hiding it waits for its tile,
prefetches the next one and computes, and only the last iteration skips
the prefetch.  So once the executor's state at the start of an
iteration repeats, relative to that start, every further period of
iterations adds the same time.

The simulator runs the real executor (timing-only, no data movement) on
one chunk — full pipeline, barriers, channel contention and edge
effects, its operands laid out as the spec stores them.  The run holds
no data: its operands are shapes with no bytes behind them
(:meth:`~repro.sunway.memory.MainMemory.declare`) and its SPM buffers
are plans the engines check (:class:`~repro.sunway.spm.BufferPlan`).
A fault-free run long enough to show a period is *watched*
(:mod:`repro.runtime.period`): the executor snapshots its state at each
k-step boundary, and when a snapshot repeats one a period earlier, it
finishes the chunk whole periods short.
:meth:`PerformanceSimulator.chunk_stats` adds the skipped periods' chunk
and micro-kernel time, and keeps the period of each ``(options, spec)``,
so any further K it covers costs no executor run.  A run with the fault
plane enabled (fault streams are not periodic), too short to show a
period, that shows none, or whose program the watch cannot vouch for is
the direct run of the requested K.  Every K a run answers is cached per
``(options, spec, K)``.

Batched GEMM composes the same way: our compiler starts the mesh once and
iterates the batch inside the CPE code (§8.3), so

    total = spawn + batch · chunks(M,N) · chunk_time(K).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec, check_shape
from repro.runtime.executor import Executor
from repro.runtime.period import KLoop, Period, Watch, k_loop
from repro.runtime.program import CompiledProgram
from repro.sunway.arch import SW26010PRO, ArchSpec
from repro.sunway.mesh import Cluster


@dataclass(frozen=True)
class PerfResult:
    """One simulated measurement."""

    M: int
    N: int
    K: int
    batch: int
    variant: str
    seconds: float
    gflops: float
    peak_fraction: float
    n_chunks: int
    chunk_seconds: float
    #: pipeline bubble occupancy of one chunk: the fraction of total
    #: CPE-time NOT spent in the micro kernel (1 − Σ compute_seconds /
    #: (n_cpes · chunk)).  Lower is better; the schedule rewrite stack
    #: (``--schedule=optimize``) exists to shrink it.
    bubble_fraction: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        shape = f"{self.M}x{self.N}x{self.K}"
        if self.batch > 1:
            shape = f"b{self.batch}:{shape}"
        return f"{shape} [{self.variant}] {self.gflops:.2f} Gflops " \
               f"({100 * self.peak_fraction:.2f}% peak)"


class PerformanceSimulator:
    """Chunk-extrapolating timed simulation."""

    def __init__(
        self,
        arch: ArchSpec = SW26010PRO,
        service: Optional[object] = None,
    ) -> None:
        from repro.service import get_default_service

        self.arch = arch
        #: Programs come from the compilation service (content-addressed
        #: two-tier cache + single-flight dedup) rather than an ad-hoc
        #: per-simulator dict, so every simulator in the process — and,
        #: with a disk-backed service, every process — shares compiles.
        self.service = service if service is not None else get_default_service()
        #: ``(chunk seconds, micro-kernel seconds)`` of every K an
        #: executor run answered, per ``(options, spec, K)``
        self._chunk_cache: Dict[Tuple, Tuple[float, float]] = {}
        #: per ``(options, spec)``: each period found, with the chunk and
        #: micro-kernel seconds of the step count its run finished at
        self._periods: Dict[Tuple, List[Tuple[Period, float, float]]] = {}
        #: per ``(options, spec)``: the program's k-step loop, or None
        self._loops: Dict[Tuple, Optional[KLoop]] = {}

    # -- compilation cache ---------------------------------------------------

    def program_for(
        self, options: CompilerOptions, spec: Optional[GemmSpec] = None
    ) -> CompiledProgram:
        spec = spec or self._default_spec(options)
        return self.service.get_program(spec, self.arch, options)

    def _default_spec(self, options: CompilerOptions) -> GemmSpec:
        kwargs: Dict[str, object] = {}
        if options.batch:
            kwargs["batch_param"] = "BS"
        if options.fusion == "prologue":
            kwargs["prologue_func"] = options.prologue_func
        elif options.fusion == "epilogue":
            kwargs["epilogue_func"] = options.epilogue_func
        return GemmSpec(**kwargs)

    # -- chunk measurement -----------------------------------------------------

    def chunk_stats(
        self, K: int, options: CompilerOptions, spec: Optional[GemmSpec] = None
    ) -> Tuple[float, float]:
        """``(chunk seconds, bubble fraction)`` of one timed ``chunk_m ×
        chunk_n × K`` mesh pass, spawn excluded.

        Chunk seconds and micro-kernel seconds come from a period of the
        ``(options, spec)`` that covers the requested K, or else from an
        executor run of it, watched where the module docstring says.

        The bubble fraction, ``1 − compute / (n_cpes · chunk)``, is the
        share of total CPE-time the mesh spends *outside* the micro
        kernel — waiting on DMA/RMA, in barriers, or in scale/fixup
        code.  It is what the schedule rewrites attack, so it rides
        along with every timing."""
        spec = spec or self._default_spec(options)
        program = self.program_for(options, spec)
        plan = program.plan
        if K % plan.k_step:
            raise ConfigurationError(
                f"K={K} is not a multiple of the k step {plan.k_step}"
            )
        chunk, compute = self._timed_chunk(program, K, options, spec)
        n_cpes = plan.mesh * plan.mesh
        bubble = max(0.0, 1.0 - compute / (n_cpes * chunk)) if chunk > 0 else 0.0
        return chunk, bubble

    def _timed_chunk(
        self,
        program: CompiledProgram,
        K: int,
        options: CompilerOptions,
        spec: GemmSpec,
    ) -> Tuple[float, float]:
        """``(chunk seconds, micro-kernel seconds)`` of the chunk at
        ``K``: read off a period found before, or one executor run."""
        key = (options, spec, K)
        if key in self._chunk_cache:
            return self._chunk_cache[key]
        steps = K // program.plan.k_step
        for period, chunk, compute in self._periods.get((options, spec), ()):
            if period.covers(steps):
                return _extend(period, chunk, compute, steps)
        watch = self._watch(program, options, spec, steps)
        chunk, compute = self._run_chunk(program, K, options, spec, watch)
        if watch is not None and watch.found is not None:
            self._periods.setdefault((options, spec), []).append(
                (watch.found, chunk, compute)
            )
            chunk, compute = _extend(watch.found, chunk, compute, steps)
        self._chunk_cache[key] = (chunk, compute)
        return chunk, compute

    def _watch(
        self,
        program: CompiledProgram,
        options: CompilerOptions,
        spec: GemmSpec,
        steps: int,
    ) -> Optional[Watch]:
        """A watch for a run of ``steps`` k steps, or None when the run
        is direct: the fault plane is on, the program's k-step loop is
        not one :func:`~repro.runtime.period.k_loop` can read, or the run
        is too short to show a period."""
        faults = options.fault_policy
        if (faults is not None and faults.enabled) or steps < Watch.SHORTEST:
            return None
        key = (options, spec)
        if key not in self._loops:
            self._loops[key] = k_loop(program)
        loop = self._loops[key]
        if loop is None or not Watch.shows(loop, steps):
            return None
        return Watch(loop, steps)

    def _run_chunk(
        self,
        program: CompiledProgram,
        K: int,
        options: CompilerOptions,
        spec: GemmSpec,
        watch: Optional[Watch] = None,
    ) -> Tuple[float, float]:
        """``(chunk seconds, micro-kernel seconds)`` of one executor run
        of the chunk at ``K``: of the step count it finished at, when
        ``watch`` found a period."""
        cluster = Cluster(
            self.arch,
            fault_policy=options.fault_policy,
            retry_policy=options.retry_policy,
        )
        plan = program.plan
        params = {spec.m_param: plan.chunk_m, spec.n_param: plan.chunk_n,
                  spec.k_param: K}
        # Operands in their storage layouts: A is K×M under trans_a, B is
        # N×K under trans_b — the layout run_gemm pads to.  A timing-only
        # run reads their shapes alone, so they are declared, not filled.
        lead = (1,) if spec.is_batched else ()
        for name, dims in (
            (spec.a_name, spec.a_dims()),
            (spec.b_name, spec.b_dims()),
            (spec.c_name, spec.c_dims()),
        ):
            cluster.memory.declare(name, lead + tuple(params[d] for d in dims))
        if lead:
            params[spec.batch_param] = 1
        report = Executor(program, cluster, move_data=False, watch=watch).run(params)
        chunk = report.elapsed_seconds - cluster.arch.spawn_us * 1e-6
        compute = report.stats.get("compute_seconds", 0.0)
        return chunk, compute

    # -- the headline API ----------------------------------------------------------

    def simulate(
        self,
        M: int,
        N: int,
        K: int,
        options: Optional[CompilerOptions] = None,
        batch: int = 1,
        spec: Optional[GemmSpec] = None,
    ) -> PerfResult:
        """Simulated Gflops for one shape under one compiler variant.

        ``spec`` overrides the options-derived default spec — the
        autotuner measures candidate configs against the *caller's* spec
        (fused or transposed layouts change the pipeline) rather than a
        plain ``C = A×B``.
        """
        check_shape(M, N, K, batch)
        options = options or CompilerOptions.full()
        if batch > 1 and not options.batch:
            options = options.with_(batch=True)
        spec = spec or self._default_spec(options)
        program = self.program_for(options, spec)
        plan = program.plan
        for value, step, name in (
            (M, plan.chunk_m, "M"),
            (N, plan.chunk_n, "N"),
            (K, plan.k_step, "K"),
        ):
            if value % step:
                raise ConfigurationError(
                    f"{name}={value} is not a multiple of {step}; the paper "
                    "zero-pads such shapes (§8.1) — pad before simulating"
                )
        chunk, bubble = self.chunk_stats(K, options, spec)
        n_chunks = (M // plan.chunk_m) * (N // plan.chunk_n)
        seconds = self.arch.spawn_us * 1e-6 + batch * n_chunks * chunk
        flops = 2.0 * M * N * K * batch
        gflops = flops / seconds / 1e9
        return PerfResult(
            M=M,
            N=N,
            K=K,
            batch=batch,
            variant=options.variant_name()
            + (f"+{options.fusion}" if options.fusion != "none" else ""),
            seconds=seconds,
            gflops=gflops,
            peak_fraction=gflops / self.arch.peak_gflops,
            n_chunks=n_chunks,
            chunk_seconds=chunk,
            bubble_fraction=bubble,
        )

    def breakdown(
        self,
        M: int,
        N: int,
        K: int,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, PerfResult]:
        """The four §8.1 variants for one shape (Fig. 13's bar groups).

        ``overrides`` are option fields applied to every variant — the
        CLI's ``--micro-kernel`` tile and backend, or the fault-injection
        plane of ``--inject-faults`` — except that ``dma-only`` keeps the
        naive kernel whatever backend the others use."""
        overrides = dict(overrides or {})
        naive = {**overrides, "kernel_backend": "naive"}
        variants = (
            ("dma-only", CompilerOptions.baseline().with_(**naive)),
            ("+asm", CompilerOptions.with_asm().with_(**overrides)),
            ("+rma", CompilerOptions.with_rma().with_(**overrides)),
            ("+hiding", CompilerOptions.full().with_(**overrides)),
        )
        return {
            name: self.simulate(M, N, K, options) for name, options in variants
        }


def _extend(
    period: Period, chunk: float, compute: float, steps: int
) -> Tuple[float, float]:
    """``(chunk, micro-kernel)`` seconds at ``steps``, from those at the
    step count ``period``'s run finished at."""
    n = (steps - period.steps) // period.period
    return chunk + n * period.seconds, compute + n * period.compute
