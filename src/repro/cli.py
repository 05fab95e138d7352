"""Command-line interface.

Mirrors the surface described in §8::

    swgemm compile gemm.c -o outdir            # athread C files
    swgemm compile gemm.c --no-use-asm         # bypass the asm kernel
    swgemm run gemm.c -M 1024 -N 1024 -K 1024  # simulate functionally
    swgemm perf -M 4096 -N 4096 -K 4096        # timed simulation vs xMath
    swgemm tree gemm.c                         # dump the schedule tree

the pass-pipeline introspection surface::

    swgemm passes list                         # the variant-aware pipeline
    swgemm compile --print-after all           # IR snapshot after each pass
    swgemm compile --print-after dma-derivation
    swgemm compile --schedule=off              # the §8.1 no-hiding ablation
    swgemm compile --dump-ir irdir             # one snapshot file per pass

plus the compilation-service surface::

    swgemm cache stats                         # two-tier cache report
    swgemm cache warmup                        # precompile standard kernels
    swgemm cache clear                         # drop all artifacts
    swgemm --no-cache perf ...                 # bypass the kernel cache

the admission-control surface::

    swgemm verify gemm.c                       # the gate's per-check report
    swgemm compile --explain-verify            # report alongside codegen
    swgemm run --guarded ...                   # certificate-checked run
    swgemm --timeout 10 compile ...            # structured compile deadline

and the autotuning surface::

    swgemm tune -M 576 -N 1024 -K 512          # model-guided search
    swgemm tune --batch-count 256 -M 32 ...    # tune a batched shape class
    swgemm tune --show                         # list stored tuning records
    swgemm run -M 576 -N 1024 -K 512 ...       # steered by matching records

Global flags (``--cache-dir``, ``--no-cache``, ``--timeout``, ``--arch``,
the fault-injection family, ``--debug``) are accepted both before and
after the subcommand: ``swgemm --no-cache perf`` and
``swgemm perf --no-cache`` are the same invocation.

Programs are obtained through :class:`repro.service.CompileService`, so
repeated invocations reuse on-disk artifacts under ``~/.cache/swgemm``
(override with ``$SWGEMM_CACHE_DIR`` or ``--cache-dir``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

DEFAULT_GEMM_C = """\
void gemm(int M, int N, int K, double alpha,
          double A[M][K], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
}
"""


def _load_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _arch_choices() -> "tuple":
    from repro.sunway import arch_names

    return arch_names()


def _arch_from_args(args) -> "ArchSpec":
    from repro.sunway import get_arch

    return get_arch(getattr(args, "arch", "sw26010pro"))


def _parse_micro_kernel(value: str):
    """``--micro-kernel`` spec → ``(TileConfig | None, backend | None)``.

    Accepted forms: ``MTxNTxKT`` (shape on the default backend), a bare
    backend name (``vendor``/``parametric`` at the arch's default
    shape), or ``MTxNTxKT@BACKEND``.
    """
    from repro.codegen.backend import backend_names
    from repro.core.options import TileConfig
    from repro.errors import ConfigurationError

    shape_part, sep, backend = value.partition("@")
    if not sep and shape_part in backend_names():
        return None, shape_part
    try:
        mt, nt, kt = (int(d) for d in shape_part.split("x"))
    except ValueError:
        raise ConfigurationError(
            f"--micro-kernel {value!r}: expected MTxNTxKT, a backend name "
            f"({', '.join(backend_names())}), or MTxNTxKT@BACKEND"
        ) from None
    if backend and backend not in backend_names():
        raise ConfigurationError(
            f"--micro-kernel {value!r}: unknown backend {backend!r} "
            f"(registered: {', '.join(backend_names())})"
        )
    return TileConfig(mt, nt, kt), backend or None


def _add_shared_flags(parser, suppress: bool = False) -> None:
    """The flags every subcommand shares.

    Added twice: on the root parser with their real defaults, and (with
    ``suppress=True``) on a parent parser inherited by every subcommand
    with :data:`argparse.SUPPRESS` defaults — so ``swgemm --no-cache
    perf`` and ``swgemm perf --no-cache`` both parse, and a value given
    after the subcommand overrides one given before it.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--no-cache", action="store_true", default=default(False),
        help="bypass the kernel compilation cache entirely",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=default(None),
        help="artifact store location (default: $SWGEMM_CACHE_DIR "
        "or ~/.cache/swgemm)",
    )
    parser.add_argument(
        "--arch", choices=_arch_choices(), default=default("sw26010pro"),
        help="target architecture model from the arch registry "
        "(default: sw26010pro)",
    )
    parser.add_argument(
        "--micro-kernel", metavar="SPEC", default=default(None),
        help="micro-kernel request: MTxNTxKT (shape), a backend name "
        "(vendor/parametric), or MTxNTxKT@BACKEND (default: the arch's "
        "contract on the vendor backend)",
    )
    parser.add_argument(
        "--debug", action="store_true", default=default(False),
        help="print full tracebacks instead of one-line errors",
    )
    parser.add_argument(
        "--timeout", type=float, default=default(None), metavar="S",
        help="compile deadline in wall seconds; exceeding it raises a "
        "structured CompileTimeout instead of hanging",
    )
    parser.add_argument(
        "--inject-faults", action="store_true", default=default(False),
        help="enable the deterministic fault-injection plane (chaos preset)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=default(0.05), metavar="P",
        help="per-transfer fault probability under --inject-faults "
        "(default: 0.05)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=default(0), metavar="SEED",
        help="seed of the deterministic fault streams (default: 0)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=default(3), metavar="N",
        help="retry budget per transfer before a TransientFaultError "
        "(default: 3)",
    )


def _fault_policies_from_args(args):
    """``(FaultPolicy, RetryPolicy)`` from the global chaos flags, or
    ``(None, None)`` when fault injection is off."""
    from repro.faults import FaultPolicy, RetryPolicy

    if not getattr(args, "inject_faults", False):
        return None, None
    policy = FaultPolicy.chaos(
        seed=getattr(args, "fault_seed", 0),
        rate=getattr(args, "fault_rate", 0.05),
    )
    retry = RetryPolicy(max_retries=getattr(args, "max_retries", 3))
    return policy, retry


def _service_from_args(args) -> "CompileService":
    from repro.service import CompileService, ServiceConfig, default_cache_dir

    if getattr(args, "no_cache", False):
        return CompileService(ServiceConfig(enabled=False))
    cache_dir = (
        Path(args.cache_dir) if getattr(args, "cache_dir", None) else default_cache_dir()
    )
    return CompileService(ServiceConfig(cache_dir=cache_dir))


def _validate_cache_dir(args, write: bool = True) -> None:
    """Fail the cache subcommands with a structured message (not a
    traceback) when an explicit ``--cache-dir`` cannot be used.

    ``write=False`` skips the writability check: inspection commands
    (``cache stats``, ``tune --show``) are valid against a read-only
    legacy store, which :class:`ArtifactStore` explicitly serves."""
    from repro.errors import ConfigurationError

    explicit = getattr(args, "cache_dir", None)
    if not explicit or getattr(args, "no_cache", False):
        return
    path = Path(explicit).expanduser()
    if not path.exists():
        # A missing directory is created on first use; but a dead parent
        # chain (e.g. a path through a regular file) cannot be.
        parent = path.parent
        if parent.exists() and not parent.is_dir():
            raise ConfigurationError(
                f"cannot create cache directory {path}: {parent} is not "
                "a directory"
            )
        return
    if not path.is_dir():
        raise ConfigurationError(f"cache path {path} is not a directory")
    if not os.access(path, os.R_OK | os.X_OK):
        raise ConfigurationError(f"cache directory {path} is not readable")
    if write and not os.access(path, os.W_OK):
        raise ConfigurationError(f"cache directory {path} is not writable")


def _spec_and_options(args):
    from repro.frontend import extract_spec

    source = _load_source(args.source) if getattr(args, "source", None) else DEFAULT_GEMM_C
    spec, inferred = extract_spec(source, return_options=True)
    return spec, _apply_flags(args, inferred)


def _apply_flags(args, options):
    """Fold the option flags — ``--no-use-asm``, ``--no-rma``,
    ``--micro-kernel`` and ``--schedule`` — into
    ``options``: what the frontend inferred from the source (batch,
    fusion), or ``CompilerOptions.full()`` for ``tune`` without one.
    ``--no-use-asm`` selects the naive kernel and wins over a
    ``--micro-kernel`` backend."""
    overrides = _micro_kernel_overrides(args)
    if args.no_use_asm:
        overrides["kernel_backend"] = "naive"
    if args.no_rma:
        overrides["enable_rma"] = False
    if args.schedule is not None:
        overrides["schedule"] = args.schedule
    return options.with_(**overrides)


def _micro_kernel_overrides(args) -> dict:
    """The option overrides a ``--micro-kernel`` request asks for."""
    value = getattr(args, "micro_kernel", None)
    if not value:
        return {}
    cfg, backend = _parse_micro_kernel(value)
    overrides = {}
    if cfg is not None:
        overrides["tile_config"] = cfg
    if backend is not None:
        overrides["kernel_backend"] = backend
    return overrides


def _introspection_requested(args) -> bool:
    return bool(
        getattr(args, "print_after", None) or getattr(args, "dump_ir", None)
    )


def ir_dump_name(index: int, name: str) -> str:
    """The ``--dump-ir`` file of the ``index``-th snapshot, named after
    its pass (``schedule:split-waits`` writes ``NN-schedule-split-waits.txt``:
    ``:`` is not legal in every file system's names)."""
    return f"{index:02d}-{name.replace(':', '-')}.txt"


def _build_introspected(args, spec, options) -> "CompiledProgram":
    """Direct (cache-bypassing) compile with pass-level introspection.

    Cached artifacts carry no IR, so ``--print-after`` / ``--dump-ir``
    always run the real pipeline; an after-pass hook renders the
    context's snapshot for just the passes they print or write.
    """
    from repro.core.pipeline import GemmCompiler
    from repro.errors import ConfigurationError

    compiler = GemmCompiler(_arch_from_args(args), options)
    names = [p.name for p in compiler.pipeline_for(spec)]
    print_after = args.print_after or []
    if "all" in print_after:
        print_after = names
    unknown = [n for n in print_after if n not in names]
    if unknown:
        raise ConfigurationError(
            f"--print-after: unknown pass(es) {unknown}; "
            f"this pipeline has {names}"
        )
    dumped = []

    def after_pass(index, pass_, ctx):
        printed = pass_.name in print_after
        if not (printed or args.dump_ir):
            return
        snapshot = ctx.snapshot()
        if printed:
            print(
                f";; ---- IR after {index}/{len(names)}: {pass_.name} "
                f"({pass_.section}) ----"
            )
            print(snapshot, end="")
        if args.dump_ir:
            dumped.append((ir_dump_name(index, pass_.name), snapshot))

    program, _ = compiler.compile_with_context(
        spec, after_pass=after_pass, timeout_s=getattr(args, "timeout", None)
    )
    if args.dump_ir:
        outdir = Path(args.dump_ir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, snapshot in dumped:
            (outdir / name).write_text(snapshot)
        count = len(dumped)
        if program.plan.double_buffered:
            # Per-pass snapshots show the tree; the artifact set is only
            # complete with the final post-schedule timeline alongside.
            from repro.schedule import extract_timeline

            timeline = extract_timeline(program.tree).dump()
            (outdir / ir_dump_name(count + 1, "schedule-timeline")).write_text(
                timeline
            )
            count += 1
        print(f"wrote {count} IR snapshot(s) to {outdir}")
    return program


def _build_program(args, service=None) -> "CompiledProgram":
    spec, options = _spec_and_options(args)
    if _introspection_requested(args):
        return _build_introspected(args, spec, options)
    fault_policy, retry_policy = _fault_policies_from_args(args)
    if fault_policy is not None:
        options = options.with_(
            fault_policy=fault_policy, retry_policy=retry_policy
        )
    service = service or _service_from_args(args)
    shape_hint = None
    if all(hasattr(args, dim) for dim in ("M", "N", "K")):
        # Commands carrying a concrete shape (run) are steered to a
        # tuned configuration when the shape class has a record; a
        # batched source runs as a batch of RUN_BATCH.
        from repro.runtime.executor import RUN_BATCH

        shape_hint = (args.M, args.N, args.K)
        if spec.is_batched:
            shape_hint += (RUN_BATCH,)
    return service.get_program(
        spec, _arch_from_args(args), options,
        timeout_s=getattr(args, "timeout", None), shape_hint=shape_hint,
    )


def cmd_compile(args) -> int:
    program = _build_program(args)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "gemm_cpe.c").write_text(program.cpe_source())
    (outdir / "gemm_mpe.c").write_text(program.mpe_source())
    print(f"wrote {outdir}/gemm_cpe.c and {outdir}/gemm_mpe.c")
    print(f"code generation took {program.codegen_seconds * 1e3:.2f} ms")
    for stat in program.pass_stats:
        print(
            f"  {stat.name:24s} {stat.section:10s} {stat.seconds * 1e3:7.3f} ms"
        )
    print(f"SPM plan: {program.plan.describe()}")
    if getattr(args, "explain_verify", False):
        print(program.verification.render())
    return 0


def cmd_verify(args) -> int:
    """Compile through the admission gate and print its report: the
    program's, or on a refusal the one the refusal carries."""
    from repro.core.pipeline import GemmCompiler
    from repro.errors import KernelAdmissionError

    spec, options = _spec_and_options(args)
    try:
        report = GemmCompiler(_arch_from_args(args), options).compile(
            spec, timeout_s=getattr(args, "timeout", None)
        ).verification
    except KernelAdmissionError as exc:
        report = exc.report
    if args.json:
        print(json.dumps(report.describe(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_tree(args) -> int:
    program = _build_program(args)
    print(program.tree_dump())
    if program.plan.double_buffered:
        # The tree is the loop structure; the timeline is the per-CPE
        # DMA/RMA/compute pipeline read off it — print both so the dump
        # is complete for double-buffered (schedulable) plans.
        from repro.schedule import extract_timeline

        print("--- schedule timeline ---")
        print(extract_timeline(program.tree).dump(), end="")
    return 0


def cmd_passes_list(args) -> int:
    from repro.core.pipeline import GemmCompiler

    spec, options = _spec_and_options(args)
    compiler = GemmCompiler(_arch_from_args(args), options)
    passes = compiler.pipeline_for(spec)
    effective = compiler.effective_options(spec)
    print(
        f"pass pipeline for variant {effective.variant_name()!r} "
        f"({len(passes)} passes, id {compiler.pipeline_identity_for(spec)}):"
    )
    for index, pass_ in enumerate(passes, 1):
        print(f"{index:3d}. {pass_.name:24s} {pass_.section:10s} {pass_.summary}")
    return 0


def cmd_run(args) -> int:
    from repro.core.spec import check_run
    from repro.runtime.executor import run_checked

    # Before a refused shape or seed costs a compile.
    check_run(args.M, args.N, args.K, seed=args.seed)
    program = _build_program(args)
    guarded = getattr(args, "guarded", False)
    report, error = run_checked(
        program, args.M, args.N, args.K, seed=args.seed, alpha=args.alpha,
        guarded=guarded,
    )
    print(f"max |C - reference| = {error:.3e}")
    if guarded:
        print(
            f"guarded mode: {int(report.stats.get('guard_events', 0))} "
            f"events checked against the certificate, "
            f"{int(report.stats.get('guard_divergences', 0))} divergences"
        )
    print(
        f"simulated time {report.elapsed_seconds * 1e3:.3f} ms "
        f"({report.gflops:.1f} Gflops of useful work)"
    )
    if getattr(args, "inject_faults", False):
        stats = report.stats
        retries = int(stats.get("dma_retries", 0)) + int(stats.get("rma_retries", 0))
        print(
            f"fault plane: seed {args.fault_seed}, rate {args.fault_rate}; "
            f"{retries} transfer retries "
            f"({int(stats.get('dma_retries', 0))} DMA, "
            f"{int(stats.get('rma_retries', 0))} RMA), "
            f"{int(stats.get('lost_replies', 0))} lost replies"
        )
    return 0 if error < 1e-8 else 1


def cmd_perf(args) -> int:
    from repro.runtime.simulator import PerformanceSimulator
    from repro.xmath.perfmodel import xmath_gflops

    sim = PerformanceSimulator(
        _arch_from_args(args), service=_service_from_args(args)
    )
    overrides = _micro_kernel_overrides(args)
    fault_policy, retry_policy = _fault_policies_from_args(args)
    if fault_policy is not None:
        overrides.update(fault_policy=fault_policy, retry_policy=retry_policy)
    breakdown = sim.breakdown(args.M, args.N, args.K, overrides)
    for variant, perf in breakdown.items():
        print(f"{variant:>9s}: {perf.gflops:8.1f} Gflops "
              f"({100 * perf.peak_fraction:5.1f}% of peak)")
    lib = xmath_gflops(args.M, args.N, args.K, sim.arch)
    print(f"{'xMath':>9s}: {lib:8.1f} Gflops "
          f"({100 * lib / sim.arch.peak_gflops:5.1f}% of peak)")
    return 0


def cmd_tune(args) -> int:
    from repro import api

    _validate_cache_dir(args, write=not getattr(args, "show", False))
    service = _service_from_args(args)
    if args.show:
        rows = [r.describe() for r in service.tuning_store.records()]
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        elif not rows:
            print("no tuning records stored")
        else:
            for row in rows:
                print(
                    f"{row['shape_class']:>16s}  {row['config']:>26s}  "
                    f"{row['best_gflops']:8.1f} Gflops  "
                    f"({row['improvement_pct']:+6.2f}% vs default)  "
                    f"[{row['arch']}, seed {row['seed']}, "
                    f"{row['key'][:12]}]"
                )
        return 0

    if getattr(args, "source", None):
        spec, options = _spec_and_options(args)
    else:
        # No source: let the tuner pick the (possibly batched) default
        # spec for --batch-count, honoring any explicit knob flags.
        from repro.core.options import CompilerOptions

        spec, options = None, _apply_flags(args, CompilerOptions.full())
    result = api.tune(
        spec,
        shape=(args.M, args.N, args.K, args.batch_count),
        arch=_arch_from_args(args),
        seed=args.seed,
        budget=args.budget,
        options=options,
        service=service,
        full_result=True,
    )
    if args.json:
        print(json.dumps(result.describe(), indent=2, sort_keys=True))
        return 0
    row = result.describe()
    print(
        f"searched {result.candidates_total} candidate(s): "
        f"{result.pruned} pruned analytically, {result.measured} measured, "
        f"{result.resumed} resumed from journal ({result.strategy})"
    )
    print(f"shape class : {row['shape_class']}")
    print(f"best config : {row['config']}")
    print(
        f"best        : {row['best_gflops']:.1f} Gflops "
        f"(default {row['default_gflops']:.1f}, "
        f"{row['improvement_pct']:+.2f}%)"
    )
    print(f"record      : {row['key'][:16]} (search space v{row['space_version']})")
    if not result.persisted:
        print("note: reduced search space — record not persisted")
    elif service.tuning_store.root is None:
        print("note: cache disabled — record not persisted (--no-cache)")
    return 0


# ---------------------------------------------------------------------------
# Cache subcommand group
# ---------------------------------------------------------------------------


def cmd_cache_stats(args) -> int:
    _validate_cache_dir(args, write=False)
    service = _service_from_args(args)
    report = service.stats()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    disk = report.get("disk")
    if disk is None:
        print("kernel cache is disabled (--no-cache)")
        return 0
    persistent = report.get("persistent", {})
    print(f"cache dir : {disk['dir']}")
    print(f"artifacts : {disk['artifacts']} ({disk['bytes'] / 1024:.1f} KiB)")
    print(f"shards    : {disk['shards']} (hash-prefix sharded)")
    per_shard = disk.get("per_shard") or {}
    if per_shard:
        print(
            "per shard : "
            + "  ".join(f"{shard}:{count}" for shard, count in per_shard.items())
        )
    archs = disk.get("archs") or {}
    if archs:
        print(
            "per arch  : "
            + "  ".join(f"{name}:{count}" for name, count in archs.items())
        )
    print("cumulative (all runs against this cache dir):")
    for label, key in (
        ("requests", "requests"),
        ("memory hits", "memory_hits"),
        ("disk hits", "disk_hits"),
        ("compiles", "compiles"),
        ("deduped in flight", "deduped"),
        ("quarantined", "quarantined"),
        ("tuning hits", "tuning_hits"),
    ):
        print(f"  {label:>18s}: {int(persistent.get(key, 0))}")
    qfiles = int(disk.get("quarantine_files", 0))
    if qfiles:
        print(f"  {'in quarantine dir':>18s}: {qfiles}")
    poison = disk.get("poison_keys") or []
    if poison:
        print(f"  {'poisoned keys':>18s}: {len(poison)}")
        for key in poison:
            print(f"  {'':>18s}  {key[:16]}… (circuit breaker open)")
    seconds = float(persistent.get("compile_seconds", 0.0))
    print(f"  {'compile seconds':>18s}: {seconds:.3f}")
    hits = int(persistent.get("memory_hits", 0)) + int(persistent.get("disk_hits", 0))
    print(f"  {'total cache hits':>18s}: {hits}")
    tuning = report.get("tuning")
    if tuning:
        print("tuning records:")
        print(f"  {'stored':>18s}: {int(tuning.get('records', 0))}")
        print(f"  {'lookups (session)':>18s}: {int(tuning.get('lookups', 0))}")
        print(f"  {'hits (session)':>18s}: {int(tuning.get('hits', 0))}")
    return 0


def cmd_cache_clear(args) -> int:
    _validate_cache_dir(args)
    service = _service_from_args(args)
    removed = service.clear()
    records = service.tuning_store.clear()
    if service.store is not None:
        service.store.bump_persistent_stats({})  # reset timestamp
    print(
        f"removed {removed['disk']} cached artifact(s) and "
        f"{records} tuning record(s)"
    )
    return 0


def cmd_cache_warmup(args) -> int:
    _validate_cache_dir(args)
    service = _service_from_args(args)
    started = time.perf_counter()
    rows = service.warmup(workers=args.workers)
    elapsed = time.perf_counter() - started
    for row in rows:
        print(
            f"{row['variant']:>18s}  {row['source']:>8s}  "
            f"{row['seconds'] * 1e3:8.2f} ms  {row['key'][:12]}"
        )
    compiled = sum(1 for r in rows if r["source"] == "compiled")
    print(
        f"warmed {len(rows)} kernel(s) in {elapsed * 1e3:.1f} ms "
        f"({compiled} compiled, {len(rows) - compiled} already cached)"
    )
    return 0


# ---------------------------------------------------------------------------
# The serving daemon
# ---------------------------------------------------------------------------


def cmd_serve(args) -> int:
    """Run the multi-tenant compilation daemon until drained."""
    import asyncio
    import signal

    from repro.serve import (
        KernelServer,
        OverloadConfig,
        QuotaConfig,
        ServeConfig,
    )
    from repro.service import CompileService, ServiceConfig, default_cache_dir

    _validate_cache_dir(args)
    if getattr(args, "no_cache", False):
        service_config = ServiceConfig(enabled=False, workers=args.workers)
    else:
        cache_dir = (
            Path(args.cache_dir)
            if getattr(args, "cache_dir", None)
            else default_cache_dir()
        )
        service_config = ServiceConfig(
            cache_dir=cache_dir,
            workers=args.workers,
            memory_capacity=args.memory_capacity,
        )
    service = CompileService(service_config)
    quota = (
        None
        if args.no_quotas
        else QuotaConfig(
            capacity=args.quota_capacity, refill_per_s=args.quota_refill
        )
    )
    overload = OverloadConfig(
        max_queue_depth=args.max_queue_depth,
        deadline_default_ms=args.deadline_default_ms,
        brownout_enter_ms=args.brownout_enter_ms,
        brownout_exit_ms=args.brownout_exit_ms,
        brownout_dwell_s=args.brownout_dwell,
    )
    server = KernelServer(
        service,
        ServeConfig(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            workers=args.workers,
            quota=quota,
            max_requests=args.max_requests,
            isolation=args.isolation,
            journal_dir=args.journal_dir,
            poison_threshold=args.poison_threshold,
            worker_deadline_s=args.worker_deadline,
            memory_budget_mb=args.memory_budget_mb,
            overload=overload if overload.enabled else None,
        ),
    )

    async def _serve() -> None:
        address = await server.start()
        shown = address if isinstance(address, str) else f"{address[0]}:{address[1]}"
        quotas = (
            "off" if quota is None
            else f"{quota.capacity:g} tokens @ {quota.refill_per_s:g}/s per tenant"
        )
        journal = "off" if args.journal_dir is None else args.journal_dir
        guard = (
            "off"
            if not overload.enabled
            else ", ".join(
                part
                for part, on in (
                    (f"depth={args.max_queue_depth}",
                     args.max_queue_depth is not None),
                    (f"deadline={args.deadline_default_ms:g}ms"
                     if args.deadline_default_ms is not None else "",
                     args.deadline_default_ms is not None),
                    (f"brownout@{args.brownout_enter_ms:g}ms"
                     if args.brownout_enter_ms is not None else "",
                     args.brownout_enter_ms is not None),
                )
                if on
            )
        )
        print(
            f"swgemm serve: listening on {shown} "
            f"(workers={args.workers}, quotas={quotas}, "
            f"isolation={args.isolation}, journal={journal}, "
            f"overload={guard})"
        )
        replay = server._replay_remaining
        if replay:
            print(
                f"swgemm serve: replaying {replay} journaled request(s) "
                "from the previous run"
            )
        sys.stdout.flush()
        if args.ready_file:
            # Machine-readable rendezvous for scripts that let the OS
            # pick the port: written only once the listener is live.
            Path(args.ready_file).write_text(
                json.dumps(
                    {
                        "socket": address if isinstance(address, str) else None,
                        "host": None if isinstance(address, str) else address[0],
                        "port": None if isinstance(address, str) else address[1],
                        "pid": os.getpid(),
                    }
                )
            )
        loop = asyncio.get_running_loop()
        if args.warmup:
            loop.run_in_executor(None, service.warmup)
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: loop.create_task(server.stop(drain=True)),
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / platforms without signal support
        await server.serve_until_stopped()

    asyncio.run(_serve())
    counters = server.counters
    recovery = ""
    if args.journal_dir is not None or args.isolation == "process":
        iso = server.isolation.stats() if server.isolation else {}
        recovery = (
            f", {counters['replayed']} replayed, "
            f"{iso.get('restarts', 0)} worker restart(s), "
            f"{len((iso.get('poison') or {}).get('quarantined', []))} "
            "quarantined key(s)"
        )
    print(
        f"swgemm serve: drained and stopped after {counters['requests']} "
        f"request(s) ({counters['quota_rejected']} quota-rejected, "
        f"{counters['errors']} failed{recovery})"
    )
    if args.socket:
        Path(args.socket).unlink(missing_ok=True)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="swgemm",
        description="Automatic GEMM kernel generation for SW26010Pro "
        "(ICPP'22 reproduction on a simulated core group)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    _add_shared_flags(parser)
    shared = argparse.ArgumentParser(add_help=False)
    _add_shared_flags(shared, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_source=True):
        if with_source:
            p.add_argument("source", nargs="?", help="C input file (- for stdin; "
                           "omit for the canonical naive GEMM)")
        p.add_argument("--no-use-asm", action="store_true",
                       help="bypass the inline assembly kernel: compile "
                       "the naive loop kernel (wins over a --micro-kernel "
                       "backend)")
        p.add_argument("--no-rma", action="store_true",
                       help="disable RMA broadcasts")
        p.add_argument(
            "--schedule", choices=("recipe", "optimize", "off"),
            default=None, metavar="MODE",
            help="schedule policy: 'recipe' keeps the fixed §6 pipeline "
            "(default), 'optimize' runs the schedule rewrite stack on top "
            "of it (admitted by the verifier like every kernel), 'off' "
            "disables latency hiding entirely",
        )

    def add_introspection(p):
        p.add_argument(
            "--print-after", action="append", metavar="PASS",
            help="print the IR snapshot after the named pass "
            "(repeatable; 'all' prints every pass; bypasses the cache)",
        )
        p.add_argument(
            "--dump-ir", metavar="DIR",
            help="write one numbered IR snapshot file per pass to DIR "
            "(bypasses the cache)",
        )

    p_compile = sub.add_parser(
        "compile", help="generate athread C files", parents=[shared]
    )
    add_common(p_compile)
    add_introspection(p_compile)
    p_compile.add_argument("-o", "--output", default="swgemm_out")
    p_compile.add_argument(
        "--explain-verify", action="store_true",
        help="print the admission verifier's per-check report",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_verify = sub.add_parser(
        "verify", help="run the kernel admission verifier and report",
        parents=[shared],
    )
    add_common(p_verify)
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable report")
    p_verify.set_defaults(func=cmd_verify)

    p_tree = sub.add_parser(
        "tree", help="dump the final schedule tree", parents=[shared]
    )
    add_common(p_tree)
    add_introspection(p_tree)
    p_tree.set_defaults(func=cmd_tree)

    p_passes = sub.add_parser(
        "passes", help="inspect the compiler's pass pipeline"
    )
    passes_sub = p_passes.add_subparsers(dest="passes_command", required=True)
    p_passes_list = passes_sub.add_parser(
        "list", help="show the variant-aware pass pipeline and its identity",
        parents=[shared],
    )
    add_common(p_passes_list)
    p_passes_list.set_defaults(func=cmd_passes_list)

    p_run = sub.add_parser(
        "run", help="execute functionally on the simulator", parents=[shared]
    )
    add_common(p_run)
    for dim, default in (("M", 512), ("N", 512), ("K", 256)):
        p_run.add_argument(f"-{dim}", type=int, default=default)
    p_run.add_argument("--alpha", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--guarded", action="store_true",
        help="cross-check every DMA/RMA/SPM event against the admission "
        "certificate (fails loudly on divergence)",
    )
    p_run.set_defaults(func=cmd_run)

    p_perf = sub.add_parser(
        "perf", help="timed simulation vs xMath", parents=[shared]
    )
    for dim, default in (("M", 4096), ("N", 4096), ("K", 4096)):
        p_perf.add_argument(f"-{dim}", type=int, default=default)
    p_perf.set_defaults(func=cmd_perf)

    p_tune = sub.add_parser(
        "tune",
        help="model-guided search of the tile/pipeline space for a shape",
        parents=[shared],
    )
    add_common(p_tune)
    for dim, default in (("M", 1024), ("N", 1024), ("K", 1024)):
        p_tune.add_argument(f"-{dim}", type=int, default=default)
    p_tune.add_argument(
        "--batch-count", type=int, default=1, metavar="B",
        help="tune for a batched problem of B matrices (default: 1)",
    )
    p_tune.add_argument(
        "--seed", type=int, default=0,
        help="search seed; the whole search is a pure function of it "
        "(default: 0)",
    )
    p_tune.add_argument(
        "--budget", type=int, default=20, metavar="N",
        help="maximum simulator measurements (default: 20)",
    )
    p_tune.add_argument(
        "--show", action="store_true",
        help="list the stored tuning records instead of searching",
    )
    p_tune.add_argument("--json", action="store_true",
                        help="machine-readable result")
    p_tune.set_defaults(func=cmd_tune)

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant async compilation daemon",
        parents=[shared],
    )
    p_serve.add_argument(
        "--socket", metavar="PATH",
        help="listen on a unix socket instead of TCP",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 lets the OS pick one (default: 0)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="blocking compiler worker threads (default: 4)",
    )
    p_serve.add_argument(
        "--quota-capacity", type=float, default=60.0, metavar="TOKENS",
        help="per-tenant token-bucket capacity (default: 60)",
    )
    p_serve.add_argument(
        "--quota-refill", type=float, default=30.0, metavar="TOKENS/S",
        help="per-tenant token refill rate (default: 30/s)",
    )
    p_serve.add_argument(
        "--no-quotas", action="store_true",
        help="disable per-tenant quotas entirely",
    )
    p_serve.add_argument(
        "--memory-capacity", type=int, default=64, metavar="N",
        help="hot-tier LRU capacity in kernels (default: 64)",
    )
    p_serve.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="drain and exit after N requests (default: run until signalled)",
    )
    p_serve.add_argument(
        "--ready-file", metavar="PATH",
        help="write the bound address as JSON once listening",
    )
    p_serve.add_argument(
        "--warmup", action="store_true",
        help="precompile the standard kernels on boot (at warmup priority)",
    )
    p_serve.add_argument(
        "--isolation", choices=("thread", "process"), default="thread",
        help="where compile jobs run: in-process threads, or recyclable "
        "worker subprocesses with deadlines and poison-key quarantine "
        "(default: thread)",
    )
    p_serve.add_argument(
        "--journal-dir", metavar="DIR",
        help="write-ahead journal directory; accepted requests are "
        "replayed after a crash (default: journaling off)",
    )
    p_serve.add_argument(
        "--poison-threshold", type=int, default=3, metavar="N",
        help="worker crashes/timeouts before a kernel key is "
        "quarantined (default: 3)",
    )
    p_serve.add_argument(
        "--worker-deadline", type=float, default=30.0, metavar="SECONDS",
        help="wall-clock deadline of one isolated compile job; a hung "
        "worker is killed and replaced (default: 30)",
    )
    p_serve.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MIB",
        help="peak-RSS budget of one isolated compile job; an "
        "over-budget worker is recycled (default: unlimited)",
    )
    p_serve.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="bound the request queue: interactive arrivals are admitted "
        "up to N queued requests, batch up to 2N/3, warmup up to N/3; "
        "over-watermark arrivals shed lower-priority queued work or are "
        "rejected with a retry-after hint (default: unbounded)",
    )
    p_serve.add_argument(
        "--deadline-default-ms", type=float, default=None, metavar="MS",
        help="end-to-end budget stamped on requests that carry no "
        "deadline of their own; requests whose budget expires while "
        "queued are shed before reaching a worker (default: none)",
    )
    p_serve.add_argument(
        "--brownout-enter-ms", type=float, default=None, metavar="MS",
        help="EWMA queue-wait threshold that enters brownout: compile "
        "misses fast-fail, cache hits and read-only ops keep flowing "
        "(default: brownout off)",
    )
    p_serve.add_argument(
        "--brownout-exit-ms", type=float, default=None, metavar="MS",
        help="EWMA queue-wait threshold that exits brownout; must be "
        "below --brownout-enter-ms (default: half of it)",
    )
    p_serve.add_argument(
        "--brownout-dwell", type=float, default=2.0, metavar="SECONDS",
        help="minimum seconds spent in brownout before an exit is "
        "allowed — the anti-flap leg of the hysteresis (default: 2)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect and manage the kernel compilation cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    p_stats = cache_sub.add_parser(
        "stats", help="two-tier cache report", parents=[shared]
    )
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable report")
    p_stats.set_defaults(func=cmd_cache_stats)

    p_clear = cache_sub.add_parser(
        "clear", help="remove all cached artifacts", parents=[shared]
    )
    p_clear.set_defaults(func=cmd_cache_clear)

    p_warmup = cache_sub.add_parser(
        "warmup", help="precompile the standard kernel variants",
        parents=[shared],
    )
    p_warmup.add_argument("--workers", type=int, default=None,
                          help="worker threads for independent keys")
    p_warmup.set_defaults(func=cmd_cache_warmup)

    return parser


def main(argv=None) -> int:
    from repro.errors import SwGemmError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SwGemmError as exc:
        if args.debug:
            raise
        print(f"swgemm: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        if args.debug:
            raise
        print(f"swgemm: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # Stdout consumer exited early (`swgemm ... | head`).  Detach
        # stdout so the interpreter's exit-time flush does not raise a
        # second time, and report the conventional 128+SIGPIPE status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        # Unreadable cache directories, permission problems and the like
        # are operator errors, not crashes: message + nonzero exit.
        if args.debug:
            raise
        print(f"swgemm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
