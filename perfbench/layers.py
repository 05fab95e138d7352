"""Per-layer metrics: which spans the traced run records, and how they
and the program's own counters become the ``per_layer`` numbers.

Every workload prints every per-layer metric; a layer a workload does
not reach reads 0.  ``*_ms`` metrics are the mean *self* time of one call
(span minus child spans) unless the table below says ``inclusive``.
Counts are per measured pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from perfbench.common import median, tail
from perfbench.tracing import Tracer

#: Non-schedule passes of the default pipelines (``verify`` has its own
#: metric, the ``schedule:*`` rewrites are summed into one).
PASSES = (
    "dependence-analysis",
    "tile-selection",
    "compute-decomposition",
    "batch-isolation",
    "dma-derivation",
    "rma-derivation",
    "prologue-fusion",
    "epilogue-fusion",
    "micro-kernel-mark",
    "latency-hiding",
    "communication-schedule",
    "ast-generation",
)

SERVE_OPS = ("compile", "run", "verify", "stats", "ping")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("frontend.extract_spec_ms", "ms", "lower"),
    ("core.reconcile_ms", "ms", "lower"),
    ("service.cache_key_ms", "ms", "lower"),
    *[(f"core.pass.{p}_ms", "ms", "lower") for p in PASSES],
    ("verify.replay_ms", "ms", "lower"),
    ("schedule.rewrite_ms", "ms", "lower"),
    ("schedule.rollbacks", "count", "lower"),
    ("codegen.print_ms", "ms", "lower"),
    ("codegen.source_bytes", "bytes", "lower"),
    ("runtime.serde_encode_ms", "ms", "lower"),
    ("runtime.serde_decode_ms", "ms", "lower"),
    ("service.artifact_bytes", "bytes", "lower"),
    ("service.store_put_ms", "ms", "lower"),
    ("service.store_get_ms", "ms", "lower"),
    ("service.load_p50_ms", "ms", "lower"),
    ("runtime.simulator.chunk_ms", "ms", "lower"),
    ("runtime.simulator.chunks", "count", "lower"),
    ("runtime.simulator.chunk_hit_ratio", "ratio", "higher"),
    ("runtime.simulator.bubble_mean", "ratio", "lower"),
    ("runtime.executor.run_ms", "ms", "lower"),
    ("runtime.executor.us_per_event", "us", "lower"),
    ("multi.estimate_ms", "ms", "lower"),
    ("sunway.dma_messages", "count", "lower"),
    ("sunway.rma_messages", "count", "lower"),
    ("sunway.kernel_calls", "count", "lower"),
    ("sunway.dma_bytes", "bytes", "lower"),
    ("sunway.rma_bytes", "bytes", "lower"),
    ("sunway.copy_mb_per_s", "MB/s", "higher"),
    ("sim.paper_gflops_geomean", "Gflop/s", "higher"),
    ("sim.ragged_gflops_geomean", "Gflop/s", "higher"),
    ("sim.sweep_s", "s", "lower"),
    ("tune.tune_s", "s", "lower"),
    ("tune.measure_ms", "ms", "lower"),
    ("tune.measurements", "count", "lower"),
    ("tune.pruned", "count", "higher"),
    ("tune.gain_ratio", "ratio", "higher"),
    ("runtime.run_gemm_ms", "ms", "lower"),
    ("verify.guard_ms", "ms", "lower"),
    ("serve.framing_ms", "ms", "lower"),
    *[
        (f"serve.{op}_{stat}_ms", "ms", "lower")
        for op in SERVE_OPS
        for stat in ("p50", "tail")
    ],
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("trace_overhead_frac", "ratio", "lower"),
]

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Attributes copied from an ``ExecutionReport`` onto its span.
_REPORT_STATS = (
    "dma_messages", "rma_messages", "kernel_calls", "dma_bytes", "rma_bytes",
)


def install(tracer: Tracer) -> None:
    """Wrap the public function of every layer an operation crosses."""
    import repro.api as api_mod
    import repro.codegen.printer as printer
    import repro.frontend as frontend
    import repro.service.service as service_mod
    from repro.core.pipeline import GemmCompiler
    from repro.multi.driver import MultiClusterGemm
    from repro.runtime.executor import Executor
    from repro.runtime.program import CompiledProgram
    from repro.runtime.simulator import PerformanceSimulator
    from repro.service.store import ArtifactStore
    from repro.tune.driver import Tuner

    def compile_stats(program) -> Dict[str, object]:
        stats: Dict[str, object] = {}
        for stat in program.pass_stats:
            stats[f"pass:{stat.name}"] = stat.seconds * 1e3
            if stat.name.startswith("schedule:") and any(
                "not applied" in d.message for d in stat.diagnostics
            ):
                stats["rollbacks"] = int(stats.get("rollbacks", 0)) + 1
        return stats

    def report_stats(report) -> Dict[str, object]:
        return {k: report.stats.get(k, 0) for k in _REPORT_STATS}

    tracer.wrap(frontend, "extract_spec", "frontend.extract_spec")
    tracer.wrap(service_mod, "reconcile_options", "core.reconcile")
    tracer.wrap(service_mod, "cache_key", "service.cache_key")
    tracer.wrap(GemmCompiler, "compile", "core.compile", post=compile_stats)
    tracer.wrap(printer, "print_cpe_program", "codegen.print",
                post=lambda src: {"bytes": len(src)})
    tracer.wrap(printer, "print_mpe_program", "codegen.print",
                post=lambda src: {"bytes": len(src)})
    tracer.wrap(CompiledProgram, "to_dict", "runtime.serde_encode")
    tracer.wrap(CompiledProgram, "from_dict", "runtime.serde_decode")
    tracer.wrap(ArtifactStore, "put", "service.store_put")
    tracer.wrap(ArtifactStore, "get", "service.store_get")
    tracer.wrap(PerformanceSimulator, "chunk_stats", "runtime.simulator.chunk")
    tracer.wrap(Executor, "run", "runtime.executor.run",
                pre=lambda self, *a, **k: {"move_data": self.move_data},
                post=report_stats)
    tracer.wrap(MultiClusterGemm, "estimate", "multi.estimate")
    tracer.wrap(Tuner, "measure", "tune.measure")
    tracer.wrap(api_mod, "_run_gemm", "runtime.run_gemm")


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def from_spans(tracer: Tracer, passes: int) -> Dict[str, float]:
    """The per-layer metrics the spans alone determine."""
    m: Dict[str, float] = {}
    for metric, span in (
        ("frontend.extract_spec_ms", "frontend.extract_spec"),
        ("core.reconcile_ms", "core.reconcile"),
        ("service.cache_key_ms", "service.cache_key"),
        ("codegen.print_ms", "codegen.print"),
        ("runtime.serde_encode_ms", "runtime.serde_encode"),
        ("runtime.serde_decode_ms", "runtime.serde_decode"),
        ("service.store_put_ms", "service.store_put"),
        ("service.store_get_ms", "service.store_get"),
        ("runtime.executor.run_ms", "runtime.executor.run"),
    ):
        m[metric] = tracer.mean_self_ms(span)

    compiles = tracer.by_name("core.compile")
    for name in PASSES:
        m[f"core.pass.{name}_ms"] = _mean(
            s.attrs[f"pass:{name}"] for s in compiles if f"pass:{name}" in s.attrs
        )
    m["verify.replay_ms"] = _mean(
        s.attrs["pass:verify"] for s in compiles if "pass:verify" in s.attrs
    )
    rewrites = [
        sum(v for k, v in s.attrs.items() if k.startswith("pass:schedule:"))
        for s in compiles
        if any(k.startswith("pass:schedule:") for k in s.attrs)
    ]
    m["schedule.rewrite_ms"] = _mean(rewrites)
    m["schedule.rollbacks"] = (
        sum(int(s.attrs.get("rollbacks", 0)) for s in compiles) / passes
    )

    # A chunk span with an executor child interpreted the chunk; one
    # without was served from the simulator's chunk cache.
    executors = tracer.by_name("runtime.executor.run")
    parents = {s.parent_id for s in executors}
    chunks = tracer.by_name("runtime.simulator.chunk")
    misses = [s for s in chunks if s.span_id in parents]
    m["runtime.simulator.chunk_ms"] = _mean(s.ms for s in misses)
    m["runtime.simulator.chunks"] = len(misses) / passes
    m["runtime.simulator.chunk_hit_ratio"] = (
        1.0 - len(misses) / len(chunks) if chunks else 0.0
    )

    own = tracer.self_ms()
    timing = [s for s in executors if not s.attrs.get("move_data")]
    events = sum(
        s.attrs["dma_messages"] + s.attrs["rma_messages"] + s.attrs["kernel_calls"]
        for s in timing
    )
    m["runtime.executor.us_per_event"] = (
        1e3 * sum(own[s.span_id] for s in timing) / events if events else 0.0
    )
    for key in _REPORT_STATS:
        m[f"sunway.{key}"] = sum(s.attrs[key] for s in executors) / passes
    moving = [s for s in executors if s.attrs.get("move_data")]
    moved = sum(s.attrs["dma_bytes"] + s.attrs["rma_bytes"] for s in moving)
    busy_s = sum(own[s.span_id] for s in moving) / 1e3
    m["sunway.copy_mb_per_s"] = moved / busy_s / 1e6 if busy_s else 0.0

    # Operation-level layers report inclusive time: their children are
    # reported under their own names above.
    m["multi.estimate_ms"] = _mean(s.ms for s in tracer.by_name("multi.estimate"))
    m["tune.measure_ms"] = _mean(s.ms for s in tracer.by_name("tune.measure"))
    m["runtime.run_gemm_ms"] = _mean(
        s.ms for s in tracer.by_name("runtime.run_gemm")
    )
    return m


def serve_metrics(outcomes: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-op latency, framing and cache hits from client-side outcomes."""
    m: Dict[str, float] = {}
    for op in SERVE_OPS:
        values = [o["latency_ms"] for o in outcomes if o["op"] == op]
        m[f"serve.{op}_p50_ms"] = median(values) if values else 0.0
        m[f"serve.{op}_tail_ms"] = tail(values)[0] if values else 0.0
    framing = [
        o["latency_ms"] - o["server_ms"]
        for o in outcomes
        if o.get("server_ms") is not None
    ]
    m["serve.framing_ms"] = median(framing) if framing else 0.0
    sources = [o["source"] for o in outcomes if o.get("source")]
    m["serve.cache_hit_ratio"] = (
        sum(1 for s in sources if s != "compiled") / len(sources)
        if sources else 0.0
    )
    return m


def complete(partial: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, 0 where the workload left it unset."""
    return {
        name: (float(partial.get(name, 0.0)), unit)
        for name, unit, _ in PER_LAYER
    }

