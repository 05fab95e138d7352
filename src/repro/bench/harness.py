"""Per-figure experiment drivers.

Each driver returns a list of row dictionaries (one per shape/bar group)
with the simulated swgemm numbers and the xMath model's numbers, plus an
``aggregate`` summary mirroring the statistics the paper quotes in prose
(means, speedups, win counts).  The pytest-benchmark files under
``benchmarks/`` call these drivers and print the tables.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.shapes import (
    FIG13_SQUARE_SHAPES,
    FIG14_DEGRADED,
    FIG14_NONSQUARE_SHAPES,
    FIG15_BATCHED,
    FIG16_FUSION_SHAPES,
    Shape,
)
from repro.core.options import CompilerOptions
from repro.runtime.simulator import PerformanceSimulator
from repro.sunway.arch import SW26010PRO, ArchSpec
from repro.xmath.perfmodel import xmath_gflops, xmath_seconds


@dataclass
class FigureResult:
    """Rows + aggregates for one figure."""

    figure: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    aggregate: Dict[str, float] = field(default_factory=dict)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def repo_root() -> Path:
    """The checkout root (the nearest ancestor with ``pytest.ini`` or a
    ``.git`` directory), falling back to the current directory."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pytest.ini").exists() or (parent / ".git").exists():
            return parent
    return Path.cwd()


def write_bench_file(name: str, payload: Dict[str, object]) -> Path:
    """Write one ``BENCH_*.json`` snapshot to the repo root.

    The payload is deterministic (no wall-clock fields), so reruns of an
    unchanged tree produce byte-identical files and the snapshots can be
    committed and diffed.
    """
    path = repo_root() / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Fig. 13: performance breakdown + square-shape comparison with xMath
# ---------------------------------------------------------------------------


def fig13_breakdown(
    simulator: Optional[PerformanceSimulator] = None,
    shapes: Sequence[Shape] = tuple(FIG13_SQUARE_SHAPES),
) -> FigureResult:
    sim = simulator or PerformanceSimulator()
    result = FigureResult("fig13")
    for M, N, K in shapes:
        breakdown = sim.breakdown(M, N, K)
        row: Dict[str, object] = {"shape": f"{M}x{N}x{K}", "M": M, "N": N, "K": K}
        for variant, perf in breakdown.items():
            row[variant] = perf.gflops
        row["xmath"] = xmath_gflops(M, N, K, sim.arch)
        result.rows.append(row)
    variants = ("dma-only", "+asm", "+rma", "+hiding")
    means = {v: _mean([r[v] for r in result.rows]) for v in variants}
    means["xmath"] = _mean([r["xmath"] for r in result.rows])
    result.aggregate = {
        **{f"mean_{k}": v for k, v in means.items()},
        "speedup_asm_over_baseline": means["+asm"] / means["dma-only"],
        "speedup_rma_over_asm": means["+rma"] / means["+asm"],
        "speedup_hiding_over_rma": means["+hiding"] / means["+rma"],
        "speedup_total": means["+hiding"] / means["dma-only"],
        "ours_vs_xmath": means["+hiding"] / means["xmath"],
        "best_peak_fraction": max(
            r["+hiding"] for r in result.rows
        ) / sim.arch.peak_gflops,
        "xmath_wins_small": sum(
            1 for r in result.rows[:4] if r["xmath"] > r["+hiding"]
        ),
    }
    return result


# ---------------------------------------------------------------------------
# Fig. 14: non-square shapes
# ---------------------------------------------------------------------------


def fig14_nonsquare(
    simulator: Optional[PerformanceSimulator] = None,
    shapes: Sequence[Shape] = tuple(FIG14_NONSQUARE_SHAPES),
) -> FigureResult:
    sim = simulator or PerformanceSimulator()
    result = FigureResult("fig14")
    degraded = set(FIG14_DEGRADED)
    for M, N, K in shapes:
        ours = sim.simulate(M, N, K, CompilerOptions.full()).gflops
        lib = xmath_gflops(M, N, K, sim.arch)
        result.rows.append(
            {
                "shape": f"{M}x{N}x{K}",
                "M": M,
                "N": N,
                "K": K,
                "ours": ours,
                "xmath": lib,
                "k_pow2": (K & (K - 1)) == 0,
                "degraded": (M, N, K) in degraded,
            }
        )
    ours_all = [r["ours"] for r in result.rows]
    lib_all = [r["xmath"] for r in result.rows]
    deg_rows = [r for r in result.rows if r["degraded"]]
    pow2_rows = [r for r in result.rows if r["k_pow2"]]
    result.aggregate = {
        "mean_ours": _mean(ours_all),
        "mean_xmath": _mean(lib_all),
        "ours_vs_xmath": _mean(ours_all) / _mean(lib_all),
        "ours_on_degraded_vs_xmath": _mean([r["ours"] for r in deg_rows])
        / _mean([r["xmath"] for r in deg_rows]),
        "ours_on_pow2_vs_xmath": _mean([r["ours"] for r in pow2_rows])
        / _mean([r["xmath"] for r in pow2_rows]),
        "best_ours_peak": max(ours_all) / sim.arch.peak_gflops,
        "best_xmath_peak": max(lib_all) / sim.arch.peak_gflops,
        "xmath_degradations": sum(
            1 for r in result.rows if r["xmath"] < 0.62 * sim.arch.peak_gflops
        ),
    }
    return result


# ---------------------------------------------------------------------------
# Fig. 15: batched GEMM
# ---------------------------------------------------------------------------


def fig15_batched(
    simulator: Optional[PerformanceSimulator] = None,
    cases: Sequence[Tuple[int, Shape]] = tuple(FIG15_BATCHED),
) -> FigureResult:
    sim = simulator or PerformanceSimulator()
    result = FigureResult("fig15")
    options = CompilerOptions.full().with_(batch=True)
    for batch, (M, N, K) in cases:
        ours = sim.simulate(M, N, K, options, batch=batch)
        lib = xmath_gflops(M, N, K, sim.arch, batch=batch)
        result.rows.append(
            {
                "shape": f"b{batch}:{M}x{N}x{K}",
                "batch": batch,
                "M": M,
                "N": N,
                "K": K,
                "ours": ours.gflops,
                "xmath": lib,
            }
        )
    ours_all = [r["ours"] for r in result.rows]
    lib_all = [r["xmath"] for r in result.rows]
    result.aggregate = {
        "mean_ours": _mean(ours_all),
        "mean_xmath": _mean(lib_all),
        "ours_vs_xmath": _mean(ours_all) / _mean(lib_all),
        "best_ours_peak": max(ours_all) / sim.arch.peak_gflops,
    }
    return result


# ---------------------------------------------------------------------------
# Compilation-service ablation: cache on vs cache off
# ---------------------------------------------------------------------------


def cache_ablation(
    arch: ArchSpec = SW26010PRO,
    requests=None,
    passes: int = 2,
) -> FigureResult:
    """Wall-clock of the standard kernel sweep with and without the cache.

    Runs the same compile sweep ``passes`` times against a caching
    :class:`~repro.service.CompileService` and against a disabled one.
    With the cache, every pass after the first is served entirely from
    the in-process tier — the engineering-cost claim of §8.5 turned into
    a serving-path property.
    """
    from repro.service import CompileService, ServiceConfig, standard_requests

    requests = list(requests if requests is not None else standard_requests(arch))

    def sweep(service: CompileService) -> List[float]:
        times: List[float] = []
        for _ in range(passes):
            started = time.perf_counter()
            for spec, request_arch, options in requests:
                service.get_program(spec, request_arch, options)
            times.append(time.perf_counter() - started)
        return times

    cache_off = CompileService(ServiceConfig(enabled=False))
    off_times = sweep(cache_off)
    cache_on = CompileService()
    on_times = sweep(cache_on)

    result = FigureResult("cache")
    for index, (off_s, on_s) in enumerate(zip(off_times, on_times)):
        result.rows.append(
            {
                "pass": "cold" if index == 0 else f"warm{index}",
                "kernels": len(requests),
                "cache_off_ms": off_s * 1e3,
                "cache_on_ms": on_s * 1e3,
                "speedup": off_s / on_s if on_s else float("inf"),
            }
        )
    warm_off = sum(off_times[1:])
    warm_on = sum(on_times[1:])
    result.aggregate = {
        "kernels": float(len(requests)),
        "total_off_s": sum(off_times),
        "total_on_s": sum(on_times),
        "speedup_total": sum(off_times) / sum(on_times),
        "speedup_warm": (warm_off / warm_on) if warm_on else float("inf"),
        "compiles_off": float(cache_off.compile_count),
        "compiles_on": float(cache_on.compile_count),
    }
    return result


# ---------------------------------------------------------------------------
# Fig. 16: fusion patterns
# ---------------------------------------------------------------------------


def _baseline_fused_gflops(
    M: int, N: int, K: int, pattern: str, arch: ArchSpec, func: str
) -> float:
    """xMath + element-wise stage on the MPE (§8.4's baseline)."""
    from repro.codegen.elementwise import get_elementwise

    gemm = xmath_seconds(M, N, K, arch)
    elementwise_elems = M * K if pattern == "prologue" else M * N
    mpe = elementwise_elems / get_elementwise(func).mpe_rate
    return 2.0 * M * N * K / (gemm + mpe) / 1e9


def fig16_fusion(
    simulator: Optional[PerformanceSimulator] = None,
    shapes: Sequence[Shape] = tuple(FIG16_FUSION_SHAPES),
) -> FigureResult:
    sim = simulator or PerformanceSimulator()
    result = FigureResult("fig16")
    # The paper's patterns: a quantisation prologue over A and an
    # activation epilogue over C (§8.4); the activation's exp is what the
    # MPE executes so slowly in the unfused baseline.
    funcs = {"prologue": "quant", "epilogue": "sigmoid"}
    for pattern in ("prologue", "epilogue"):
        options = CompilerOptions.full().with_(
            fusion=pattern, **{f"{pattern}_func": funcs[pattern]}
        )
        for M, N, K in shapes:
            ours = sim.simulate(M, N, K, options).gflops
            base = _baseline_fused_gflops(M, N, K, pattern, sim.arch, funcs[pattern])
            result.rows.append(
                {
                    "pattern": pattern,
                    "shape": f"{M}x{N}x{K}",
                    "M": M,
                    "N": N,
                    "K": K,
                    "ours": ours,
                    "baseline": base,
                }
            )
    for pattern in ("prologue", "epilogue"):
        rows = [r for r in result.rows if r["pattern"] == pattern]
        result.aggregate[f"mean_ours_{pattern}"] = _mean([r["ours"] for r in rows])
        result.aggregate[f"mean_baseline_{pattern}"] = _mean(
            [r["baseline"] for r in rows]
        )
        result.aggregate[f"speedup_{pattern}"] = (
            result.aggregate[f"mean_ours_{pattern}"]
            / result.aggregate[f"mean_baseline_{pattern}"]
        )
        result.aggregate[f"baseline_wins_{pattern}"] = sum(
            1 for r in rows if r["baseline"] > r["ours"]
        )
    result.aggregate["speedup_combined"] = _mean(
        [result.aggregate["speedup_prologue"], result.aggregate["speedup_epilogue"]]
    )
    return result


# ---------------------------------------------------------------------------
# Autotuner ablation: model-guided search vs the fixed 64x64x32 point
# ---------------------------------------------------------------------------

#: (batch, (M, N, K)) cases where the paper's single analytical point is
#: *not* optimal: ragged shapes whose padding waste dominates, and a
#: batched shape far below the kernel's native tile.
TUNE_ABLATION_CASES: Tuple[Tuple[int, Shape], ...] = (
    (1, (576, 1024, 512)),
    (1, (1280, 768, 512)),
    (1, (192, 576, 384)),
    (256, (32, 256, 256)),
)


def tune_ablation(
    arch: ArchSpec = SW26010PRO,
    cases: Sequence[Tuple[int, Shape]] = TUNE_ABLATION_CASES,
    seed: int = 7,
    budget: int = 12,
    service=None,
) -> FigureResult:
    """Run the model-guided autotuner per shape class and compare the
    winner against the default 64×64×32 configuration.

    The search is a pure function of ``seed`` (no wall clock, no
    ``random``), so the resulting rows — and the ``BENCH_tune.json``
    snapshot built from them — are reproducible bit for bit.
    """
    from repro.service import CompileService, ServiceConfig
    from repro.tune import TuneOptions, Tuner

    service = service or CompileService(ServiceConfig())
    result = FigureResult("tune")
    for batch, (M, N, K) in cases:
        tuner = Tuner(arch, service=service)
        res = tuner.tune(
            M=M,
            N=N,
            K=K,
            batch=batch,
            tune_options=TuneOptions(seed=seed, max_measurements=budget),
        )
        rec = res.record
        result.rows.append(
            {
                "shape": (f"b{batch}:" if batch > 1 else "") + f"{M}x{N}x{K}",
                "batch": batch,
                "M": M,
                "N": N,
                "K": K,
                "default": rec.default_gflops,
                "tuned": rec.best_gflops,
                "improvement_pct": round(100 * rec.improvement, 2),
                "config": rec.candidate.name(),
                "strategy": res.strategy,
                "candidates": res.candidates_total,
                "pruned": res.pruned,
                "measured": res.measured,
                "seed": rec.seed,
            }
        )
    defaults = [r["default"] for r in result.rows]
    tuned = [r["tuned"] for r in result.rows]
    result.aggregate = {
        "cases": float(len(result.rows)),
        "mean_default": _mean(defaults),
        "mean_tuned": _mean(tuned),
        "mean_improvement_pct": _mean(
            [r["improvement_pct"] for r in result.rows]
        ),
        "wins_over_5pct": float(
            sum(1 for r in result.rows if r["improvement_pct"] >= 5.0)
        ),
        "tuned_vs_default": _mean(tuned) / _mean(defaults),
    }
    return result


def tune_bench_payloads(
    result: FigureResult,
    arch: ArchSpec = SW26010PRO,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Split one :func:`tune_ablation` result into the two committed
    snapshots: the tuned numbers and the fixed-configuration baseline.

    ``arch`` is the architecture the ablation ran on; it lands in each
    payload as a machine-readable top-level field."""
    arch_key = arch.name.lower()
    mk = arch.micro_kernel
    tuned = {
        "figure": "tune",
        "arch": arch_key,
        "rows": result.rows,
        "aggregate": result.aggregate,
    }
    baseline = {
        "figure": "tune-baseline",
        "arch": arch_key,
        "rows": [
            {
                "shape": r["shape"],
                "batch": r["batch"],
                "M": r["M"],
                "N": r["N"],
                "K": r["K"],
                "config": f"{mk.mt}x{mk.nt}x{mk.kt} (analytical default)",
                "gflops": r["default"],
            }
            for r in result.rows
        ],
        "aggregate": {
            "cases": result.aggregate["cases"],
            "mean_gflops": result.aggregate["mean_default"],
        },
    }
    return tuned, baseline


# ---------------------------------------------------------------------------
# Multi-arch kernel matrix: arch × micro kernel × shape
# ---------------------------------------------------------------------------

#: Fig. 13 shapes reused for the arch × kernel matrix (a subset — the
#: matrix multiplies them by every arch and kernel point).
MULTIARCH_SHAPES: Tuple[Shape, ...] = (
    (1024, 1024, 1024),
    (2048, 2048, 2048),
    (4096, 4096, 4096),
    (8192, 8192, 8192),
)

#: Default registry names for the matrix: the paper's target and its
#: predecessor (smaller SPM, no RMA, 32×32×32 contract).
MULTIARCH_ARCHS: Tuple[str, ...] = ("sw26010pro", "sw26010")


def _multiarch_kernel_points(arch: ArchSpec):
    """``(label, kernel, options)`` triples for one arch: the vendor
    contract kernel, the parametric generator at the same shape, and the
    parametric generator at a shallower reduction (kt/2) — a shape no
    vendor object was ever built for."""
    from repro.core.options import TileConfig

    mk = arch.micro_kernel
    full = CompilerOptions.full()
    shallow = TileConfig(mk.mt, mk.nt, max(2, mk.kt // 2))
    shallow_name = f"{shallow.mt}x{shallow.nt}x{shallow.kt}"
    return (
        (f"vendor@{mk}", str(mk), "vendor", full),
        (
            f"parametric@{mk}",
            str(mk),
            "parametric",
            full.with_(kernel_backend="parametric"),
        ),
        (
            f"parametric@{shallow_name}",
            shallow_name,
            "parametric",
            full.with_(kernel_backend="parametric", tile_config=shallow),
        ),
    )


def multiarch_matrix(
    archs: Sequence[str] = MULTIARCH_ARCHS,
    shapes: Sequence[Shape] = MULTIARCH_SHAPES,
) -> FigureResult:
    """Simulated Gflops for every (arch, micro kernel, shape) point.

    Each arch contributes three kernel points (vendor contract,
    parametric at the contract shape, parametric at half reduction
    depth); non-RMA archs are handled by option reconciliation, so the
    same ``CompilerOptions.full()`` base works everywhere.  Results are
    deterministic — the payload can be committed and diffed."""
    from repro.sunway.arch import get_arch

    result = FigureResult("multiarch")
    for name in archs:
        arch = get_arch(name)
        key = arch.name.lower()
        sim = PerformanceSimulator(arch)
        for label, kernel, backend, options in _multiarch_kernel_points(arch):
            for M, N, K in shapes:
                perf = sim.simulate(M, N, K, options)
                result.rows.append(
                    {
                        "arch": key,
                        "config": label,
                        "kernel": kernel,
                        "backend": backend,
                        "shape": f"{M}x{N}x{K}",
                        "M": M,
                        "N": N,
                        "K": K,
                        "gflops": perf.gflops,
                        "peak_fraction": perf.gflops / arch.peak_gflops,
                    }
                )
    for name in archs:
        arch = get_arch(name)
        key = arch.name.lower()
        rows = [r for r in result.rows if r["arch"] == key]
        vendor = [r["gflops"] for r in rows if r["backend"] == "vendor"]
        contract = str(arch.micro_kernel)
        generated = [
            r["gflops"]
            for r in rows
            if r["backend"] == "parametric" and r["kernel"] == contract
        ]
        result.aggregate[f"best_{key}"] = max(r["gflops"] for r in rows)
        result.aggregate[f"parametric_vs_vendor_{key}"] = (
            _mean(generated) / _mean(vendor)
        )
    result.aggregate["archs"] = float(len(archs))
    result.aggregate["kernel_points_per_arch"] = 3.0
    return result


def multiarch_bench_payload(result: FigureResult) -> Dict[str, object]:
    """The committed ``BENCH_multiarch.json`` snapshot."""
    return {
        "figure": "multiarch",
        "arch": sorted({r["arch"] for r in result.rows}),
        "rows": result.rows,
        "aggregate": result.aggregate,
    }


# ---------------------------------------------------------------------------
# Schedule rewrite stack: --schedule=optimize vs the fixed --hiding recipe
# ---------------------------------------------------------------------------

#: ``(label, batch, (M, N, K), tile-or-None, ragged?)`` sweep points.
#: Aligned shapes use the analytical 64x64x32 default (512-chunk
#: multiples); ragged shapes pin per-shape tiles whose chunks divide the
#: problem exactly — the same class of configurations the autotuner
#: selects for them (see TUNE_ABLATION_CASES).  Small chunks start and
#: drain the pipeline often, which is precisely where the rewrites'
#: per-chunk startup saving shows up.
SCHEDULE_SWEEP_CASES: Tuple[
    Tuple[str, int, Shape, Optional[Tuple[int, int, int]], bool], ...
] = (
    ("aligned-4096", 1, (4096, 4096, 4096), None, False),
    ("aligned-1024", 1, (1024, 1024, 1024), None, False),
    ("ragged-576x1024x512", 1, (576, 1024, 512), (24, 64, 32), True),
    ("ragged-1280x768x512", 1, (1280, 768, 512), (32, 32, 32), True),
    ("ragged-192x576x384", 1, (192, 576, 384), (24, 24, 16), True),
    ("ragged-batched-32x256x256", 256, (32, 256, 256), (4, 32, 16), True),
)


def schedule_sweep(
    arch: ArchSpec = SW26010PRO,
    cases=SCHEDULE_SWEEP_CASES,
    service=None,
) -> FigureResult:
    """Recipe vs rewrite-stack Gflops for every sweep point.

    Every optimized program is additionally replayed on the verifier's
    ``ScheduleMachine`` here — not just at admission time — so the
    committed snapshot carries an explicit zero-violation proof for the
    exact programs the numbers came from.
    """
    from repro.core.options import SchedulePolicy, TileConfig
    from repro.verify import replay_schedule

    sim = PerformanceSimulator(arch, service=service)
    result = FigureResult("schedule")
    for label, batch, (M, N, K), tile, ragged in cases:
        base = CompilerOptions.full()
        if batch > 1:
            base = base.with_(batch=True)
        if tile is not None:
            base = base.with_(tile_config=TileConfig(*tile))
        optimized = base.with_(schedule=SchedulePolicy(mode="optimize"))
        recipe_perf = sim.simulate(M, N, K, base, batch=batch)
        opt_perf = sim.simulate(M, N, K, optimized, batch=batch)
        program = sim.program_for(optimized, None)
        replay = replay_schedule(
            program.cpe_program, program.plan, program.spec
        )
        violations = len(replay.hazards) + len(replay.discipline)
        if replay.deadlock or not replay.completed:
            violations += 1
        result.rows.append(
            {
                "case": label,
                "shape": (f"b{batch}:" if batch > 1 else "") + f"{M}x{N}x{K}",
                "batch": batch,
                "M": M,
                "N": N,
                "K": K,
                "ragged": ragged,
                "tile": "64x64x32 (default)"
                if tile is None
                else f"{tile[0]}x{tile[1]}x{tile[2]}",
                "recipe_gflops": recipe_perf.gflops,
                "optimize_gflops": opt_perf.gflops,
                "ratio": opt_perf.gflops / recipe_perf.gflops,
                "bubble_recipe": recipe_perf.bubble_fraction,
                "bubble_optimize": opt_perf.bubble_fraction,
                "bubble_reduction": recipe_perf.bubble_fraction
                - opt_perf.bubble_fraction,
                "machine_violations": violations,
            }
        )
    ragged_rows = [r for r in result.rows if r["ragged"]]
    aligned_rows = [r for r in result.rows if not r["ragged"]]
    result.aggregate = {
        "cases": float(len(result.rows)),
        "ragged_improved": float(
            sum(1 for r in ragged_rows if r["ratio"] > 1.0)
        ),
        "min_aligned_ratio": min(r["ratio"] for r in aligned_rows),
        "mean_ragged_ratio": _mean([r["ratio"] for r in ragged_rows]),
        "min_ragged_bubble_reduction": min(
            r["bubble_reduction"] for r in ragged_rows
        ),
        "total_machine_violations": float(
            sum(r["machine_violations"] for r in result.rows)
        ),
    }
    return result


def schedule_bench_payload(
    result: FigureResult, arch: ArchSpec = SW26010PRO
) -> Dict[str, object]:
    """The committed ``BENCH_schedule.json`` snapshot."""
    return {
        "figure": "schedule",
        "arch": arch.name.lower(),
        "rows": result.rows,
        "aggregate": result.aggregate,
    }
