"""paper-sweep: the timed interpreter and the tuner, at their own cost.

Closed loop, one in-process caller.  Every pass simulates a fixed
subset of the §8 figure shapes with a fresh ``PerformanceSimulator``
(empty chunk cache), runs one multi-cluster estimate, and tunes the
ragged ``BENCH_schedule`` shapes with a fixed seed and budget in a fresh
in-memory service.  The sweep's programs are compiled during set-up;
only the tuner compiles inside a pass.  The subset is chosen so every
row interprets a distinct (options, K) chunk: each row costs one chunk
simulation, and shapes that would reuse a chunk add nothing to measure.
The workload ignores the seed: its inputs are the paper's.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Tuple

from perfbench import ledger
from perfbench.common import (
    YARDSTICK, Failures, PassResult, Timing, Workload, geomean, median,
)

ARCH = "sw26010pro"

#: (label, (M, N, K), batch, options name, ledger config name or None)
SWEEP = (
    ("fig13-1024-dma-only", (1024, 1024, 1024), 1, "baseline", None),
    ("fig13-1024-asm", (1024, 1024, 1024), 1, "with_asm", None),
    ("fig13-1024-rma", (1024, 1024, 1024), 1, "with_rma", None),
    ("fig13-1024-hiding", (1024, 1024, 1024), 1, "full",
     "64x64x32-d2-s8:rma+hide"),
    ("multiarch-1024-parametric", (1024, 1024, 1024), 1, "parametric",
     "64x64x32-d2-s8:rma+hide:parametric"),
    ("multiarch-1024-parametric-kt16", (1024, 1024, 1024), 1, "parametric-kt16",
     "64x64x16-d2-s8:rma+hide:parametric"),
    ("multiarch-2048-parametric-kt16", (2048, 2048, 2048), 1, "parametric-kt16",
     "64x64x16-d2-s8:rma+hide:parametric"),
    ("fig13-2048-dma-only", (2048, 2048, 2048), 1, "baseline", None),
    ("fig13-2048-asm", (2048, 2048, 2048), 1, "with_asm", None),
    ("fig13-2048-rma", (2048, 2048, 2048), 1, "with_rma", None),
    ("fig13-2048-hiding", (2048, 2048, 2048), 1, "full",
     "64x64x32-d2-s8:rma+hide"),
    ("batched-b4-1024", (1024, 1024, 1024), 4, "batched", None),
    ("fig16-prologue-2048", (2048, 2048, 2048), 1, "prologue", None),
    ("fig16-epilogue-2048", (2048, 2048, 2048), 1, "epilogue", None),
)

#: The multi-cluster estimate: a 2x3 grid of core groups.
ESTIMATE_GRID = (2, 3)
ESTIMATE_SHAPE = (3072, 3072, 1024)

#: The ragged and batched BENCH_schedule shapes, (M, N, K, batch).
TUNE_SHAPES = (
    (576, 1024, 512, 1),
    (1280, 768, 512, 1),
    (192, 576, 384, 1),
    (32, 256, 256, 256),
)
TUNE_SEED = 7
TUNE_BUDGET = 2


def _options(name: str):
    from repro.core.options import CompilerOptions, TileConfig

    full = CompilerOptions.full()
    return {
        "baseline": CompilerOptions.baseline(),
        "with_asm": CompilerOptions.with_asm(),
        "with_rma": CompilerOptions.with_rma(),
        "full": full,
        "parametric": full.with_(kernel_backend="parametric"),
        # BENCH_multiarch's shallow kernel: the contract tile at kt/2
        "parametric-kt16": full.with_(kernel_backend="parametric",
                                      tile_config=TileConfig(64, 64, 16)),
        "batched": full.with_(batch=True),
        "prologue": full.with_(fusion="prologue", prologue_func="quant"),
        "epilogue": full.with_(fusion="epilogue", epilogue_func="sigmoid"),
    }[name]


def shape_label(shape: Tuple[int, int, int], batch: int) -> str:
    M, N, K = shape
    return (f"b{batch}:" if batch > 1 else "") + f"{M}x{N}x{K}"


class PaperSweep(Workload):
    name = "paper-sweep"
    aliases = {"p50_ms": "sweep row, estimate or tuner measurement",
               "tail_ms": "same items", "ops_per_s": "items per second"}
    archs = [ARCH]

    def __init__(self, seed: int, failures: Failures) -> None:
        from repro import get_arch

        self.failures = failures
        self.arch = get_arch(ARCH)
        self.service = None
        self.rows: Dict[str, object] = {}
        self.tunes: Dict[str, object] = {}
        self.sweep_s: List[float] = []
        self.tune_s: List[float] = []
        self.observed: Dict[ledger.Key, float] = {}

    def warm_up(self) -> None:
        """Compile every sweep program into a fresh service."""
        from repro.runtime.simulator import PerformanceSimulator
        from repro.service import CompileService

        self.service = CompileService()
        sim = PerformanceSimulator(self.arch, service=self.service)
        for _, _, _, options, _ in SWEEP:
            sim.program_for(_options(options))

    def run_pass(self, index: int) -> PassResult:
        from repro.multi.driver import MultiClusterGemm
        from repro.runtime.simulator import PerformanceSimulator

        timings: Dict[str, Timing] = {}
        pass_started = started = time.perf_counter()
        sim = PerformanceSimulator(self.arch, service=self.service)
        for label, (M, N, K), batch, options, config in SWEEP:
            with YARDSTICK.timing() as timing:
                perf = self.failures.attempt(
                    label,
                    lambda: sim.simulate(M, N, K, _options(options), batch=batch),
                )
            if perf is None:
                continue
            timings[f"row:{label}"] = timing
            self._check_row(label, perf)
            if config is not None:
                self.observed[(ARCH, shape_label((M, N, K), batch), config)] = (
                    perf.gflops
                )
        self.sweep_s.append(time.perf_counter() - started)

        multi = self.failures.attempt(
            "estimate setup", lambda: MultiClusterGemm(ESTIMATE_GRID, self.arch)
        )
        if multi is not None:
            with YARDSTICK.timing() as timing:
                report = self.failures.attempt(
                    "estimate", lambda: multi.estimate(*ESTIMATE_SHAPE)
                )
            if report is not None:
                timings["estimate"] = timing
                self.failures.check(
                    report.gflops > 0 and not report.degraded,
                    f"estimate: {report}",
                )

        started = time.perf_counter()
        for shape in TUNE_SHAPES:
            self._tune(shape, timings)
        self.tune_s.append(time.perf_counter() - started)
        return PassResult.of(time.perf_counter() - pass_started, timings)

    def _check_row(self, label: str, perf) -> None:
        ok = math.isfinite(perf.gflops) and 0 < perf.gflops <= (
            self.arch.peak_gflops
        )
        self.failures.check(ok, f"{label}: {perf.gflops} Gflops")
        first = self.rows.setdefault(label, perf)
        self.failures.check(
            first.gflops == perf.gflops,
            f"{label}: {perf.gflops} Gflops, {first.gflops} in an earlier pass",
        )

    def _tune(self, shape, timings: Dict[str, Timing]) -> None:
        from repro.core.options import CompilerOptions
        from repro.service import CompileService
        from repro.tune import TuneOptions, Tuner

        M, N, K, batch = shape
        label = shape_label((M, N, K), batch)
        tuner = Tuner(self.arch, service=CompileService())
        measure = tuner.measure
        count = [0]

        def timed(*args, **kwargs):
            with YARDSTICK.timing() as timing:
                gflops = measure(*args, **kwargs)
            timings[f"tune:{label}:{count[0]}"] = timing
            count[0] += 1
            return gflops

        tuner.measure = timed
        result = self.failures.attempt(
            f"tune {label}",
            lambda: tuner.tune(
                M=M, N=N, K=K, batch=batch,
                base_options=CompilerOptions.full(),
                tune_options=TuneOptions(seed=TUNE_SEED,
                                         max_measurements=TUNE_BUDGET),
            ),
        )
        if result is None:
            return
        record = result.record
        self.failures.check(
            record.best_gflops >= record.default_gflops > 0,
            f"tune {label}: best {record.best_gflops} < default "
            f"{record.default_gflops}",
        )
        for trial in result.trials:
            self.observed[(ARCH, label, trial.candidate.name())] = trial.gflops
        self.tunes[label] = result

    # -- results -------------------------------------------------------------------

    def finish(self) -> None:
        """The ledger check, once every pass has run."""
        _, conflicts = ledger.snapshot_points()
        self.failures.check(not conflicts, f"ledger: snapshots disagree: {conflicts}")
        compared, mismatches = ledger.check(self.observed)
        self.failures.check(compared > 0, "ledger: no point shared with a snapshot")
        self.failures.add(compared)
        for message in mismatches:
            self.failures.fail(f"ledger: {message}")
        self.ledger_points = compared

    def paper_geomean(self) -> float:
        return geomean([p.gflops for p in self.rows.values()])

    def ragged_geomean(self) -> float:
        return geomean([r.record.best_gflops for r in self.tunes.values()])

    def report(self, passes) -> Dict[str, Tuple]:
        return {
            "paper_gflops_geomean": (self.paper_geomean(), "Gflop/s",
                                     f"{len(self.rows)} rows, simulated"),
            "ragged_gflops_geomean": (self.ragged_geomean(), "Gflop/s",
                                      f"{len(self.tunes)} tuned winners"),
            "sim_s": (median(self.sweep_s), "s", f"{len(SWEEP)} rows"),
            "tune_s": (median(self.tune_s), "s",
                       f"{len(TUNE_SHAPES)} shapes x budget {TUNE_BUDGET}"),
            "ledger_points": (self.ledger_points, "count", "shared with BENCH_*"),
        }

    def layer_counters(self, passes) -> Dict[str, float]:
        results = list(self.tunes.values())
        return {
            "sim.paper_gflops_geomean": self.paper_geomean(),
            "sim.ragged_gflops_geomean": self.ragged_geomean(),
            "sim.sweep_s": median(self.sweep_s),
            "tune.tune_s": median(self.tune_s),
            "runtime.simulator.bubble_mean": sum(
                p.bubble_fraction for p in self.rows.values()
            ) / len(self.rows),
            "tune.measurements": sum(r.measured for r in results),
            "tune.pruned": sum(r.pruned for r in results),
            "tune.gain_ratio": geomean(
                [r.record.best_gflops / r.record.default_gflops for r in results]
            ),
        }

