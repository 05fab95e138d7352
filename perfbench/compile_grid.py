"""compile-grid: cold compiles of seeded grid keys, then their reloads.

Closed loop, one in-process caller.  Every pass compiles the pass's keys
from C source (``extract_spec`` -> ``api.compile`` -> ``cpe_source`` /
``mpe_source``) into a fresh service over an empty cache directory, so
no cache and no simulation sit between a compiler change and the
numbers.  A second fresh service over the same directory then reloads
every key: the disk-tier hits (store read, serde decode,
verify-on-load) beside the writes.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

from perfbench import grid
from perfbench.common import (
    OUT_DIR, YARDSTICK, Failures, PassResult, Timing, Workload, median,
)

#: Keys per pass.  The accepted points are ranked by the compile time
#: recorded with them and cut into this many equal bins; a pass draws
#: one key per bin.  ``optimize`` compiles cost ~10x the others, so an
#: unstratified draw would let the seed decide what a pass costs; this
#: way the seed decides which keys are compiled, and every pass keeps the
#: grid's cost distribution.
KEYS = 24

#: A draw is kept only if its keys' recorded compile times add up to
#: within this share of the bins' mean total.  One bin spans the step
#: from the dearest ``recipe`` keys (~0.3 s) to the cheapest ``optimize``
#: ones (~1.4 s) and the top bin spans 1.8-2.7 s, so one key per bin
#: alone still let the seed move a pass's cost, and ``ops_per_s``, by
#: ~13% (interquartile range over ten seeds).
COST_TOLERANCE = 0.02


def draw_keys(seed: int) -> List[grid.Point]:
    """Distinct accepted keys, one per compile-cost bin, whose recorded
    compile times add up to the bins' mean total (within
    ``COST_TOLERANCE``)."""
    rng = random.Random(seed)
    ranked = sorted(grid.accepted_points(), key=lambda pc: pc[1])
    bins = [
        ranked[len(ranked) * i // KEYS: len(ranked) * (i + 1) // KEYS]
        for i in range(KEYS)
    ]
    target = sum(sum(c for _, c in b) / len(b) for b in bins)
    while True:
        drawn = [rng.choice(b) for b in bins]
        if abs(sum(c for _, c in drawn) - target) <= COST_TOLERANCE * target:
            break
    keys = [p for p, _ in drawn]
    rng.shuffle(keys)
    return keys


def canonical(program) -> str:
    """The artifact JSON of a program with its wall-clock fields zeroed."""
    stable = dataclasses.replace(
        program,
        codegen_seconds=0.0,
        pass_stats=tuple(
            dataclasses.replace(s, seconds=0.0) for s in program.pass_stats
        ),
    )
    return json.dumps(stable.to_dict(), sort_keys=True)


class CompileGrid(Workload):
    name = "compile-grid"
    aliases = {"p50_ms": "compile_p50_ms", "tail_ms": "compile_tail_ms",
               "ops_per_s": "keys per pass second (a key's compile, "
                            "serde check and reload)"}

    def __init__(self, seed: int, failures: Failures) -> None:
        import repro.frontend  # noqa: F401  (import is part of set-up)
        from repro import get_arch

        self.failures = failures
        self.keys = draw_keys(seed)
        self.archs = sorted({k[0] for k in self.keys})
        self._arch = {name: get_arch(name) for name in grid.ARCHS}
        self.loads_ms: List[float] = []
        self.source_bytes: Dict[int, int] = {}
        self.artifact_bytes: Dict[int, int] = {}

    def warm_up(self) -> None:
        """Compile and reload one cheap key per schedule (loads the lazily
        imported verifier, schedule and serde modules)."""
        toy = [p for p, _ in grid.accepted_points() if p[0] == "toy"]
        cheap = toy[:3] + [p for p in toy if p[2] == "optimize"][:1]
        self._pass(cheap, record=False)

    def run_pass(self, index: int) -> PassResult:
        started = time.perf_counter()
        timings = self._pass(self.keys, record=True)
        return PassResult.of(time.perf_counter() - started, timings)

    # -- one pass ----------------------------------------------------------------

    def _options(self, point: grid.Point):
        import repro.frontend as frontend
        from repro.core.options import SchedulePolicy

        arch = self._arch[point[0]]
        spec, options = frontend.extract_spec(
            grid.SOURCES[point[3]], return_options=True
        )
        overrides = grid.overrides_for(point, arch)
        overrides["schedule"] = SchedulePolicy.parse(overrides["schedule"])
        return spec, arch, options.with_(**overrides)

    def _compile(self, point: grid.Point, service):
        from repro import api

        spec, arch, options = self._options(point)
        program = api.compile(spec, arch=arch, options=options, service=service)
        cpe, mpe = program.cpe_source(), program.mpe_source()
        return program, len(cpe) + len(mpe)

    def _pass(self, keys, record: bool) -> Dict[str, Timing]:
        from repro.runtime.program import CompiledProgram
        from repro.service import CompileService, ServiceConfig

        OUT_DIR.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="grid-", dir=OUT_DIR)
        timings: Dict[str, Timing] = {}
        compiled: Dict[int, object] = {}
        try:
            writer = CompileService(ServiceConfig(cache_dir=cache_dir))
            for i, point in enumerate(keys):
                with YARDSTICK.timing() as timing:
                    out = self.failures.attempt(
                        f"compile {point}", lambda: self._compile(point, writer)
                    )
                if out is None:
                    continue
                program, source_bytes = out
                timings[str(i)] = timing
                compiled[i] = program
                if record:
                    self.source_bytes[i] = source_bytes
                self._check_serde(point, program, writer, CompiledProgram)

            reader = CompileService(ServiceConfig(cache_dir=cache_dir))
            for i, program in compiled.items():
                point = keys[i]
                spec, arch, options = self._options(point)
                t0 = time.perf_counter()
                out = self.failures.attempt(
                    f"reload {point}",
                    lambda: reader.get_program_with_source(spec, arch, options),
                )
                elapsed = 1e3 * (time.perf_counter() - t0)
                if out is None:
                    continue
                loaded, source = out
                self.failures.check(
                    source == "disk", f"reload {point}: served from {source}"
                )
                self.failures.check(
                    canonical(loaded) == canonical(program),
                    f"reload {point}: program differs from the one written",
                )
                if record:
                    self.loads_ms.append(elapsed)
                    self.artifact_bytes[i] = len(canonical(program))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return timings

    def _check_serde(self, point, program, service, program_cls) -> None:
        """Serde round trip: equal ``to_dict()`` and equal cache key."""
        data = program.to_dict()
        back = program_cls.from_dict(json.loads(json.dumps(data)))
        same_dict = json.dumps(back.to_dict(), sort_keys=True) == json.dumps(
            data, sort_keys=True
        )
        same_key = service.reconciled_key(
            back.spec, back.arch, back.options
        ) == service.reconciled_key(program.spec, program.arch, program.options)
        self.failures.check(same_dict, f"serde {point}: to_dict differs")
        self.failures.check(same_key, f"serde {point}: cache key differs")

    # -- results -------------------------------------------------------------------

    def report(self, passes) -> Dict[str, Tuple]:
        return {"load_p50_ms": (median(self.loads_ms), "ms",
                                f"n={len(self.loads_ms)}")}

    def layer_counters(self, passes) -> Dict[str, float]:
        return {
            "codegen.source_bytes": sum(self.source_bytes.values())
            / max(1, len(self.source_bytes)),
            "service.artifact_bytes": sum(self.artifact_bytes.values())
            / max(1, len(self.artifact_bytes)),
            "service.load_p50_ms": median(self.loads_ms) if self.loads_ms else 0.0,
        }

