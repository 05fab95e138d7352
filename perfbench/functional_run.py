"""functional-run: data-moving executions checked against NumPy.

Closed loop, one in-process caller.  Where paper-sweep only times the
mesh, this workload moves every tile through the DMA/RMA engines and
the micro kernel, so the functional copy path is on the measured path.
Cases are drawn from the seed per class (aligned, ragged and padded,
batched, fused, transposed, guarded); each class keeps the same count
and padded size whatever the seed, so seeds change values, not cost.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

import numpy as np

from perfbench.common import (
    YARDSTICK, Failures, PassResult, Timing, Workload, median,
)

ARCH = "sw26010pro"

#: Float64 tolerance: far above the ~1e-13 reassociation error of a
#: K <= 512 dot product, far below any indexing or fusion bug.
RTOL = 1e-9
ATOL = 1e-9

#: Program name -> (spec kwargs, option overrides).
PROGRAMS = {
    "plain": ({}, {}),
    "batched": ({"batch_param": "BS"}, {"batch": True}),
    "prologue": ({"prologue_func": "quant"},
                 {"fusion": "prologue", "prologue_func": "quant"}),
    "epilogue": ({"epilogue_func": "sigmoid"},
                 {"fusion": "epilogue", "epilogue_func": "sigmoid"}),
    "trans_a": ({"trans_a": True}, {}),
    "trans_b": ({"trans_b": True}, {}),
}

#: (class, program, cases per pass)
CLASSES = (
    ("aligned", "plain", 4),
    ("ragged", "plain", 6),
    ("batched", "batched", 4),
    ("prologue", "prologue", 3),
    ("epilogue", "epilogue", 3),
    ("trans_a", "trans_a", 2),
    ("trans_b", "trans_b", 2),
    ("guarded", "plain", 3),
)


def draw_cases(seed: int) -> List[Dict[str, object]]:
    """The seeded case list: every shape pads to one 512x512 chunk with
    K <= 256 (aligned cases use exactly that), batched ones to two."""
    rng = random.Random(seed)
    cases: List[Dict[str, object]] = []
    for cls, program, count in CLASSES:
        for i in range(count):
            if cls == "aligned":
                M, N, K = 512, 512, 256
            elif cls == "batched":
                M, N, K = (rng.randint(64, 512), rng.randint(64, 512),
                           rng.randint(64, 256))
            else:
                M, N, K = (rng.randint(257, 512), rng.randint(257, 512),
                           rng.randint(129, 256))
            case = {
                "id": f"{cls}-{i}",
                "program": program,
                "shape": (M, N, K),
                "batch": 2 if cls == "batched" else 1,
                "alpha": rng.choice((1.0, 0.5, -2.0)),
                "beta": rng.choice((0.0, 1.0)),
                "seed": rng.randrange(1 << 31),
                "guarded": False,
            }
            cases.append(case)
            if cls == "guarded":
                # The same shape and data again under the certificate
                # guard: the pair's difference is the guard's cost.
                cases.append({**case, "id": f"{cls}-{i}-on", "guarded": True})
    return cases


def reference(case, A, B, C0) -> np.ndarray:
    from repro.codegen.elementwise import get_elementwise

    spec_kw, _ = PROGRAMS[case["program"]]
    A_eff = A.swapaxes(-1, -2) if spec_kw.get("trans_a") else A
    B_eff = B.swapaxes(-1, -2) if spec_kw.get("trans_b") else B
    if "prologue_func" in spec_kw:
        A_eff = get_elementwise(spec_kw["prologue_func"]).numpy_fn(A_eff)
    out = case["alpha"] * (A_eff @ B_eff) + case["beta"] * C0
    if "epilogue_func" in spec_kw:
        out = get_elementwise(spec_kw["epilogue_func"]).numpy_fn(out)
    return out


def operands(case):
    M, N, K = case["shape"]
    spec_kw, _ = PROGRAMS[case["program"]]
    rng = np.random.default_rng(case["seed"])
    lead = (case["batch"],) if case["batch"] > 1 else ()
    A = rng.standard_normal(lead + ((K, M) if spec_kw.get("trans_a") else (M, K)))
    B = rng.standard_normal(lead + ((N, K) if spec_kw.get("trans_b") else (K, N)))
    C0 = rng.standard_normal(lead + (M, N))
    return A, B, C0


class FunctionalRun(Workload):
    name = "functional-run"
    aliases = {"p50_ms": "run_p50_ms", "tail_ms": "run_tail_ms",
               "ops_per_s": "runs per second"}
    archs = [ARCH]

    def __init__(self, seed: int, failures: Failures) -> None:
        from repro import get_arch

        self.failures = failures
        self.arch = get_arch(ARCH)
        self.cases = draw_cases(seed)
        self.programs: Dict[str, object] = {}

    def warm_up(self) -> None:
        """Compile every program into a fresh service."""
        from repro import api
        from repro.core.spec import GemmSpec
        from repro.service import CompileService

        service = CompileService()
        self.programs = {
            name: api.compile(GemmSpec(**spec_kw), arch=self.arch,
                              service=service, **overrides)
            for name, (spec_kw, overrides) in PROGRAMS.items()
        }

    def run_pass(self, index: int) -> PassResult:
        from repro import api

        timings: Dict[str, Timing] = {}
        started = time.perf_counter()
        for case in self.cases:
            A, B, C0 = operands(case)
            C = C0.copy()
            program = self.programs[case["program"]]
            with YARDSTICK.timing() as timing:
                result = self.failures.attempt(
                    case["id"],
                    lambda: api.run(program, A, B, c=C, alpha=case["alpha"],
                                    beta=case["beta"], guarded=case["guarded"]),
                )
            if result is None:
                continue
            timings[case["id"]] = timing
            ok = np.allclose(result.c, reference(case, A, B, C0),
                             rtol=RTOL, atol=ATOL)
            self.failures.check(ok, f"{case['id']} {case['shape']}: "
                                    "output differs from NumPy")
        return PassResult.of(time.perf_counter() - started, timings)

    # -- results -------------------------------------------------------------------

    def layer_counters(self, passes) -> Dict[str, float]:
        """``verify.guard_ms``: guarded minus unguarded latency of the
        same case, median over pairs and passes."""
        diffs = []
        for p in passes:
            for case in self.cases:
                plain = case["id"].removesuffix("-on")
                if case["guarded"] and {case["id"], plain} <= p.latencies_ms.keys():
                    diffs.append(p.latencies_ms[case["id"]] - p.latencies_ms[plain])
        return {"verify.guard_ms": median(diffs) if diffs else 0.0}

