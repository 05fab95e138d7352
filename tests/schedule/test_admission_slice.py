"""The rewrite stack over a seeded slice of the tuner's search space.

An ``optimize`` compile has one proof: the rewrites edit the tree in
place and the terminal verify pass admits the result (a refusal fails
the compile).  This slice is the traffic evidence behind that design:
seeded ``optimize`` candidates of the tuner's space, cycling through
every registered arch and six spec kinds, must each compile with all
three rewrites applied and a passing verification report, equal to the
one :func:`repro.verify.verify_program` re-derives from the program.
"""

from __future__ import annotations

import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.schedule import REWRITES
from repro.sunway import all_archs
from repro.tune.pruner import analyze
from repro.tune.space import SplitMix64, enumerate_candidates
from repro.verify import verify_program

#: Spec kinds, each with the option fields that restate the spec.
SPECS = {
    "plain": (GemmSpec(), {}),
    "batched": (GemmSpec(batch_param="BS"), {"batch": True}),
    "prologue": (GemmSpec(prologue_func="quant"), {}),
    "epilogue": (GemmSpec(epilogue_func="sigmoid"), {}),
    "transposed": (GemmSpec(trans_a=True), {}),
    "float32": (GemmSpec(dtype="float32"), {}),
}
SEED = 21
#: Points per (arch, spec kind) pair: 5 archs x 6 kinds x 3 = 90.
PER_PAIR = 3


def _draw_points():
    """Seeded distinct feasible ``optimize`` candidates per (arch, kind)."""
    rng = SplitMix64(SEED)
    points = []
    for arch_name, arch in sorted(all_archs().items()):
        for kind, (spec, fields) in SPECS.items():
            base = CompilerOptions.full().with_(**fields)
            pool = [
                c for c in enumerate_candidates(arch, base)
                if c.schedule == "optimize"
            ]
            picked = []
            while len(picked) < PER_PAIR:
                candidate = rng.choice(pool)
                if candidate not in picked and analyze(
                    spec, arch, base, candidate
                ).feasible:
                    picked.append(candidate)
            points.extend(
                pytest.param(
                    arch, spec, candidate.apply(base),
                    id=f"{arch_name}-{kind}-{candidate.name()}",
                )
                for candidate in picked
            )
    return points


@pytest.mark.parametrize("arch,spec,options", _draw_points())
def test_every_rewrite_applies_and_the_program_is_admitted(arch, spec, options):
    program = GemmCompiler(arch, options).compile(spec)
    assert program.verification is not None and program.verification.ok
    # The gate's report is the program's one proof: re-deriving it from
    # the rewritten program gives the same report.
    assert verify_program(program).describe() == program.verification.describe()
    decisions = {
        stat.name: [d.message for d in stat.diagnostics]
        for stat in program.pass_stats
        if stat.name.startswith("schedule:")
    }
    assert decisions == {
        f"schedule:{name}": [f"{name}: applied"] for name in REWRITES
    }
