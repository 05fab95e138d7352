"""The timeline IR and its extract/materialize round trip.

The rewrite machinery is only sound if lifting a schedule tree into a
timeline and writing it straight back is the identity — otherwise a
"rewrite" could change the program without any pass having fired.
"""

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.schedule import (
    ROLE_TO_KIND,
    STEP_KINDS,
    ScheduleStep,
    extract_timeline,
    materialize,
)
from repro.errors import CompilationError
from repro.sunway.arch import SW26010, SW26010PRO

from tests.schedule.conftest import fresh_context

VARIANTS = {
    "default": (SW26010PRO, CompilerOptions.full(), GemmSpec()),
    "no-rma": (
        SW26010PRO,
        CompilerOptions.full().with_(enable_rma=False),
        GemmSpec(),
    ),
    "fused": (SW26010PRO, CompilerOptions.full(), GemmSpec(epilogue_func="relu")),
    "batched": (
        SW26010PRO,
        CompilerOptions.full().with_(batch=True),
        GemmSpec(batch_param="BS"),
    ),
    "sw26010": (SW26010, CompilerOptions.full(), GemmSpec()),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_extract_materialize_is_identity(variant):
    arch, options, spec = VARIANTS[variant]
    dec = fresh_context(arch, options, spec).decomposition
    before = dec.root.dump()
    timeline = extract_timeline(dec.root)
    materialize(timeline)
    assert dec.root.dump() == before


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_dump_is_deterministic(variant):
    arch, options, spec = VARIANTS[variant]
    dec = fresh_context(arch, options, spec).decomposition
    first = extract_timeline(dec.root).dump()
    second = extract_timeline(dec.root).dump()
    assert first == second


def test_every_step_kind_is_canonical(toy_context):
    dec = toy_context.decomposition
    timeline = extract_timeline(dec.root)
    seen = set()
    for lvl in timeline.levels.values():
        for seg in lvl.all_segments():
            for step in seg.steps:
                assert step.kind in STEP_KINDS
                seen.add(step.kind)
    # The full recipe exercises the whole stage alphabet except the
    # explicit compute steps (scale/prologue/epilogue are chunk-level).
    assert {"dma_issue", "dma_wait", "rma_put", "rma_wait",
            "buffer_swap"} <= seen


def test_levels_are_outermost_first(toy_context):
    dec = toy_context.decomposition
    timeline = extract_timeline(dec.root)
    assert list(timeline.levels) == ["chunk", "kouter", "kmid"]


def test_no_rma_variant_has_no_kmid_level():
    dec = fresh_context(
        SW26010PRO, CompilerOptions.full().with_(enable_rma=False)
    ).decomposition
    timeline = extract_timeline(dec.root)
    assert "kmid" not in timeline.levels
    assert "kouter" in timeline.levels


def test_unknown_role_is_rejected():
    class FakeStmt:
        name = "mystery"
        role = "quantum_teleport"

    with pytest.raises(CompilationError, match="quantum_teleport"):
        ScheduleStep.of(FakeStmt())


def test_role_map_covers_only_known_stages():
    assert set(ROLE_TO_KIND.values()) <= set(STEP_KINDS)
