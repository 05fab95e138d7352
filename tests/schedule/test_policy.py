"""SchedulePolicy: parsing, reconciliation, serde, cache keys and the
pipeline it selects."""

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.core.options import SchedulePolicy
from repro.core.passes import build_pipeline, reconcile_options
from repro.errors import ConfigurationError
from repro.runtime import serde
from repro.schedule import REWRITES
from repro.service.keys import cache_key
from repro.sunway.arch import SW26010PRO


# -- parsing ---------------------------------------------------------------


def test_parse_accepts_mode_strings():
    assert SchedulePolicy.parse("optimize") == SchedulePolicy(mode="optimize")
    assert SchedulePolicy.parse(None) == SchedulePolicy()
    same = SchedulePolicy(mode="off")
    assert SchedulePolicy.parse(same) is same


@pytest.mark.parametrize(
    "bad",
    ["turbo", 42, {"mode": "optimize", "allo": []}, ["optimize"],
     {"mode": "optimize"}, {"mode": "optimize", "allow": ["split-waits"]}],
)
def test_parse_rejects_malformed_values(bad):
    with pytest.raises(ConfigurationError):
        SchedulePolicy.parse(bad)


def test_policy_is_a_mode_and_nothing_else():
    with pytest.raises(ConfigurationError, match="unknown schedule mode"):
        SchedulePolicy(mode="sideways")
    with pytest.raises(TypeError):
        SchedulePolicy(mode="optimize", allow=("split-waits",))


# -- reconciliation --------------------------------------------------------


def test_reconcile_canonicalises_recipe_to_none():
    """An explicit recipe policy reconciles to the default policy (what
    a ``None`` policy meant before schema 6)."""
    spec = GemmSpec()
    options = CompilerOptions.full().with_(schedule="recipe")
    assert reconcile_options(spec, options, SW26010PRO).schedule == (
        SchedulePolicy()
    )


def test_reconcile_off_disables_hiding():
    spec = GemmSpec()
    options = CompilerOptions.full().with_(schedule=SchedulePolicy(mode="off"))
    reconciled = reconcile_options(spec, options, SW26010PRO)
    assert reconciled.schedule == SchedulePolicy(mode="off")
    assert not reconciled.latency_hiding


def test_reconcile_pins_off_only_without_hiding():
    spec = GemmSpec()
    optimize = CompilerOptions.full().with_(schedule="optimize")
    assert reconcile_options(spec, optimize, SW26010PRO) == optimize
    no_asm = CompilerOptions.full().with_(kernel_backend="naive")
    assert reconcile_options(spec, no_asm, SW26010PRO).schedule == (
        SchedulePolicy(mode="off")
    )


def test_equivalent_policies_share_a_cache_key():
    spec = GemmSpec()
    base = cache_key(spec, options=CompilerOptions.full())
    recipe = cache_key(
        spec,
        options=CompilerOptions.full().with_(
            schedule=SchedulePolicy(mode="recipe")
        ),
    )
    assert recipe == base
    optimize = cache_key(
        spec,
        options=CompilerOptions.full().with_(
            schedule=SchedulePolicy(mode="optimize")
        ),
    )
    spelled_as_string = cache_key(
        spec, options=CompilerOptions.full().with_(schedule="optimize")
    )
    assert optimize == spelled_as_string
    assert optimize != base  # rewritten timelines address separately


# -- serde -----------------------------------------------------------------


def test_policy_round_trips_through_serde():
    options = CompilerOptions.full().with_(
        schedule=SchedulePolicy(mode="optimize")
    )
    decoded = serde.decode(serde.encode(options))
    assert decoded == options
    assert serde.encode(options.schedule)["v"] == {"mode": "optimize"}


# -- pipeline selection ----------------------------------------------------


def test_optimize_pipeline_contains_schedule_passes_in_policy_order():
    """``optimize`` runs every registered rewrite, in registry order,
    right after the recipe is built."""
    spec = GemmSpec()
    options = reconcile_options(
        spec, CompilerOptions.full().with_(schedule="optimize"), SW26010PRO
    )
    names = [p.name for p in build_pipeline(spec, SW26010PRO, options)]
    scheduled = [n for n in names if n.startswith("schedule:")]
    assert scheduled == [
        "schedule:split-waits",
        "schedule:reorder-issues",
        "schedule:merge-transfers",
    ]
    assert scheduled == [f"schedule:{name}" for name in REWRITES]
    start = names.index("latency-hiding") + 1
    assert names[start:start + len(scheduled)] == scheduled


def test_recipe_pipeline_has_no_schedule_passes():
    spec = GemmSpec()
    options = reconcile_options(spec, CompilerOptions.full(), SW26010PRO)
    names = [p.name for p in build_pipeline(spec, SW26010PRO, options)]
    assert not any(n.startswith("schedule:") for n in names)


def test_variant_name_reflects_the_policy():
    full = CompilerOptions.full()
    assert "+sched" not in full.variant_name()
    opt = full.with_(schedule=SchedulePolicy(mode="optimize"))
    assert opt.variant_name() == "+hiding+sched"
