"""SchedulePolicy: parsing, reconciliation, serde, cache keys and the
pipeline it selects."""

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.core.options import SCHEDULE_PASS_NAMES, SchedulePolicy
from repro.core.passes import build_pipeline, reconcile_options
from repro.errors import ConfigurationError
from repro.runtime import serde
from repro.service.keys import cache_key
from repro.sunway.arch import SW26010PRO


# -- parsing ---------------------------------------------------------------


def test_parse_accepts_mode_strings_and_dicts():
    assert SchedulePolicy.parse("optimize").mode == "optimize"
    assert SchedulePolicy.parse(None) == SchedulePolicy()
    policy = SchedulePolicy.parse(
        {"mode": "optimize", "allow": ["reorder-issues"]}
    )
    assert policy.allow == ("reorder-issues",)
    same = SchedulePolicy(mode="off")
    assert SchedulePolicy.parse(same) is same


@pytest.mark.parametrize(
    "bad",
    ["turbo", 42, {"mode": "optimize", "allo": []}, ["optimize"]],
)
def test_parse_rejects_malformed_values(bad):
    with pytest.raises(ConfigurationError):
        SchedulePolicy.parse(bad)


def test_policy_validates_pass_names():
    with pytest.raises(ConfigurationError, match="unknown schedule pass"):
        SchedulePolicy(mode="optimize", allow=("defrag",))
    with pytest.raises(ConfigurationError, match="unknown schedule mode"):
        SchedulePolicy(mode="sideways")


def test_pass_names_honours_allow_and_deny():
    assert SchedulePolicy().pass_names() == SCHEDULE_PASS_NAMES
    assert SchedulePolicy(
        mode="optimize", allow=("retire-waits", "split-waits")
    ).pass_names() == ("retire-waits", "split-waits")
    assert SchedulePolicy(
        mode="optimize", deny=("reorder-issues",)
    ).pass_names() == tuple(
        n for n in SCHEDULE_PASS_NAMES if n != "reorder-issues"
    )


# -- reconciliation --------------------------------------------------------


def test_reconcile_canonicalises_recipe_to_none():
    """A recipe policy's filters are inert: it reconciles to the default
    policy (what a ``None`` policy meant before schema 6)."""
    spec = GemmSpec()
    options = CompilerOptions.full().with_(
        schedule=SchedulePolicy(mode="recipe", deny=("retire-waits",))
    )
    assert reconcile_options(spec, options, SW26010PRO).schedule == (
        SchedulePolicy()
    )


def test_reconcile_off_disables_hiding():
    spec = GemmSpec()
    options = CompilerOptions.full().with_(schedule=SchedulePolicy(mode="off"))
    reconciled = reconcile_options(spec, options, SW26010PRO)
    assert reconciled.schedule == SchedulePolicy(mode="off")
    assert not reconciled.latency_hiding


def test_reconcile_normalises_optimize_to_resolved_allow_list():
    spec = GemmSpec()
    options = CompilerOptions.full().with_(
        schedule=SchedulePolicy(mode="optimize", deny=("retire-waits",))
    )
    reconciled = reconcile_options(spec, options, SW26010PRO)
    assert reconciled.schedule == SchedulePolicy(
        mode="optimize",
        allow=tuple(n for n in SCHEDULE_PASS_NAMES if n != "retire-waits"),
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
    allow_all = cache_key(
        spec,
        options=CompilerOptions.full().with_(
            schedule=SchedulePolicy(mode="optimize")
        ),
    )
    spelled_out = cache_key(
        spec,
        options=CompilerOptions.full().with_(
            schedule=SchedulePolicy(
                mode="optimize", allow=SCHEDULE_PASS_NAMES
            )
        ),
    )
    assert allow_all == spelled_out
    assert allow_all != base  # rewritten timelines address separately


# -- serde -----------------------------------------------------------------


def test_policy_round_trips_through_serde():
    options = CompilerOptions.full().with_(
        schedule=SchedulePolicy(
            mode="optimize", allow=("split-waits",), deny=()
        )
    )
    decoded = serde.decode(serde.encode(options))
    assert decoded == options
    assert isinstance(decoded.schedule.allow, tuple)


# -- pipeline selection ----------------------------------------------------


def test_optimize_pipeline_contains_schedule_passes_in_policy_order():
    spec = GemmSpec()
    options = reconcile_options(
        spec,
        CompilerOptions.full().with_(
            schedule=SchedulePolicy(
                mode="optimize",
                allow=("merge-transfers", "split-waits"),
            )
        ),
        SW26010PRO,
    )
    names = [p.name for p in build_pipeline(spec, SW26010PRO, options)]
    assert names.index("schedule:merge-transfers") < names.index(
        "schedule:split-waits"
    )
    assert names.index("latency-hiding") < names.index(
        "schedule:merge-transfers"
    )
    assert "schedule:reorder-issues" not in names


def test_recipe_pipeline_has_no_schedule_passes():
    spec = GemmSpec()
    options = reconcile_options(spec, CompilerOptions.full(), SW26010PRO)
    names = [p.name for p in build_pipeline(spec, SW26010PRO, options)]
    assert not any(n.startswith("schedule:") for n in names)


def test_variant_name_reflects_the_policy():
    full = CompilerOptions.full()
    assert "+sched" not in full.variant_name()
    opt = full.with_(schedule=SchedulePolicy(mode="optimize"))
    assert "+sched" in opt.variant_name()
    subset = full.with_(
        schedule=SchedulePolicy(mode="optimize", allow=("split-waits",))
    )
    assert "+sched[split-waits]" in subset.variant_name()
