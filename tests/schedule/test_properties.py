"""Property tests for schedule-rewrite legality and confluence.

Two properties hold the whole subsystem together:

* **legality is preserved by every pass composition** — whatever subset
  of rewrites is applied in whatever order, the installed tree lowers to
  a program the verifier's ``ScheduleMachine`` replays clean and that
  still fits the SPM budget;
* **commuting rewrites are confluent** — the timeline the full stack
  produces is independent of application order, so the pass-ordering
  search only ever explores *which* rewrites run, never fights
  ordering-dependent outcomes of the same set.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import SCHEDULE_PASS_NAMES
from repro.poly.schedule_tree import clone_tree
from repro.schedule import (
    REWRITES,
    apply_rewrite,
    check_legal,
    extract_timeline,
    lower_root,
    materialize,
)
from repro.sunway.arch import TOY_ARCH

from tests.schedule.conftest import fresh_context

pass_sequences = st.lists(
    st.sampled_from(SCHEDULE_PASS_NAMES),
    unique=True,
    min_size=1,
    max_size=len(SCHEDULE_PASS_NAMES),
)


@settings(max_examples=10, deadline=None)
@given(sequence=pass_sequences)
def test_every_composition_preserves_machine_acceptance_and_spm_slack(
    sequence,
):
    dec, dma, rma, arch = fresh_context(TOY_ARCH)
    for name in sequence:
        outcome = apply_rewrite(dec, name, dma, rma, arch)
        # A refused rewrite must leave a reason and never silently
        # half-apply.
        if not outcome.applied:
            assert outcome.reason
    # The final installed tree — whatever was admitted — lowers to a
    # machine-accepted, SPM-feasible program.
    candidate = lower_root(dec, dec.root, dma, rma, arch)
    assert check_legal(dec, candidate, arch) is None


def test_full_stack_is_confluent_across_all_orders(toy_context):
    """All 24 orderings of the four rewrites produce byte-identical
    timelines (pure tree-level application; legality is covered by the
    composition property above)."""
    dec, _, _, _ = toy_context
    dumps = set()
    for order in itertools.permutations(SCHEDULE_PASS_NAMES):
        clone = clone_tree(dec.root)
        timeline = extract_timeline(clone)
        for name in order:
            REWRITES[name].fn(timeline)
        materialize(timeline)
        dumps.add(extract_timeline(clone).dump())
    assert len(dumps) == 1


@settings(max_examples=10, deadline=None)
@given(sequence=pass_sequences)
def test_admitted_sequences_are_idempotent(sequence):
    """Re-running an already-applied rewrite finds no opportunity —
    every rewrite drives the timeline to its own fixed point."""
    dec, dma, rma, arch = fresh_context(TOY_ARCH)
    applied = [
        name
        for name in sequence
        if apply_rewrite(dec, name, dma, rma, arch).applied
    ]
    for name in applied:
        again = apply_rewrite(dec, name, dma, rma, arch)
        assert not again.applied, name
        assert again.reason == "no opportunity"
