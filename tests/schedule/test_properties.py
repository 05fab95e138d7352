"""Property tests for schedule-rewrite legality and confluence.

Three properties hold the whole subsystem together:

* **legality is preserved by every pass composition** — whatever subset
  of rewrites is applied in whatever order, the rewritten tree lowers
  (through the pipeline's own AST generation) to a program the verify
  pass admits: the ``ScheduleMachine`` replays it clean and it still
  fits the SPM budget;
* **commuting rewrites are confluent** — the timeline the full stack
  produces is independent of application order, so the registry order
  ``optimize`` runs them in is a convention, not a tuning choice;
* **every rewrite is idempotent** — it drives the timeline to its own
  fixed point.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule import REWRITES, apply_rewrite, extract_timeline
from repro.sunway.arch import TOY_ARCH

from tests.schedule.conftest import fresh_context, prove

pass_sequences = st.lists(
    st.sampled_from(tuple(REWRITES)),
    unique=True,
    min_size=1,
    max_size=len(REWRITES),
)


@settings(max_examples=10, deadline=None)
@given(sequence=pass_sequences)
def test_every_composition_preserves_machine_acceptance_and_spm_slack(
    sequence,
):
    ctx = fresh_context(TOY_ARCH)
    for name in sequence:
        apply_rewrite(ctx.decomposition, name)
    # The verify pass raises KernelAdmissionError on any refusal.
    assert prove(ctx).ok


def test_full_stack_is_confluent_across_all_orders():
    """All 6 orderings of the three rewrites produce byte-identical
    timelines and trees (legality is covered by the composition
    property above)."""
    dumps = set()
    orders = list(itertools.permutations(REWRITES))
    assert len(orders) == 6
    for order in orders:
        dec = fresh_context(TOY_ARCH).decomposition
        for name in order:
            apply_rewrite(dec, name)
        dumps.add((extract_timeline(dec.root).dump(), dec.root.dump()))
    assert len(dumps) == 1


@settings(max_examples=10, deadline=None)
@given(sequence=pass_sequences)
def test_admitted_sequences_are_idempotent(sequence):
    """Re-running an already-applied rewrite finds no opportunity —
    every rewrite drives the timeline to its own fixed point."""
    dec = fresh_context(TOY_ARCH).decomposition
    applied = [name for name in sequence if apply_rewrite(dec, name)]
    for name in applied:
        assert not apply_rewrite(dec, name), name
