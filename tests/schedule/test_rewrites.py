"""The three schedule rewrites and the clone→replay→admit protocol."""

import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.errors import CompilationError
from repro.runtime.executor import Executor
from repro.schedule import (
    REWRITES,
    apply_rewrite,
    check_legal,
    extract_timeline,
    lower_root,
)
from repro.sunway.arch import SW26010PRO, TOY_ARCH

from tests.schedule.conftest import fresh_context


def test_registry_matches_the_canonical_pass_names():
    assert tuple(REWRITES) == (
        "split-waits", "reorder-issues", "merge-transfers",
    )
    for name, rewrite in REWRITES.items():
        assert rewrite.name == name
        assert rewrite.summary


def test_unknown_rewrite_is_an_error(toy_context):
    dec, dma, rma, arch = toy_context
    with pytest.raises(CompilationError, match="unknown schedule rewrite"):
        apply_rewrite(dec, "defragment-universe", dma, rma, arch)


@pytest.mark.parametrize(
    "name", ["split-waits", "reorder-issues", "merge-transfers"]
)
def test_rewrite_applies_and_is_proven_on_the_recipe(toy_context, name):
    dec, dma, rma, arch = toy_context
    before = dec.root.dump()
    outcome = apply_rewrite(dec, name, dma, rma, arch)
    assert outcome.applied
    assert dec.root.dump() != before
    # The installed tree lowers and replays clean on its own.
    candidate = lower_root(dec, dec.root, dma, rma, arch)
    assert check_legal(dec, candidate, arch) is None


def test_optimize_compile_never_runs_the_executor(monkeypatch):
    """Admission proves each rewrite on the replay machine and times
    nothing: bubble figures come from the simulator, not the compiler."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("an optimize compile ran the executor")

    monkeypatch.setattr(Executor, "run", refuse)
    options = CompilerOptions.full().with_(schedule="optimize")
    program = GemmCompiler(TOY_ARCH, options).compile(GemmSpec())
    assert any(
        ": applied" in diagnostic.message
        for stat in program.pass_stats
        for diagnostic in stat.diagnostics
    )


def test_rejected_candidate_leaves_the_tree_untouched(toy_context):
    """Force the legality check to refuse and confirm the admission
    protocol rolls back (the clone is dropped, dec.root survives)."""
    from repro.schedule import passes as schedule_passes

    dec, dma, rma, arch = toy_context
    before = dec.root.dump()
    bands_before = dict(dec.bands)
    original = schedule_passes.check_legal
    try:
        schedule_passes.check_legal = lambda *a: "synthetic refusal"
        outcome = schedule_passes.apply_rewrite(
            dec, "split-waits", dma, rma, arch
        )
    finally:
        schedule_passes.check_legal = original
    assert not outcome.applied
    assert outcome.reason == "synthetic refusal"
    assert dec.root.dump() == before
    assert dec.bands == bands_before


def test_band_handles_repointed_into_admitted_clone(toy_context):
    dec, dma, rma, arch = toy_context
    assert apply_rewrite(dec, "reorder-issues", dma, rma, arch).applied
    live = {id(node) for node in dec.root.walk()}
    for key, band in dec.bands.items():
        assert id(band) in live, key


def test_merge_transfers_moves_peel_into_chunk_burst():
    dec, dma, rma, arch = fresh_context(SW26010PRO)
    before = extract_timeline(dec.root)
    assert any(seg.steps for seg in before.level("kouter").peel)
    assert apply_rewrite(dec, "merge-transfers", dma, rma, arch).applied
    after = extract_timeline(dec.root)
    # The peeled A0/B0 issues now ride in the chunk's first burst...
    kouter = after.level("kouter")
    assert not any(seg.steps for seg in kouter.peel)
    first = after.level("chunk").body[0]
    names = first.step_names()
    assert "getA_0" in names and "getB_0" in names


def test_split_waits_separates_the_wait_pair():
    dec, dma, rma, arch = fresh_context(SW26010PRO)
    before = extract_timeline(dec.root).level("kouter")
    paired = [
        seg for seg in before.body
        if len(seg.steps) >= 2 and all(s.kind == "dma_wait" for s in seg.steps)
    ]
    assert paired, "recipe should group the A/B waits"
    assert apply_rewrite(dec, "split-waits", dma, rma, arch).applied
    after = extract_timeline(dec.root).level("kouter")
    still_paired = [
        seg for seg in after.body
        if len(seg.steps) >= 2 and all(s.kind == "dma_wait" for s in seg.steps)
    ]
    assert len(still_paired) < len(paired)


def test_reorder_issues_hoists_swap_and_front_loads_issues():
    dec, dma, rma, arch = fresh_context(SW26010PRO)
    assert apply_rewrite(dec, "reorder-issues", dma, rma, arch).applied
    after = extract_timeline(dec.root)
    kouter = after.level("kouter")
    # The decollectivized buffer swap leads the outer body...
    assert all(s.kind == "buffer_swap" for s in kouter.body[0].steps)
    # ...and unguarded pure-issue segments precede the first wait.
    kinds = [
        {s.kind for s in seg.steps}
        for seg in kouter.body
    ]
    first_wait = next(
        i for i, ks in enumerate(kinds) if "dma_wait" in ks
    )
    assert not any(
        ks == {"dma_issue"} for ks in kinds[first_wait:]
    )
