"""The three schedule rewrites and their one-proof admission: each
rewrite edits the tree in place and the terminal verify pass admits
the final program."""

import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.errors import CompilationError, KernelAdmissionError
from repro.runtime.executor import Executor
from repro.schedule import REWRITES, Rewrite, apply_rewrite, extract_timeline
from repro.sunway.arch import SW26010PRO, TOY_ARCH
from repro.verify import FAILED

from tests.schedule.conftest import fresh_context, prove


def test_registry_matches_the_canonical_pass_names():
    assert tuple(REWRITES) == (
        "split-waits", "reorder-issues", "merge-transfers",
    )
    for name, rewrite in REWRITES.items():
        assert rewrite.name == name
        assert rewrite.summary


def test_unknown_rewrite_is_an_error(toy_context):
    with pytest.raises(CompilationError, match="unknown schedule rewrite"):
        apply_rewrite(toy_context.decomposition, "defragment-universe")


@pytest.mark.parametrize(
    "name", ["split-waits", "reorder-issues", "merge-transfers"]
)
def test_rewrite_applies_and_is_proven_on_the_recipe(toy_context, name):
    dec = toy_context.decomposition
    before = dec.root.dump()
    assert apply_rewrite(dec, name)
    assert dec.root.dump() != before
    # The rewritten tree lowers and is admitted by the verify pass.
    assert prove(toy_context).ok


def test_optimize_compile_never_runs_the_executor(monkeypatch):
    """Admission proves the rewritten program on the replay machine and
    times nothing: bubble figures come from the simulator, not the
    compiler."""

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


def _drop_first_dma_wait(tl):
    """A broken rewrite: deletes the first DMA wait of the outer body,
    so a tile is read while its transfer is still in flight."""
    for seg in tl.level("kouter").body:
        for step in seg.steps:
            if step.kind == "dma_wait":
                seg.steps.remove(step)
                return True
    return False


def test_refused_rewrite_fails_the_compile_with_the_witness(monkeypatch):
    """The verify pass is the rewrites' only proof: a rewrite that
    breaks the schedule fails the ``optimize`` compile with the hazard
    witness, instead of being dropped silently."""
    monkeypatch.setitem(
        REWRITES,
        "split-waits",
        Rewrite("split-waits", "drops a wait", _drop_first_dma_wait),
    )
    optimize = CompilerOptions.full().with_(schedule="optimize")
    with pytest.raises(KernelAdmissionError) as err:
        GemmCompiler(TOY_ARCH, optimize).compile(GemmSpec())
    refused = err.value.report.check("double-buffer-hazards")
    assert refused.status == FAILED
    assert refused.witness["violation"] in (
        "read-while-in-flight",
        "unbalanced-reply-counter",
        "in-flight-at-exit",
    )
    assert "double-buffer-hazards" in str(err.value)

    # The recipe never runs the rewrite and still compiles.
    recipe = GemmCompiler(TOY_ARCH, CompilerOptions.full()).compile(GemmSpec())
    assert recipe.verification.ok


def test_band_handles_stay_live_after_an_in_place_rewrite(toy_context):
    dec = toy_context.decomposition
    bands_before = dict(dec.bands)
    assert apply_rewrite(dec, "reorder-issues")
    assert dec.bands == bands_before
    live = {id(node) for node in dec.root.walk()}
    for key, band in dec.bands.items():
        assert id(band) in live, key


def test_merge_transfers_moves_peel_into_chunk_burst():
    dec = fresh_context(SW26010PRO).decomposition
    before = extract_timeline(dec.root)
    assert any(seg.steps for seg in before.level("kouter").peel)
    assert apply_rewrite(dec, "merge-transfers")
    after = extract_timeline(dec.root)
    # The peeled A0/B0 issues now ride in the chunk's first burst...
    kouter = after.level("kouter")
    assert not any(seg.steps for seg in kouter.peel)
    first = after.level("chunk").body[0]
    names = first.step_names()
    assert "getA_0" in names and "getB_0" in names


def test_split_waits_separates_the_wait_pair():
    dec = fresh_context(SW26010PRO).decomposition
    before = extract_timeline(dec.root).level("kouter")
    paired = [
        seg for seg in before.body
        if len(seg.steps) >= 2 and all(s.kind == "dma_wait" for s in seg.steps)
    ]
    assert paired, "recipe should group the A/B waits"
    assert apply_rewrite(dec, "split-waits")
    after = extract_timeline(dec.root).level("kouter")
    still_paired = [
        seg for seg in after.body
        if len(seg.steps) >= 2 and all(s.kind == "dma_wait" for s in seg.steps)
    ]
    assert len(still_paired) < len(paired)


def test_reorder_issues_hoists_swap_and_front_loads_issues():
    dec = fresh_context(SW26010PRO).decomposition
    assert apply_rewrite(dec, "reorder-issues")
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
