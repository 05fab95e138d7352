"""The instrumented pass pipeline: composition, hooks, stats, snapshots."""

import pytest

from repro.core import (
    CompilerOptions,
    GemmCompiler,
    GemmSpec,
    build_pipeline,
    pipeline_identity,
    reconcile_options,
)
from repro.core.passes import TileSelectionPass
from repro.errors import CompilationError, ConfigurationError
from repro.runtime import serde
from repro.sunway.arch import SW26010PRO, TOY_ARCH


def names(passes):
    return [p.name for p in passes]


def pipeline_names(spec=None, options=None, arch=SW26010PRO):
    spec = spec or GemmSpec()
    options = reconcile_options(spec, options or CompilerOptions.full())
    return names(build_pipeline(spec, arch, options))


# -- pipeline composition ----------------------------------------------------


def test_default_pipeline_order():
    assert pipeline_names() == [
        "dependence-analysis",
        "tile-selection",
        "compute-decomposition",
        "dma-derivation",
        "rma-derivation",
        "micro-kernel-mark",
        "latency-hiding",
        "ast-generation",
        "verify",
    ]


def test_variants_are_pipeline_edits():
    batched = pipeline_names(
        GemmSpec(batch_param="BS"), CompilerOptions.full().with_(batch=True)
    )
    assert "batch-isolation" in batched
    assert batched.index("batch-isolation") == batched.index(
        "compute-decomposition"
    ) + 1

    fused = pipeline_names(GemmSpec(prologue_func="quant"))
    assert "prologue-fusion" in fused

    no_rma = pipeline_names(options=CompilerOptions.full().with_(enable_rma=False))
    assert "rma-derivation" not in no_rma

    no_hiding = pipeline_names(options=CompilerOptions.with_rma())
    assert "latency-hiding" not in no_hiding
    assert "communication-schedule" in no_hiding


def test_pipeline_identity_is_stable_and_shape_sensitive():
    spec, options = GemmSpec(), CompilerOptions.full()
    a = pipeline_identity(build_pipeline(spec, SW26010PRO, options))
    b = pipeline_identity(build_pipeline(spec, SW26010PRO, options))
    assert a == b
    no_rma = reconcile_options(spec, options.with_(enable_rma=False))
    c = pipeline_identity(build_pipeline(spec, SW26010PRO, no_rma))
    assert a != c


# -- schedule off / replace hooks --------------------------------------------


def test_schedule_off_matches_ablation_bit_exactly():
    """``schedule="off"`` on the full options must reproduce the §8.1
    no-hiding ablation: identical plan, identical AST, identical
    effective options."""
    disabled = GemmCompiler(
        SW26010PRO, CompilerOptions.full().with_(schedule="off")
    ).compile(GemmSpec())
    ablation = GemmCompiler(SW26010PRO, CompilerOptions.with_rma()).compile(
        GemmSpec()
    )
    assert disabled.options == ablation.options
    assert serde.encode(disabled.plan) == serde.encode(ablation.plan)
    assert serde.encode(disabled.cpe_program) == serde.encode(
        ablation.cpe_program
    )


def test_replacement_swaps_named_pass():
    class LoudTileSelection(TileSelectionPass):
        def run(self, ctx):
            super().run(ctx)
            ctx.info("custom tile selection ran")

    compiler = GemmCompiler(
        SW26010PRO,
        CompilerOptions.full(),
        replacements={"tile-selection": LoudTileSelection()},
    )
    program, ctx = compiler.compile_with_context(GemmSpec())
    assert any(
        d.message == "custom tile selection ran" for d in ctx.diagnostics
    )
    # A replaced pass changes the pipeline identity (and so the cache key).
    default_id = GemmCompiler(
        SW26010PRO, CompilerOptions.full()
    ).pipeline_identity_for(GemmSpec())
    assert compiler.pipeline_identity_for(GemmSpec()) != default_id
    assert program.cpe_program is not None


def test_replacement_of_unknown_pass_rejected():
    with pytest.raises(ConfigurationError):
        build_pipeline(
            GemmSpec(),
            SW26010PRO,
            CompilerOptions.full(),
            {"no-such-pass": TileSelectionPass()},
        )


# -- stats, snapshots, diagnostics ------------------------------------------


def test_pass_stats_match_pipeline_and_sum_to_codegen_seconds():
    compiler = GemmCompiler(SW26010PRO, CompilerOptions.full())
    program = compiler.compile(GemmSpec())
    assert [s.name for s in program.pass_stats] == names(
        compiler.pipeline_for(GemmSpec())
    )
    assert program.codegen_seconds == sum(s.seconds for s in program.pass_stats)
    assert all(s.seconds >= 0.0 for s in program.pass_stats)
    assert all(s.section.startswith("§") for s in program.pass_stats)


def test_one_snapshot_per_pass_and_diagnostics_sliced():
    """The after-pass hook runs once per pass, in order, once that
    pass's stat is recorded; the IR it renders is its own call."""
    calls = []

    def after_pass(index, pass_, ctx):
        assert ctx.stats[-1].name == pass_.name and len(ctx.stats) == index
        calls.append((index, pass_.name, ctx.snapshot()))

    compiler = GemmCompiler(SW26010PRO, CompilerOptions.full())
    _, ctx = compiler.compile_with_context(GemmSpec(), after_pass=after_pass)
    names = [s.name for s in ctx.stats]
    assert [(i, name) for i, name, _ in calls] == list(enumerate(names, 1))
    assert all("--- schedule tree ---" in snapshot for *_, snapshot in calls)
    # Every diagnostic belongs to exactly one pass's stat slice.
    sliced = [d for s in ctx.stats for d in s.diagnostics]
    assert sliced == list(ctx.diagnostics)
    assert any(d.category == "decision" for d in ctx.diagnostics)


# -- context and option plumbing --------------------------------------------


def test_decomposition_carries_arch():
    for arch in (SW26010PRO, TOY_ARCH):
        program = GemmCompiler(arch, CompilerOptions.full()).compile(GemmSpec())
        assert program.decomposition.arch is arch


def test_reconciled_options_land_on_program():
    # Spec-implied fusion, inert batch flag and unused fusion funcs are
    # all normalised before compilation and stamped on the program.
    program = GemmCompiler(
        SW26010PRO,
        CompilerOptions.full().with_(prologue_func="sigmoid"),
    ).compile(GemmSpec(epilogue_func="relu"))
    assert program.options.fusion == "epilogue"
    assert program.options.epilogue_func == "relu"
    # The unused prologue slot is inert and snaps back to the default.
    assert program.options.prologue_func == CompilerOptions().prologue_func


def test_reconcile_rejects_mismatches():
    with pytest.raises(CompilationError):
        reconcile_options(GemmSpec(batch_param="BS"), CompilerOptions.full())
    with pytest.raises(CompilationError):
        reconcile_options(
            GemmSpec(), CompilerOptions.full().with_(fusion="prologue")
        )
