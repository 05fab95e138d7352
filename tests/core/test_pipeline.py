"""The end-to-end compiler driver and the final schedule tree."""

import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.errors import CompilationError, ConfigurationError
from repro.poly.astnodes import CommStmt, ForLoop, IfStmt, KernelCall, NaiveComputeStmt, walk_stmts
from repro.poly.schedule_tree import ExtensionNode, FilterNode, MarkNode
from repro.sunway.arch import SW26010PRO, TOY_ARCH


def compile_with(options, spec=None, arch=SW26010PRO):
    spec = spec or GemmSpec(batch_param="BS" if options.batch else None)
    return GemmCompiler(arch, options).compile(spec)


def comm_kinds(program):
    return [
        s.kind for s in walk_stmts(program.cpe_program.body)
        if isinstance(s, CommStmt)
    ]


def test_full_variant_tree_has_fig11_elements():
    program = compile_with(CompilerOptions.full())
    tree = program.tree
    assert tree.find_mark("micro_kernel") is not None
    extensions = tree.find_all(ExtensionNode)
    assert len(extensions) >= 4  # C level, DMA peel, DMA loop, RMA peel, RMA loop
    # Peeling guards exist: a filter with constraints on ko and on km.
    guarded = [f for f in tree.find_all(FilterNode) if f.constraints]
    assert len(guarded) >= 2


def test_full_variant_ast_statement_mix():
    program = compile_with(CompilerOptions.full())
    kinds = comm_kinds(program)
    assert "dma_iget" in kinds
    assert "dma_iput" in kinds
    assert "rma_row_ibcast" in kinds
    assert "rma_col_ibcast" in kinds
    assert "synch" in kinds
    kernel_calls = [
        s for s in walk_stmts(program.cpe_program.body)
        if isinstance(s, KernelCall)
    ]
    assert kernel_calls and kernel_calls[0].name == "asm_dgemm_64x64x32"


def test_no_rma_variant_has_no_broadcasts():
    program = compile_with(CompilerOptions.with_asm())
    kinds = comm_kinds(program)
    assert "rma_row_ibcast" not in kinds
    assert "synch" not in kinds
    assert "dma_iget" in kinds


def test_baseline_uses_naive_compute():
    program = compile_with(CompilerOptions.baseline())
    naive = [
        s for s in walk_stmts(program.cpe_program.body)
        if isinstance(s, NaiveComputeStmt)
    ]
    assert naive
    assert naive[0].extents == (64, 64, 32)
    assert not [
        s for s in walk_stmts(program.cpe_program.body)
        if isinstance(s, KernelCall)
    ]


def test_issue_ahead_guard_present_only_with_hiding():
    with_hiding = compile_with(CompilerOptions.full())
    without = compile_with(CompilerOptions.with_rma())
    ifs_with = [
        s for s in walk_stmts(with_hiding.cpe_program.body) if isinstance(s, IfStmt)
    ]
    ifs_without = [
        s for s in walk_stmts(without.cpe_program.body) if isinstance(s, IfStmt)
    ]
    # Hiding adds the x <= bound-2 prefetch guards on top of the RMA
    # owner guards present in both.
    assert len(ifs_with) > len(ifs_without)


def test_reply_declarations_cover_all_counters():
    program = compile_with(CompilerOptions.full())
    names = {r.name for r in program.cpe_program.replies}
    assert {"get_replyA", "get_replyB", "get_replyC", "put_replyC",
            "rbcast_replysA", "rbcast_replyrA",
            "cbcast_replysB", "cbcast_replyrB"} <= names


def test_buffer_declarations_match_plan():
    program = compile_with(CompilerOptions.full())
    decls = {b.name: b.shape for b in program.cpe_program.buffers}
    assert decls["local_C"] == (64, 64)
    assert decls["local_A_dma"] == (2, 64, 32)
    assert decls["local_B_bc"] == (2, 32, 64)


def test_spm_budget_reported():
    program = compile_with(CompilerOptions.full())
    assert program.spm_bytes() == 160 * 1024


def test_codegen_takes_milliseconds():
    """§8.5: generating the code takes seconds, not months — our
    reproduction compiles in well under a second."""
    program = compile_with(CompilerOptions.full())
    assert program.codegen_seconds < 1.0


def test_padding_queries():
    program = compile_with(CompilerOptions.full())
    assert program.padded_shape(1000, 1000, 1000) == (1024, 1024, 1024)
    assert not program.requires_padding(512, 512, 256)
    assert program.requires_padding(512, 512, 200)


def test_fusion_mismatch_rejected():
    spec = GemmSpec()  # no prologue
    with pytest.raises(CompilationError):
        GemmCompiler(SW26010PRO, CompilerOptions.full().with_(fusion="prologue")).compile(spec)


def test_spec_fusion_reconciles_options():
    spec = GemmSpec(epilogue_func="relu")
    program = GemmCompiler(SW26010PRO, CompilerOptions.full()).compile(spec)
    assert program.options.fusion == "epilogue"
    assert program.options.epilogue_func == "relu"


def test_batched_requires_flag():
    with pytest.raises(CompilationError):
        GemmCompiler(SW26010PRO, CompilerOptions.full()).compile(
            GemmSpec(batch_param="BS")
        )


def test_batch_loop_in_ast():
    program = compile_with(CompilerOptions.full().with_(batch=True))
    loops = [
        s.var for s in walk_stmts(program.cpe_program.body)
        if isinstance(s, ForLoop)
    ]
    assert loops[0] == "b"  # batch loop outermost, started once (§8.3)


def test_invalid_option_combination():
    with pytest.raises(ConfigurationError):
        CompilerOptions(kernel_backend="naive", schedule="optimize")


def test_describe():
    program = compile_with(CompilerOptions.full())
    info = program.describe()
    assert info["variant"] == "+hiding"
    assert info["arch"]["mesh"] == "8x8"


def test_toy_arch_compiles_all_variants():
    for options in (
        CompilerOptions.baseline(),
        CompilerOptions.with_asm(),
        CompilerOptions.with_rma(),
        CompilerOptions.full(),
    ):
        program = compile_with(options, arch=TOY_ARCH)
        assert program.plan.mt == 8
