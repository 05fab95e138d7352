"""The pass-pipeline introspection surface of the swgemm CLI:
``swgemm passes list``, ``--print-after``, ``--dump-ir``, and the
``--schedule=off`` ablation."""

import pytest

from repro.cli import main

BATCHED_GEMM_C = """\
void bgemm(int BS, int M, int N, int K, double A[BS][M][K],
           double B[BS][K][N], double C[BS][M][N]) {
  for (int b = 0; b < BS; b++)
    for (int i = 0; i < M; i++)
      for (int j = 0; j < N; j++)
        for (int k = 0; k < K; k++)
          C[b][i][j] += A[b][i][k] * B[b][k][j];
}
"""

DEFAULT_PIPELINE = [
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


def read_tree(directory):
    return {p.name: p.read_text() for p in directory.iterdir() if p.is_file()}


def test_passes_list_default(capsys):
    assert main(["passes", "list"]) == 0
    out = capsys.readouterr().out
    assert "pass pipeline for variant '+hiding'" in out
    assert f"({len(DEFAULT_PIPELINE)} passes" in out
    for name in DEFAULT_PIPELINE:
        assert name in out
    assert "§6" in out  # paper sections are shown


def test_passes_list_variants(tmp_path, capsys):
    src = tmp_path / "bgemm.c"
    src.write_text(BATCHED_GEMM_C)
    assert main(["passes", "list", str(src)]) == 0
    out = capsys.readouterr().out
    assert "batch-isolation" in out
    assert "+batch" in out or "batch" in out
    assert main(["passes", "list", "--no-rma"]) == 0
    assert "rma-derivation" not in capsys.readouterr().out
    assert main(["passes", "list", "--schedule=off"]) == 0
    out = capsys.readouterr().out
    assert "latency-hiding" not in out
    assert "communication-schedule" in out


@pytest.mark.parametrize("flag", ["--no-rma", "--no-use-asm"])
def test_knob_flags_keep_the_inferred_batch_option(tmp_path, capsys, flag):
    """A knob flag edits what the frontend inferred from the source
    instead of rebuilding the options and dropping the batch flag."""
    src = tmp_path / "bgemm.c"
    src.write_text(BATCHED_GEMM_C)
    assert main(["passes", "list", str(src), flag]) == 0
    out = capsys.readouterr().out
    assert "batch-isolation" in out
    if flag == "--no-rma":
        assert "rma-derivation" not in out


def test_print_after_all_emits_one_snapshot_per_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compile", "-o", str(out), "--print-after", "all"]) == 0
    text = capsys.readouterr().out
    for index, name in enumerate(DEFAULT_PIPELINE, start=1):
        marker = f";; ---- IR after {index}/{len(DEFAULT_PIPELINE)}: {name}"
        assert text.count(marker) == 1, marker
    assert text.count(";; ---- IR after") == len(DEFAULT_PIPELINE)
    # Introspection still produces the normal outputs.
    assert (out / "gemm_cpe.c").exists()
    assert "code generation took" in text
    # Per-pass timing table accompanies the total.
    for name in DEFAULT_PIPELINE:
        assert f"  {name}" in text


def test_print_after_single_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(
        ["compile", "-o", str(out), "--print-after", "tile-selection"]
    ) == 0
    text = capsys.readouterr().out
    assert text.count(";; ---- IR after") == 1
    assert "tile-selection" in text
    assert "--- schedule tree ---" in text


def test_print_after_unknown_pass_fails(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(
        ["compile", "-o", str(out), "--print-after", "no-such-pass"]
    ) != 0


def test_dump_ir_writes_one_file_per_pass(tmp_path):
    out = tmp_path / "out"
    ir = tmp_path / "ir"
    assert main(["compile", "-o", str(out), "--dump-ir", str(ir)]) == 0
    files = sorted(p.name for p in ir.iterdir())
    # One snapshot per pass, plus the final communication timeline of
    # the double-buffered plan.
    expected = [
        f"{i:02d}-{name}.txt"
        for i, name in enumerate(DEFAULT_PIPELINE, start=1)
    ]
    expected.append(f"{len(DEFAULT_PIPELINE) + 1:02d}-schedule-timeline.txt")
    assert files == expected
    for path in ir.iterdir():
        if path.name.endswith("schedule-timeline.txt"):
            assert path.read_text().startswith("timeline:")
        else:
            assert "--- schedule tree ---" in path.read_text()


def test_schedule_off_matches_ablation_byte_exactly(tmp_path):
    """``--schedule=off`` must write exactly the sources of the §8.1
    no-hiding ablation (``CompilerOptions.with_rma()``)."""
    from repro.core import CompilerOptions, GemmCompiler, GemmSpec

    out = tmp_path / "off"
    assert main(["compile", "-o", str(out), "--schedule=off"]) == 0
    ablation = GemmCompiler(options=CompilerOptions.with_rma()).compile(
        GemmSpec()
    )
    assert read_tree(out) == {
        "gemm_cpe.c": ablation.cpe_source(),
        "gemm_mpe.c": ablation.mpe_source(),
    }


def test_tree_supports_print_after(capsys):
    assert main(["tree", "--print-after", "dma-derivation"]) == 0
    out = capsys.readouterr().out
    assert ";; ---- IR after" in out
    assert "dma-derivation" in out
