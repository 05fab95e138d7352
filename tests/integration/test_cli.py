"""The swgemm command-line interface."""

import pytest

from repro.cli import DEFAULT_GEMM_C, main
from repro.core.options import CompilerOptions, TileConfig
from repro.runtime.simulator import PerformanceSimulator
from repro.service import CompileService, ServiceConfig


def test_compile_writes_sources(tmp_path, capsys):
    src = tmp_path / "gemm.c"
    src.write_text(DEFAULT_GEMM_C)
    out = tmp_path / "out"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    cpe = (out / "gemm_cpe.c").read_text()
    mpe = (out / "gemm_mpe.c").read_text()
    assert "dma_iget" in cpe
    assert "athread_spawn" in mpe
    captured = capsys.readouterr().out
    assert "code generation took" in captured


def test_compile_default_input(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compile", "-o", str(out)]) == 0
    assert (out / "gemm_cpe.c").exists()


def test_compile_no_use_asm(tmp_path):
    out = tmp_path / "out"
    assert main(["compile", "--no-use-asm", "-o", str(out)]) == 0
    text = (out / "gemm_cpe.c").read_text()
    assert "asm_dgemm" not in text
    # --no-use-asm selects the naive kernel over a --micro-kernel backend.
    assert main([
        "compile", "--no-use-asm", "--micro-kernel", "parametric",
        "-o", str(out),
    ]) == 0
    assert (out / "gemm_cpe.c").read_text() == text


def test_tree_dump(capsys):
    assert main(["tree"]) == 0
    out = capsys.readouterr().out
    assert "DOMAIN" in out and "BAND" in out and "EXTENSION" in out


def test_run_verifies_numerics(capsys):
    assert main(["run", "-M", "512", "-N", "512", "-K", "256"]) == 0
    out = capsys.readouterr().out
    assert "max |C - reference|" in out


@pytest.mark.parametrize(
    "variant", ["prologue", "epilogue", "batched", "transposed"]
)
def test_run_checks_every_source_kind(variant, tmp_path, capsys):
    """``run`` draws operands in the source's storage layout (a batch of
    four for a batched source) and checks against a reference with the
    source's fused stages, as the daemon's ``run`` op does."""
    from perfbench.grid import SOURCES

    source = tmp_path / f"{variant}.c"
    source.write_text(SOURCES[variant])
    argv = ["--no-cache", "run", str(source), "--arch", "toy",
            "-M", "64", "-N", "64", "-K", "32"]
    assert main(argv) == 0
    error = float(capsys.readouterr().out.split("max |C - reference| = ")[1]
                  .split()[0])
    assert error < 1e-8


def test_perf_prints_variants(capsys):
    assert main(["perf", "-M", "512", "-N", "512", "-K", "1024"]) == 0
    out = capsys.readouterr().out
    for token in ("dma-only", "+asm", "+rma", "+hiding", "xMath"):
        assert token in out


def test_perf_honours_micro_kernel(capsys):
    """``--micro-kernel`` reaches every variant ``perf`` simulates."""
    argv = ["--no-cache", "perf", "-M", "512", "-N", "512", "-K", "256"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--micro-kernel", "32x32x16@parametric"]) == 0
    tiled = capsys.readouterr().out
    sim = PerformanceSimulator(
        service=CompileService(ServiceConfig(cache_dir=None))
    )
    expected = sim.simulate(512, 512, 256, CompilerOptions.full().with_(
        tile_config=TileConfig(32, 32, 16), kernel_backend="parametric",
    ))
    assert f"+hiding: {expected.gflops:8.1f} Gflops" in tiled
    for variant in ("dma-only", "+asm", "+rma", "+hiding"):
        line = next(
            row for row in default.splitlines() if f"{variant}:" in row
        )
        assert line not in tiled, variant
