"""CompiledProgram serialization round trips.

The compilation service's disk tier stores ``CompiledProgram.to_dict()``
as JSON; these tests lock the reload down to observable equality — the
schedule-tree dump (against the repo golden), the tile plan, the SPM
buffer declarations, the rendered sources, and a numeric execution on
the toy mesh.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.runtime import serde
from repro.runtime.executor import run_gemm
from repro.runtime.program import CompiledProgram
from repro.sunway.arch import SW26010PRO, TOY_ARCH

GOLDEN = Path(__file__).parent.parent / "golden"


@pytest.fixture(scope="module")
def program():
    return GemmCompiler(SW26010PRO, CompilerOptions.full()).compile(GemmSpec())


@pytest.fixture(scope="module")
def reloaded(program):
    payload = json.dumps(program.to_dict())  # force a real JSON round trip
    return CompiledProgram.from_dict(json.loads(payload))


def test_round_trip_metadata(program, reloaded):
    assert reloaded.spec == program.spec
    assert reloaded.options == program.options
    assert reloaded.arch == program.arch
    assert reloaded.plan == program.plan
    assert reloaded.codegen_seconds == program.codegen_seconds


def test_round_trip_tree_dump(program, reloaded):
    assert reloaded.tree_dump() == program.tree_dump()


def test_reloaded_tree_matches_golden(reloaded):
    assert reloaded.tree_dump() + "\n" == (
        GOLDEN / "schedule_tree_full.txt"
    ).read_text()


def test_round_trip_buffer_decls(program, reloaded):
    original = program.cpe_program.buffers
    restored = reloaded.cpe_program.buffers
    assert [b.name for b in restored] == [b.name for b in original]
    assert [b.nbytes for b in restored] == [b.nbytes for b in original]
    assert restored == original
    assert reloaded.spm_bytes() == program.spm_bytes()


def test_round_trip_sources(program, reloaded):
    assert reloaded.cpe_source() == program.cpe_source()
    assert reloaded.mpe_source() == program.mpe_source()


def test_round_trip_band_aliasing(reloaded):
    """`Decomposition.bands` must alias nodes *inside* the reloaded tree,
    not hold detached copies — the lowering mutates through this dict."""
    tree_ids = {id(node) for node in reloaded.decomposition.root.walk()}
    for name, node in reloaded.decomposition.bands.items():
        assert id(node) in tree_ids, name


def test_round_trip_batched_and_fused_variants():
    cases = [
        (GemmSpec(batch_param="BS"), CompilerOptions.full().with_(batch=True)),
        (
            GemmSpec(epilogue_func="sigmoid"),
            CompilerOptions.full().with_(
                fusion="epilogue", epilogue_func="sigmoid"
            ),
        ),
    ]
    for spec, options in cases:
        original = GemmCompiler(TOY_ARCH, options).compile(spec)
        copy = CompiledProgram.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert copy.tree_dump() == original.tree_dump()
        assert copy.cpe_source() == original.cpe_source()


def test_reloaded_program_executes(rng):
    """A program reloaded from its artifact runs on the toy mesh and
    matches the original numerically."""
    original = GemmCompiler(TOY_ARCH, CompilerOptions.full()).compile(
        GemmSpec()
    )
    copy = CompiledProgram.from_dict(original.to_dict())
    M, N, K = copy.padded_shape(1, 1, 1)
    A = rng.random((M, K))
    B = rng.random((K, N))
    C = np.zeros((M, N))
    out_orig, _ = run_gemm(original, A, B, C.copy(), beta=0.0)
    out_copy, _ = run_gemm(copy, A, B, C.copy(), beta=0.0)
    np.testing.assert_allclose(out_copy, A @ B, rtol=1e-12)
    np.testing.assert_array_equal(out_copy, out_orig)


def test_from_dict_rejects_wrong_serde_version(program):
    data = program.to_dict()
    data["serde_version"] = serde.SERDE_VERSION + 1
    with pytest.raises(serde.SerializationError, match="serde version"):
        CompiledProgram.from_dict(data)


def test_encode_rejects_unregistered_types():
    class NotRegistered:
        pass

    with pytest.raises(serde.SerializationError):
        serde.encode(NotRegistered())


def test_decode_rejects_unknown_tag():
    with pytest.raises(serde.SerializationError):
        serde.decode({"$": "no-such-tag", "v": {}})


def test_round_trip_pass_stats(program, reloaded):
    assert reloaded.pass_stats == program.pass_stats
    assert [s.name for s in reloaded.pass_stats] == [
        s.name for s in program.pass_stats
    ]
    assert any(s.diagnostics for s in reloaded.pass_stats)
    assert reloaded.codegen_seconds == sum(
        s.seconds for s in reloaded.pass_stats
    )


def test_round_trip_decomposition_arch(program, reloaded):
    assert reloaded.decomposition.arch == program.arch


@pytest.mark.parametrize("field", [
    "arch", "pass_stats", "codegen_seconds", "verification",
    "decomposition.arch",
])
def test_artifact_without_a_field_is_quarantined_and_recompiled(tmp_path, field):
    """Every artifact the store writes carries every field ``to_dict``
    encodes; a file without one is corrupt like any other: it is
    quarantined and the kernel recompiles."""
    from repro.service import CompileService, ServiceConfig

    config = ServiceConfig(cache_dir=tmp_path)
    service = CompileService(config)
    service.get_program(GemmSpec(), TOY_ARCH)
    (path,) = [p for p in tmp_path.glob("*/*.json")]
    data = json.loads(path.read_text())
    payload = data["program"]
    if field == "decomposition.arch":
        payload = payload["decomposition"]["v"]
    del payload[field.split(".")[-1]]
    path.write_text(json.dumps(data))

    fresh = CompileService(config)
    _, source = fresh.get_program_with_source(GemmSpec(), TOY_ARCH)
    assert source == "compiled"
    assert fresh.store.quarantined == 1
    assert [p.name for p in fresh.store.quarantine_dir.iterdir()] == [path.name]
