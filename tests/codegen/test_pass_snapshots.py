"""Per-pass golden IR snapshots for the five pipeline variants.

A compile renders no IR unless a caller asks: ``swgemm --print-after`` /
``--dump-ir`` pass an after-pass hook that renders the context snapshot
(artifact summary + the schedule tree, with the communication timeline
once a ``schedule:*`` rewrite has run).  These tests collect the
snapshots through that hook and lock them down byte-for-byte for the
default, batched, fused, no-RMA and ``optimize`` pipelines.  Any
compiler change that alters an intermediate stage — not just the final
tree — shows up as a diff here.  Review it, then regenerate with::

    PYTHONPATH=src python -c \
      "from tests.codegen.test_pass_snapshots import regenerate; regenerate()"
"""

from pathlib import Path

import pytest

from repro.core import CompileContext, CompilerOptions, GemmCompiler, GemmSpec
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import SW26010PRO

GOLDEN = Path(__file__).parent.parent / "golden" / "passes"

#: variant name -> (spec, options); each builds a distinct pipeline.
VARIANTS = {
    "default": (GemmSpec(), CompilerOptions.full()),
    "batched": (
        GemmSpec(batch_param="BS"),
        CompilerOptions.full().with_(batch=True),
    ),
    "fused": (GemmSpec(epilogue_func="relu"), CompilerOptions.full()),
    "no-rma": (GemmSpec(), CompilerOptions.full().with_(enable_rma=False)),
    "optimize": (GemmSpec(), CompilerOptions.full().with_(schedule="optimize")),
}


def _snapshots(variant):
    """pass name -> the IR the after-pass hook rendered, in pass order."""
    spec, options = VARIANTS[variant]
    snapshots = {}

    def after_pass(index, pass_, ctx):
        snapshots[pass_.name] = ctx.snapshot()

    GemmCompiler(SW26010PRO, options).compile_with_context(
        spec, after_pass=after_pass
    )
    return snapshots


def _golden_files(variant):
    return sorted((GOLDEN / variant).glob("*.txt"))


def regenerate() -> None:  # pragma: no cover - maintenance helper
    for variant in VARIANTS:
        outdir = GOLDEN / variant
        outdir.mkdir(parents=True, exist_ok=True)
        for stale in outdir.glob("*.txt"):
            stale.unlink()
        for index, (name, snapshot) in enumerate(
            _snapshots(variant).items(), start=1
        ):
            (outdir / f"{index:02d}-{name}.txt").write_text(snapshot)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_per_pass_snapshots_match_golden(variant):
    snapshots = _snapshots(variant)
    files = _golden_files(variant)
    expected_names = [f.stem.split("-", 1)[1] for f in files]
    assert list(snapshots) == expected_names, (
        "pipeline changed shape — regenerate the golden snapshots after "
        "reviewing the diff"
    )
    for file, (name, snapshot) in zip(files, snapshots.items()):
        assert snapshot == file.read_text(), (
            f"IR after pass {name!r} ({variant} pipeline) drifted from "
            f"{file}"
        )


def test_variant_pipelines_are_distinct():
    """Each variant is a genuine pipeline edit, not a hidden branch."""
    names = {v: list(_snapshots(v)) for v in VARIANTS}
    assert "batch-isolation" in names["batched"]
    assert "batch-isolation" not in names["default"]
    assert "epilogue-fusion" in names["fused"]
    assert "rma-derivation" not in names["no-rma"]
    assert "rma-derivation" in names["default"]


def test_final_snapshot_tree_matches_repo_golden():
    """The snapshot after the communication pass is the same tree the
    long-standing ``schedule_tree_full.txt`` golden locks down."""
    snapshots = _snapshots("default")
    tree = snapshots["latency-hiding"].split("--- schedule tree ---\n", 1)[1]
    golden = (GOLDEN.parent / "schedule_tree_full.txt").read_text()
    assert tree == golden


def test_uninspected_compiles_render_no_snapshot(monkeypatch):
    """Only a hook renders IR: neither a plain compile nor a service
    compile calls :meth:`CompileContext.snapshot`."""
    calls = []
    snapshot = CompileContext.snapshot

    def counted(self):
        calls.append(self.current_pass)
        return snapshot(self)

    monkeypatch.setattr(CompileContext, "snapshot", counted)
    spec, options = VARIANTS["optimize"]
    GemmCompiler(SW26010PRO, options).compile(spec)
    service = CompileService(ServiceConfig(cache_dir=None))
    program = service.get_program(spec, SW26010PRO, options)
    assert service.stats()["compiles"]["count"] == 1
    assert any(s.name.startswith("schedule:") for s in program.pass_stats)
    assert calls == []
