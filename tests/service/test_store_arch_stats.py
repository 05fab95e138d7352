"""Per-arch attribution in the artifact store.

Every artifact carries a top-level ``arch`` tag so ``swgemm cache
stats`` can attribute disk usage per target without decoding the
programs; a file without the tag is one the store cannot attribute (and
``get`` quarantines), so it counts as ``(unreadable)``.  ``stats`` reads
each file once per version (path, mtime and size): a tag ``put`` wrote,
or one read before, is not read again.
"""

import json
from pathlib import Path

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.core.pipeline import GemmCompiler
from repro.service.store import ArtifactStore
from repro.sunway.arch import SW26010, TOY_ARCH


def compiled_program(arch):
    return GemmCompiler(arch, CompilerOptions.full()).compile(GemmSpec())


def test_arch_counts_split_by_registry_key(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("k-toy-1", compiled_program(TOY_ARCH))
    store.put("k-toy-2", compiled_program(TOY_ARCH))
    store.put("k-010", compiled_program(SW26010))
    assert store.stats()["archs"] == {"toy": 2, "sw26010": 1}


def test_untagged_artifact_counts_as_unreadable(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put("k-untagged", compiled_program(TOY_ARCH))
    data = json.loads(path.read_text())
    del data["arch"]
    path.write_text(json.dumps(data))
    assert store.stats()["archs"] == {"(unreadable)": 1}


@pytest.fixture
def artifact_reads(monkeypatch, tmp_path):
    """The artifact files (``<tmp_path>/<shard>/<key>.json``) read through
    ``Path.read_text``, in order."""
    reads = []
    read_text = Path.read_text

    def counted(self, *args, **kwargs):
        if self.parent.parent == tmp_path:
            reads.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    return reads


def test_stats_reads_each_artifact_version_once(tmp_path, artifact_reads):
    writer = ArtifactStore(tmp_path)
    toy = compiled_program(TOY_ARCH)
    for key in ("aa" + "1" * 62, "aa" + "2" * 62, "bb" + "3" * 62):
        writer.put(key, toy)
    # The writer knows the tags it wrote: no read, on any call.
    first = writer.stats()
    assert writer.stats() == first
    assert artifact_reads == []
    assert first["archs"] == {"toy": 3} and first["artifacts"] == 3

    # A second store on the same directory reads each file once.
    reader = ArtifactStore(tmp_path)
    assert reader.stats() == {**first, "writes": 0}
    assert len(artifact_reads) == 3
    assert reader.stats() == {**first, "writes": 0}
    assert len(artifact_reads) == 3

    # A new version of one file is read again; the others are not.
    path = reader.path_for("bb" + "3" * 62)
    data = json.loads(path.read_text())
    data["arch"] = "sw26010"
    path.write_text(json.dumps(data) + " ")
    artifact_reads.clear()
    assert reader.stats()["archs"] == {"sw26010": 1, "toy": 2}
    assert artifact_reads == [path.name]
