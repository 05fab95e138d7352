"""Per-arch attribution in the artifact store (PR 8).

Every artifact carries a top-level ``arch`` tag so ``swgemm cache
stats`` can attribute disk usage per target without decoding the
programs; a file without the tag is one the store cannot attribute (and
``get`` quarantines), so it counts as ``(unreadable)``.
"""

import json

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
    assert store.arch_counts() == {"toy": 2, "sw26010": 1}
    assert store.stats()["archs"] == {"toy": 2, "sw26010": 1}


def test_untagged_artifact_counts_as_unreadable(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.put("k-untagged", compiled_program(TOY_ARCH))
    data = json.loads(path.read_text())
    del data["arch"]
    path.write_text(json.dumps(data))
    assert store.arch_counts() == {"(unreadable)": 1}
