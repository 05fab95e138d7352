"""Hash-prefix sharding of the artifact store.

Key ``ca7382…`` lives at ``<cache-dir>/ca/ca7382….json``; the shards
are the store's one layout.  A JSON file at the cache root is not an
artifact: it is neither listed nor served.
"""

import json

from repro.core import CompilerOptions, GemmSpec
from repro.core.pipeline import GemmCompiler
from repro.service.store import ArtifactStore, shard_for
from repro.sunway.arch import TOY_ARCH


def compiled_program(**options):
    return GemmCompiler(TOY_ARCH, CompilerOptions(**options)).compile(GemmSpec())


def test_shard_for_uses_hex_prefix_with_fallback():
    assert shard_for("ca7382" + "0" * 58) == "ca"
    assert shard_for("AB" + "0" * 62) == "ab"
    # Degenerate keys (test doubles, hand-rolled names) share one shard.
    assert shard_for("not-a-hash") == "__"
    assert shard_for("f") == "__"


def test_put_lands_in_the_key_shard(tmp_path):
    store = ArtifactStore(tmp_path)
    key = "ca" + "7" * 62
    path = store.put(key, compiled_program())
    assert path == tmp_path / "ca" / f"{key}.json"
    assert store.get(key) is not None


def test_root_level_file_is_not_an_artifact(tmp_path):
    store = ArtifactStore(tmp_path)
    key = "0d" + "5" * 62
    program = compiled_program()
    payload = {"key": key, "program": program.to_dict()}
    (tmp_path / f"{key}.json").write_text(json.dumps(payload))
    assert store.keys() == []
    assert store.get(key) is None
    assert store.stats()["per_shard"] == {}


def test_stats_report_shard_layout(tmp_path):
    store = ArtifactStore(tmp_path)
    program = compiled_program()
    for key in ("11" + "a" * 62, "11" + "b" * 62, "22" + "c" * 62):
        store.put(key, program)
    stats = store.stats()
    assert stats["artifacts"] == 3
    assert stats["shards"] == 2
    assert stats["per_shard"] == {"11": 2, "22": 1}


def test_clear_removes_artifacts_and_empty_shards(tmp_path):
    store = ArtifactStore(tmp_path)
    keys = ["33" + "d" * 62, "44" + "e" * 62]
    for key in keys:
        store.put(key, compiled_program())
    assert store.clear() == 2
    assert store.keys() == []
    for key in keys:
        assert not (tmp_path / shard_for(key)).exists()
