"""Verify-on-load: report-less disk artifacts are re-proven or
quarantined before they are ever served as hits."""

import json

import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.poly.astnodes import BufferDecl
from repro.service import ArtifactStore, CompileService, ServiceConfig, cache_key
from repro.sunway.arch import TOY_ARCH


def compile_toy(verify=True):
    options = CompilerOptions.full().with_(verify=verify)
    return GemmCompiler(TOY_ARCH, options).compile(GemmSpec()), options


def strip_report(store, key):
    """Rewrite an artifact in place without its verification report,
    simulating a pre-verifier (or --no-verify) artifact."""
    path = store.path_for(key)
    data = json.loads(path.read_text())
    program = store.get(key)
    program.verification = None
    data["program"] = program.to_dict()
    path.write_text(json.dumps(data))


def test_reportless_artifact_is_verified_and_healed(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    program, options = compile_toy()
    key = cache_key(GemmSpec(), TOY_ARCH, options)
    store.put(key, program)
    strip_report(store, key)

    fresh = ArtifactStore(tmp_path / "cache")
    loaded = fresh.get(key)
    assert loaded is not None
    assert loaded.verification is not None and loaded.verification.ok
    assert fresh.verified_on_load == 1
    assert fresh.stats()["verified_on_load"] == 1
    # The artifact was healed on disk: a third store sees the report
    # without re-running the verifier.
    healed = ArtifactStore(tmp_path / "cache")
    assert healed.get(key).verification is not None
    assert healed.verified_on_load == 0
    # The persistent counter survives for `swgemm cache stats`.
    assert healed.load_persistent_stats()["verified_on_load"] == 1


def test_unsafe_reportless_artifact_is_quarantined(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    program, options = compile_toy()
    key = cache_key(GemmSpec(), TOY_ARCH, options)
    # Tamper the program so re-verification must fail, then persist it
    # without a report — as a poisoned legacy artifact would look.
    program.verification = None
    program.cpe_program.buffers.append(
        BufferDecl("poison", (4096, 4096), "double")
    )
    store.put(key, program)

    fresh = ArtifactStore(tmp_path / "cache")
    assert fresh.get(key) is None  # refused, reported as a miss
    assert fresh.verify_rejected == 1
    assert fresh.quarantined == 1
    assert fresh.disk_misses == 1
    assert not store.path_for(key).exists()
    quarantined = list(fresh.quarantine_dir.glob("*.json"))
    assert len(quarantined) == 1
    assert fresh.load_persistent_stats()["verify_rejected"] == 1
    assert fresh.stats()["quarantine_files"] == 1


def test_verify_on_load_can_be_bypassed(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    program, options = compile_toy()
    key = cache_key(GemmSpec(), TOY_ARCH, options)
    store.put(key, program)
    strip_report(store, key)
    fresh = ArtifactStore(tmp_path / "cache")
    loaded = fresh.get(key, verify_on_load=False)
    assert loaded is not None and loaded.verification is None
    assert fresh.verified_on_load == 0


def test_service_recompiles_after_quarantine(tmp_path):
    config = ServiceConfig(cache_dir=tmp_path / "cache")
    svc = CompileService(config)
    spec, options = GemmSpec(), CompilerOptions.full()
    program = svc.get_program(spec, TOY_ARCH, options)
    key = svc.reconciled_key(spec, TOY_ARCH, options)

    # Poison the disk artifact behind the service's back.
    store = ArtifactStore(tmp_path / "cache")
    poisoned = store.get(key)
    poisoned.verification = None
    poisoned.cpe_program.buffers.append(
        BufferDecl("poison", (4096, 4096), "double")
    )
    store.put(key, poisoned)

    # A fresh service (cold memory tier) must refuse the poisoned
    # artifact and transparently recompile through the admission gate.
    svc2 = CompileService(config)
    recompiled = svc2.get_program(spec, TOY_ARCH, options)
    assert recompiled.verification is not None and recompiled.verification.ok
    assert all(
        b.name != "poison" for b in recompiled.cpe_program.buffers
    )
    assert svc2.compile_count == 1
