"""Every artifact carries its admission report: one without it is
corrupt, quarantined like any other and recompiled through the gate,
never proven on load or served."""

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.poly.astnodes import BufferDecl
from repro.service import ArtifactStore, CompileService, ServiceConfig, cache_key
from repro.sunway.arch import TOY_ARCH


def test_unsafe_reportless_artifact_is_quarantined(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    options = CompilerOptions.full()
    program = GemmCompiler(TOY_ARCH, options).compile(GemmSpec())
    key = cache_key(GemmSpec(), TOY_ARCH, options)
    # Tamper the program, then persist it without a report — as a
    # poisoned artifact would look.
    program.verification = None
    program.cpe_program.buffers.append(
        BufferDecl("poison", (4096, 4096), "double")
    )
    store.put(key, program)

    fresh = ArtifactStore(tmp_path / "cache")
    assert fresh.get(key) is None  # refused, reported as a miss
    assert fresh.quarantined == 1
    assert fresh.disk_misses == 1
    assert not store.path_for(key).exists()
    quarantined = list(fresh.quarantine_dir.glob("*.json"))
    assert len(quarantined) == 1
    assert fresh.stats()["quarantine_files"] == 1


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
