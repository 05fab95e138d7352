"""Compute decomposition (§3): tiling, mesh binding, strip-mining."""

import pytest

from repro.errors import CompilationError
from repro.core.decomposition import decompose, verify_reconstruction
from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.core.tile_model import plan_for_kernel
from repro.poly.schedule_tree import BandNode
from repro.sunway.arch import SW26010PRO, TOY_ARCH


def make(options=None, spec=None, arch=SW26010PRO):
    options = options or CompilerOptions.full()
    spec = spec or GemmSpec(batch_param="BS" if options.batch else None)
    plan = plan_for_kernel(arch, options)
    return decompose(spec, plan, options)


def test_band_chain_structure_rma():
    dec = make()
    assert set(dec.bands) == {"chunk", "mesh", "kouter", "kmid", "point"}
    assert dec.bands["chunk"].member_vars() == ["ic", "jc"]
    assert dec.bands["mesh"].member_vars() == ["Rid", "Cid"]
    assert dec.bands["kouter"].member_vars() == ["ko"]
    assert dec.bands["kmid"].member_vars() == ["km"]
    assert dec.bands["point"].member_vars() == ["ip", "jp", "kp"]


def test_mesh_members_are_spatial():
    dec = make()
    bindings = [m.binding for m in dec.bands["mesh"].members]
    assert bindings == ["mesh_row", "mesh_col"]


def test_no_rma_uses_single_k_tile_loop():
    dec = make(CompilerOptions.with_asm())
    assert "ktile" in dec.bands
    assert "kmid" not in dec.bands


def test_batched_band_isolated_first():
    dec = make(CompilerOptions.full().with_(batch=True))
    assert dec.bands["batch"].members[0].binding == "batch"
    # The batch band must be the domain's direct child (Fig. 3).
    assert dec.root.child is dec.bands["batch"]


def test_batch_requires_option():
    spec = GemmSpec(batch_param="BS")
    plan = plan_for_kernel(SW26010PRO, CompilerOptions.full())
    with pytest.raises(CompilationError, match="the batch option"):
        decompose(spec, plan, CompilerOptions.full())


def test_extents_evaluate():
    dec = make()
    env = {"M": 1024, "N": 2048, "K": 512}
    ic_hi = dec.bands["chunk"].members[0].extent[1]
    jc_hi = dec.bands["chunk"].members[1].extent[1]
    ko_hi = dec.bands["kouter"].members[0].extent[1]
    assert ic_hi.evaluate(env) == 2
    assert jc_hi.evaluate(env) == 4
    assert ko_hi.evaluate(env) == 2


def test_schedules_match_fig4b():
    """Rid = floor(i/64) mod 8, Cid = floor(j/64) mod 8."""
    dec = make()
    rid = dec.bands["mesh"].members[0].schedule_for("S1")
    for i in (0, 63, 64, 511, 512, 1000):
        assert rid.evaluate({"i": i}) == (i // 64) % 8


def test_stripmine_schedule_matches_fig6():
    dec = make()
    km = dec.bands["kmid"].members[0].schedule_for("S1")
    for k in (0, 31, 32, 255, 256, 300):
        assert km.evaluate({"k": k}) == (k // 32) % 8


def test_reconstruction_roundtrip():
    dec = make()
    verify_reconstruction(dec, {"M": 1024, "N": 1024, "K": 512}, samples=64)


def test_reconstruction_roundtrip_no_rma():
    dec = make(CompilerOptions.with_asm())
    verify_reconstruction(dec, {"M": 1024, "N": 1024, "K": 512}, samples=64)


def test_reconstruction_roundtrip_batched():
    dec = make(CompilerOptions.full().with_(batch=True))
    verify_reconstruction(
        dec, {"M": 1024, "N": 512, "K": 512, "BS": 3}, samples=64
    )


def test_reconstruction_roundtrip_toy():
    dec = make(arch=TOY_ARCH)
    verify_reconstruction(dec, {"M": 64, "N": 48, "K": 32}, samples=64)


def test_coincidence_flags_propagate():
    dec = make()
    assert all(m.coincident for m in dec.bands["chunk"].members)
    assert all(m.coincident for m in dec.bands["mesh"].members)
    assert not dec.bands["kouter"].members[0].coincident
    ips = dec.bands["point"].members
    assert [m.coincident for m in ips] == [True, True, False]


def test_tree_is_linked_chain():
    dec = make()
    node = dec.root
    kinds = []
    while node.children:
        node = node.child
        kinds.append(type(node).__name__)
    assert all(k == "BandNode" for k in kinds)
    assert len(kinds) == 5
