"""Compute decomposition (§3): tiling, mesh binding, strip-mining."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompilationError
from repro.core.decomposition import decompose, verify_reconstruction
from repro.core.options import CompilerOptions
from repro.core.passes import reconcile_options
from repro.core.spec import GemmSpec
from repro.core.tile_model import plan_for_kernel
from repro.poly.schedule_tree import BandNode
from repro.sunway import all_archs
from repro.sunway.arch import SW26010PRO, TOY_ARCH
from repro.tune.pruner import analyze
from repro.tune.space import enumerate_candidates


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


#: ``(spec, base options)`` of each variant the property draws plans for.
VARIANTS = {
    "plain": (GemmSpec(), CompilerOptions.full()),
    "batched": (GemmSpec(batch_param="BS"), CompilerOptions.full().with_(batch=True)),
    "no-rma": (GemmSpec(), CompilerOptions.full().with_(enable_rma=False)),
}


@lru_cache(maxsize=None)
def feasible_options(arch_name, variant):
    """The reconciled options of every feasible tuner candidate."""
    arch = all_archs()[arch_name]
    spec, base = VARIANTS[variant]
    return [
        reconcile_options(spec, candidate.apply(base), arch)
        for candidate in enumerate_candidates(arch, base)
        if analyze(spec, arch, base, candidate).feasible
    ]


def draw_decomposition(data):
    """The decomposition of a plan the tuner may pick, parameters of two
    or three mesh passes per dimension, and one iteration point."""
    arch_name = data.draw(st.sampled_from(sorted(all_archs())))
    variant = data.draw(st.sampled_from(sorted(VARIANTS)))
    options = data.draw(st.sampled_from(feasible_options(arch_name, variant)))
    spec = VARIANTS[variant][0]
    arch = all_archs()[arch_name]
    plan = plan_for_kernel(arch, options)
    dec = decompose(spec, plan, options, arch=arch)
    params = {
        spec.m_param: plan.chunk_m * data.draw(st.integers(2, 3)),
        spec.n_param: plan.chunk_n * data.draw(st.integers(2, 3)),
        spec.k_param: plan.k_step * data.draw(st.integers(2, 3)),
    }
    dims = {"i": spec.m_param, "j": spec.n_param, "k": spec.k_param}
    if spec.is_batched:
        params[spec.batch_param] = data.draw(st.integers(1, 3))
        dims["b"] = spec.batch_param
    point = {d: data.draw(st.integers(0, params[p] - 1)) for d, p in dims.items()}
    return dec, params, point


def loop_values(dec, params, point):
    """Every band member's value at ``point``, each checked to lie in
    its extent."""
    env = {**params, **point}
    loops = dict(params)
    for band in dec.bands.values():
        for member in band.members:
            value = member.schedule_for(dec.stmt).evaluate(env)
            lo, hi = (e.evaluate(params) for e in member.extent)
            assert lo <= value < hi, (member.var, value, lo, hi)
            loops[member.var] = value
    return loops


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_prop_tiling_roundtrip(data):
    """On any plan the tuner may pick, tile*outer + inner gives i and j
    back, and the reconstruction map sends the band members' values
    back to the point."""
    dec, params, point = draw_decomposition(data)
    loops = loop_values(dec, params, point)
    plan = dec.plan
    assert (loops["ic"] * plan.mesh + loops["Rid"]) * plan.mt + loops["ip"] == point["i"]
    assert (loops["jc"] * plan.mesh + loops["Cid"]) * plan.nt + loops["jp"] == point["j"]
    assert {d: e.evaluate(loops) for d, e in dec.reconstruction.items()} == point
    verify_reconstruction(dec, params, samples=8)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_prop_stripmine_roundtrip(data):
    """On any plan the tuner may pick, the k tile loop is strip-mined by
    the mesh size under RMA (Fig. 6): mesh*ko + km == k // kt with km a
    mesh slice.  Without RMA one ktile loop walks k // kt."""
    dec, params, point = draw_decomposition(data)
    loops = loop_values(dec, params, point)
    plan = dec.plan
    if plan.use_rma:
        assert plan.mesh * loops["ko"] + loops["km"] == point["k"] // plan.kt
        assert 0 <= loops["km"] < plan.mesh
    else:
        assert loops["ktile"] == point["k"] // plan.kt
    assert loops["kp"] == point["k"] % plan.kt
