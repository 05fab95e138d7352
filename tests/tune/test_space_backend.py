"""The kernel-backend axis of the search space (PR 8).

Micro-kernel shape was already searchable; PR 8 makes the *generator*
searchable too.  Vendor candidates must stay byte-identical with the v1
space (names, options, cache keys), parametric candidates must appear
exactly when the asm path is on (a naive base searches the naive kernel,
named ``:naive``), and shapes the parametric backend refuses must come
back infeasible from the pruner — not crash it.
"""

from repro.core.options import CompilerOptions, TileConfig
from repro.core.spec import GemmSpec
from repro.sunway.arch import SW26010PRO
from repro.tune.pruner import analyze
from repro.tune.space import (
    SEARCH_SPACE_VERSION,
    Candidate,
    default_candidate,
    enumerate_candidates,
    neighbors,
)


def test_space_version_bumped_for_backend_axis():
    assert SEARCH_SPACE_VERSION == 3


def test_vendor_candidate_names_unchanged_from_v1():
    """The default backend adds no suffix, so tuning-record config
    strings written before the backend axis existed still match."""
    c = Candidate(TileConfig(64, 64, 32), k_strip=8)
    assert c.kernel_backend == "vendor"
    assert c.name() == "64x64x32-d2-s8:rma+hide"
    parametric = Candidate(
        TileConfig(64, 64, 32), kernel_backend="parametric", k_strip=8
    )
    assert parametric.name().endswith(":parametric")


def test_candidate_applies_its_backend():
    """A candidate steers the one kernel field to its own backend, so
    vendor candidates address the default compile's cache key."""
    base = CompilerOptions.full()
    for backend in ("vendor", "parametric", "naive"):
        c = Candidate(TileConfig(64, 64, 32), kernel_backend=backend)
        assert c.apply(base).kernel_backend == backend


def test_backend_axis_doubles_the_asm_space():
    base = CompilerOptions.full()
    candidates = enumerate_candidates(SW26010PRO, base)
    backends = {c.kernel_backend for c in candidates}
    assert backends == {"vendor", "parametric"}
    vendor = [c for c in candidates if c.kernel_backend == "vendor"]
    parametric = [c for c in candidates if c.kernel_backend == "parametric"]
    assert len(vendor) == len(parametric)


def test_no_asm_space_has_no_parametric_candidates():
    base = CompilerOptions.baseline()
    candidates = enumerate_candidates(SW26010PRO, base)
    assert {c.kernel_backend for c in candidates} == {"naive"}
    assert all(c.name().endswith(":naive") for c in candidates)
    assert default_candidate(SW26010PRO, base).kernel_backend == "naive"


def test_default_candidate_is_vendor():
    assert (
        default_candidate(SW26010PRO, CompilerOptions.full()).kernel_backend
        == "vendor"
    )


def test_backend_is_one_knob_for_hill_climbing():
    pool = enumerate_candidates(SW26010PRO, CompilerOptions.full())
    start = default_candidate(SW26010PRO, CompilerOptions.full())
    anchor = next(c for c in pool if c.knobs() == start.knobs())
    steps = list(neighbors(anchor, pool))
    # The backend flip at the same tile/pipeline point is a neighbour.
    assert any(
        s.kernel_backend == "parametric" and s.tile == anchor.tile
        for s in steps
    )


def test_pruner_marks_backend_refused_shapes_infeasible():
    """nt=36 is not a multiple of the 8-double SIMD width, so the
    parametric backend refuses it; the pruner must turn that refusal
    into an infeasible verdict, not an exception."""
    spec = GemmSpec()
    base = CompilerOptions.full()
    refused = Candidate(
        TileConfig(64, 36, 32), kernel_backend="parametric", k_strip=8
    )
    verdict = analyze(spec, SW26010PRO, base, refused)
    assert not verdict.feasible
    assert "parametric" in verdict.reason

    accepted = Candidate(
        TileConfig(64, 64, 32), kernel_backend="parametric", k_strip=8
    )
    assert analyze(spec, SW26010PRO, base, accepted).feasible
