"""Compute decomposition (§3).

Breaks the GEMM loop nest down so that (1) the 8×8 CPE mesh works on
independent blocks in parallel and (2) each block matches the micro-kernel
shape:

1. run the dependence analysis to establish that the outer two loops are
   parallel and the band is tilable (what isl's scheduler annotates,
   §2.2) — inputs that fail this check are rejected;
2. isolate the batch dimension of batched GEMM (Fig. 3) — it is never
   decomposed, so a CPE iterates the batch sequentially and the mesh is
   started only once (§8.3);
3. tile all three dimensions by the micro-kernel shape — the arch's
   contract (64×64×32 on the paper's SW26010Pro target, Fig. 4a), or
   whatever shape the tile plan carries for a tuned/generated kernel;
4. bind the tile loops to the mesh: ``Rid = ⌊i/mt⌋ mod mesh``,
   ``Cid = ⌊j/nt⌋ mod mesh`` (Fig. 4b — ``⌊i/64⌋ mod 8`` on the default
   target), with *chunk* loops ``ic``, ``jc`` iterating the
   ``(mesh·mt)×(mesh·nt)×(mesh·kt)`` blocks a full mesh pass covers
   (512×512×256 by default, §4);
5. strip-mine the reduced tile loop by the mesh size (Fig. 6), which
   assigns each CPE one k-slice per outer iteration and sets up the RMA
   sharing of §5.  Without RMA (the breakdown's first two variants) the
   k tile loop is left un-mined and every CPE fetches its own tiles.

The pass also records the *reconstruction map* — each original iterator
as a quasi-affine expression of the new loop variables — which §4's DMA
argument derivation consumes (it is the polyhedral content of Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CompilationError
from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.core.tile_model import TilePlan
from repro.sunway.arch import ArchSpec
from repro.poly.affine import AffExpr, aff_const, aff_var
from repro.poly.dependences import DependenceSummary, analyze_statement
from repro.poly.schedule_tree import BandMember, BandNode, DomainNode


@dataclass
class Decomposition:
    """Result of the decomposition pass."""

    root: DomainNode
    spec: GemmSpec
    plan: TilePlan
    options: CompilerOptions
    summary: DependenceSummary
    #: original statement dim -> expression over the new loop variables
    reconstruction: Dict[str, AffExpr] = field(default_factory=dict)
    #: named bands for later surgery
    bands: Dict[str, BandNode] = field(default_factory=dict)
    #: target architecture — used by the lowering for kernel naming/cost.
    #: ``None`` only for decompositions built outside the compiler facade
    #: (the lowering rejects those loudly).
    arch: Optional[ArchSpec] = None

    @property
    def stmt(self) -> str:
        return self.spec.stmt_name


def _check_parallelism(spec: GemmSpec, summary: DependenceSummary) -> None:
    """The §2.2 prerequisites: outer two GEMM loops parallel, band tilable."""
    dims = summary.loop_dims
    by_dim = dict(zip(dims, summary.coincident))
    if not (by_dim.get("i") and by_dim.get("j")):
        raise CompilationError(
            "dependence analysis could not prove the i/j loops parallel; "
            f"carried dimensions: {summary.carried_dims()}"
        )
    if not summary.permutable:
        raise CompilationError("the loop nest is not tilable (band not permutable)")
    if spec.is_batched and not by_dim.get("b", False):
        raise CompilationError("the batch dimension carries a dependence")


def decompose(
    spec: GemmSpec,
    plan: TilePlan,
    options: CompilerOptions,
    arch: Optional[ArchSpec] = None,
    summary: Optional[DependenceSummary] = None,
) -> Decomposition:
    """Run the full §3 pass and return the decorated schedule tree.

    ``arch`` is carried on the result for the lowering's kernel naming;
    ``summary`` lets the pipeline's dependence-analysis pass feed its
    (already checked) result in instead of re-analysing.
    """
    if summary is None:
        summary = analyze_statement(
            spec.domain(), spec.accesses(), spec.loop_dims()
        )
    _check_parallelism(spec, summary)

    stmt = spec.stmt_name
    i, j, k = aff_var("i"), aff_var("j"), aff_var("k")
    M = aff_var(spec.m_param)
    N = aff_var(spec.n_param)
    K = aff_var(spec.k_param)
    mesh = plan.mesh
    mt, nt, kt = plan.mt, plan.nt, plan.kt

    bands: Dict[str, BandNode] = {}
    chain: List[BandNode] = []

    # ---- batch band (Fig. 3): isolated, never decomposed ------------------
    if spec.is_batched:
        if not options.batch:
            raise CompilationError(
                "input has a batch dimension; compile with the batch option"
            )
        Bp = aff_var(spec.batch_param)
        batch_band = BandNode(
            [
                BandMember(
                    "b",
                    {stmt: aff_var("b")},
                    coincident=True,
                    extent=(aff_const(0), Bp),
                    binding="batch",
                )
            ],
            permutable=False,
        )
        bands["batch"] = batch_band
        chain.append(batch_band)

    # ---- chunk loops: blocks of chunk_m × chunk_n per mesh pass -----------
    chunk_band = BandNode(
        [
            BandMember(
                "ic",
                {stmt: i.floordiv(mt * mesh)},
                coincident=True,
                extent=(aff_const(0), M.floordiv(mt * mesh)),
            ),
            BandMember(
                "jc",
                {stmt: j.floordiv(nt * mesh)},
                coincident=True,
                extent=(aff_const(0), N.floordiv(nt * mesh)),
            ),
        ],
        permutable=True,
    )
    bands["chunk"] = chunk_band
    chain.append(chunk_band)

    # ---- mesh binding (Fig. 4b): Rid/Cid are spatial, not loops ------------
    mesh_band = BandNode(
        [
            BandMember(
                "Rid",
                {stmt: i.floordiv(mt) - i.floordiv(mt * mesh) * mesh},
                coincident=True,
                extent=(aff_const(0), aff_const(mesh)),
                binding="mesh_row",
            ),
            BandMember(
                "Cid",
                {stmt: j.floordiv(nt) - j.floordiv(nt * mesh) * mesh},
                coincident=True,
                extent=(aff_const(0), aff_const(mesh)),
                binding="mesh_col",
            ),
        ],
        permutable=True,
    )
    bands["mesh"] = mesh_band
    chain.append(mesh_band)

    # ---- reduced dimension -------------------------------------------------
    if plan.use_rma:
        # Strip-mined by the mesh size (Fig. 6): the outer loop walks
        # 256-element k chunks, the inner enumerates the 8 slices that the
        # RMA broadcasts share across a row/column.
        kouter = BandNode(
            [
                BandMember(
                    "ko",
                    {stmt: k.floordiv(kt * mesh)},
                    coincident=False,
                    extent=(aff_const(0), K.floordiv(kt * mesh)),
                )
            ],
            permutable=False,
        )
        kmid = BandNode(
            [
                BandMember(
                    "km",
                    {stmt: k.floordiv(kt) - k.floordiv(kt * mesh) * mesh},
                    coincident=False,
                    extent=(aff_const(0), aff_const(mesh)),
                )
            ],
            permutable=False,
        )
        bands["kouter"] = kouter
        bands["kmid"] = kmid
        chain.extend([kouter, kmid])
    else:
        ktile = BandNode(
            [
                BandMember(
                    "ktile",
                    {stmt: k.floordiv(kt)},
                    coincident=False,
                    extent=(aff_const(0), K.floordiv(kt)),
                )
            ],
            permutable=False,
        )
        bands["ktile"] = ktile
        chain.append(ktile)

    # ---- point loops (the micro-kernel body) -------------------------------
    point_band = BandNode(
        [
            BandMember(
                "ip",
                {stmt: i - i.floordiv(mt) * mt},
                coincident=True,
                extent=(aff_const(0), aff_const(mt)),
            ),
            BandMember(
                "jp",
                {stmt: j - j.floordiv(nt) * nt},
                coincident=True,
                extent=(aff_const(0), aff_const(nt)),
            ),
            BandMember(
                "kp",
                {stmt: k - k.floordiv(kt) * kt},
                coincident=False,
                extent=(aff_const(0), aff_const(kt)),
            ),
        ],
        permutable=True,
    )
    bands["point"] = point_band
    chain.append(point_band)

    # ---- link the chain under the domain node ------------------------------
    root = DomainNode({stmt: spec.domain()}, [chain[0]])
    for upper, lower in zip(chain, chain[1:]):
        upper.set_child(lower)

    # ---- reconstruction map -------------------------------------------------
    ic, jc = aff_var("ic"), aff_var("jc")
    rid, cid = aff_var("Rid"), aff_var("Cid")
    ip, jp, kp = aff_var("ip"), aff_var("jp"), aff_var("kp")
    reconstruction: Dict[str, AffExpr] = {
        "i": (ic * mesh + rid) * mt + ip,
        "j": (jc * mesh + cid) * nt + jp,
    }
    if plan.use_rma:
        reconstruction["k"] = (aff_var("ko") * mesh + aff_var("km")) * kt + kp
    else:
        reconstruction["k"] = aff_var("ktile") * kt + kp
    if spec.is_batched:
        reconstruction["b"] = aff_var("b")

    return Decomposition(
        root=root,
        spec=spec,
        plan=plan,
        options=options,
        summary=summary,
        reconstruction=reconstruction,
        bands=bands,
        arch=arch,
    )


def verify_reconstruction(
    dec: Decomposition, params: Dict[str, int], samples: int = 64
) -> None:
    """Cross-check the reconstruction map against the band schedules.

    For a sample of original iteration points, evaluating every band
    schedule and then the reconstruction must round-trip to the original
    point.  Used by the test-suite (and cheap enough to run in CI)."""
    import random

    rng = random.Random(0x5EED)
    spec = dec.spec
    M = params[spec.m_param]
    N = params[spec.n_param]
    K = params[spec.k_param]
    B = params.get(spec.batch_param, 1) if spec.is_batched else 1
    for _ in range(samples):
        point = {
            "i": rng.randrange(M),
            "j": rng.randrange(N),
            "k": rng.randrange(K),
        }
        if spec.is_batched:
            point["b"] = rng.randrange(B)
        env = dict(params)
        env.update(point)
        loop_env: Dict[str, int] = dict(params)
        for band in dec.bands.values():
            for member in band.members:
                loop_env[member.var] = member.schedule_for(dec.stmt).evaluate(env)
        for dim, expr in dec.reconstruction.items():
            value = expr.evaluate(loop_env)
            if value != point[dim]:
                raise CompilationError(
                    f"reconstruction mismatch for {dim}: {value} != {point[dim]} "
                    f"at {point}"
                )
