"""Stage 1 of the search: the analytical pruner.

Rejects infeasible or obviously-bad candidates *without compiling
anything*, using exactly the arithmetic the rest of the stack enforces:

* feasibility — the candidate's SPM buffer plan is built by
  :func:`repro.core.tile_model.plan_for_kernel` and budget-checked with
  :func:`repro.verify.plan_spm_slack`, the plan-level core of the
  admission verifier's §6.3 check, so no point the verifier would later
  reject survives pruning;
* ranking — the per-iteration cost model of §3.1
  (:func:`~repro.core.tile_model.iteration_cost`, the formula the shape
  search uses), extended with the padding waste a concrete problem
  shape pays: ragged shapes are exactly where a smaller chunk beats the
  paper's 512×512×256 default, and the pruner must see that.

The predicted number is a *ranking* signal, not a measurement — stage 2
(:mod:`repro.tune.driver`) measures survivors on the cycle-accurate
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SPMOverflowError
from repro.core.options import CompilerOptions
from repro.core.passes import reconcile_options
from repro.core.spec import GemmSpec
from repro.core.tile_model import TilePlan, iteration_cost, plan_for_kernel
from repro.sunway.arch import ArchSpec
from repro.tune.space import Candidate
from repro.verify import plan_spm_slack


@dataclass(frozen=True)
class PrunedCandidate:
    """One candidate's stage-1 verdict."""

    candidate: Candidate
    feasible: bool
    reason: str
    predicted_gflops: float
    limiter: str
    spm_slack_bytes: int


def predict_gflops(
    arch: ArchSpec,
    plan: TilePlan,
    shape: Optional[Tuple[int, int, int]] = None,
) -> Tuple[float, str]:
    """Modelled mesh-wide throughput of one plan, with padding waste.

    The §3.1 per-iteration cost of the candidate's own plan
    (:func:`~repro.core.tile_model.iteration_cost`, the formula
    :func:`~repro.core.tile_model.score_shape` uses, in the candidate's
    RMA / double-buffering mode) — and, when the concrete ``(M, N, K)``
    is known, scaled by the useful-flops fraction of the zero-padded
    problem the mesh really executes.
    """
    cost = iteration_cost(arch, plan)
    gflops = arch.num_cpes * plan.kernel_shape.flops / cost.per_iter_s / 1e9
    if shape is not None:
        M, N, K = shape

        def up(value: int, multiple: int) -> int:
            return -(-value // multiple) * multiple

        padded = (
            up(M, plan.chunk_m) * up(N, plan.chunk_n) * up(K, plan.k_step)
        )
        gflops *= (M * N * K) / padded
    return gflops, cost.limiter


def analyze(
    spec: GemmSpec,
    arch: ArchSpec,
    base_options: CompilerOptions,
    candidate: Candidate,
    shape: Optional[Tuple[int, int, int]] = None,
) -> PrunedCandidate:
    """Stage-1 verdict for one candidate (never compiles)."""
    try:
        options = reconcile_options(spec, candidate.apply(base_options), arch)
        plan = plan_for_kernel(
            arch,
            options,
            trans_a=spec.trans_a,
            trans_b=spec.trans_b,
            itemsize=spec.itemsize,
        )
    except (ConfigurationError, SPMOverflowError) as exc:
        return PrunedCandidate(
            candidate, False, str(exc), 0.0, "infeasible", -1
        )
    slack = plan_spm_slack(arch, plan)
    if slack < 0:  # plan_for_kernel already raises; belt and braces
        return PrunedCandidate(
            candidate, False, f"SPM overflow by {-slack} B", 0.0, "spm", slack
        )
    gflops, limiter = predict_gflops(arch, plan, shape)
    return PrunedCandidate(candidate, True, "", gflops, limiter, slack)


def prune(
    spec: GemmSpec,
    arch: ArchSpec,
    base_options: CompilerOptions,
    candidates: Sequence[Candidate],
    shape: Optional[Tuple[int, int, int]] = None,
    keep_fraction: float = 0.5,
    keep_min: int = 8,
) -> Tuple[List[PrunedCandidate], List[PrunedCandidate]]:
    """Split candidates into (survivors, rejected).

    Survivors are the feasible points ranked by predicted throughput,
    truncated to ``max(keep_min, keep_fraction · feasible)`` — the
    obviously-bad tail never reaches the simulator.  Ties break on the
    candidate's position in the deterministic enumeration order.

    The arch's analytical default (the paper's provably-feasible point)
    is never pruned: even when the model ranks it into the tail — e.g.
    on tiny shapes where its padding waste dominates — it survives, so
    the measured baseline always comes from the same stage-2 path.
    """
    from repro.tune.space import default_candidate

    scored = [
        analyze(spec, arch, base_options, c, shape) for c in candidates
    ]
    feasible = [s for s in scored if s.feasible]
    rejected = [s for s in scored if not s.feasible]
    order = {id(s): i for i, s in enumerate(scored)}
    feasible.sort(key=lambda s: (-s.predicted_gflops, order[id(s)]))
    keep = max(keep_min, int(len(feasible) * keep_fraction))
    survivors = feasible[:keep]
    tail = feasible[keep:]
    default_name = default_candidate(arch, base_options).name()
    for s in list(tail):
        if s.candidate.name() == default_name:
            survivors.append(s)
            tail.remove(s)
    rejected.extend(tail)
    return survivors, rejected
