"""The kernel admission verifier: four checks over the lowered program.

``run_checks`` is the single entry point both paths share:

* the terminal ``verify`` pass of every pipeline (the compile-time gate
  — a failing report raises :class:`KernelAdmissionError` before the
  program ever reaches a caller, and a passing one rides on the
  program: the one proof ``swgemm verify`` and the serve ``verify`` op
  report), and
* :func:`verify_program`, which re-derives the DMA/RMA specs from a
  program's decomposition and re-checks it (``api.verify``).

The four checks and the paper invariants they enforce:

=====================  =====  ==============================================
check                  §      invariant
=====================  =====  ==============================================
``spm-budget``         §6.3   all SPM buffers fit 256 KB per CPE
``dma-bounds``         §4     Eq. 1 coordinates in bounds for every tile
``double-buffer-       §6     no buffer read while an async transfer has
hazards``                     it in flight
``rma-discipline``     §5     balanced reply counters, matched
                              sender/receiver sets, no deadlock
=====================  =====  ==============================================
"""

from __future__ import annotations

from typing import Dict

from repro.verify.machine import MachineResult, ScheduleMachine
from repro.verify.report import (
    FAILED,
    PASSED,
    VERIFIER_VERSION,
    CheckResult,
    VerificationReport,
    admission_error,
)
from repro.verify.static_checks import check_dma_bounds, check_spm_budget

__all__ = [
    "run_checks",
    "verify_program",
    "admit",
    "build_certificate",
    "machine_params",
    "replay_schedule",
]


def machine_params(spec, plan) -> Dict[str, int]:
    """The concrete chunk problem the schedule machine replays.

    ``K = 2·k_step`` exercises both double-buffer parities and one full
    steady-state iteration of the peeled pipeline; the schedule's
    control flow is otherwise shape-independent."""
    params = {
        spec.m_param: plan.chunk_m,
        spec.n_param: plan.chunk_n,
        spec.k_param: 2 * plan.k_step,
    }
    if spec.is_batched:
        params[spec.batch_param] = 2
    return params


def replay_schedule(cpe_program, plan, spec) -> MachineResult:
    """Replay one lowered program on the :class:`ScheduleMachine`.

    The replay behind the hazard and RMA-discipline checks of
    :func:`run_checks` (a rewritten program is admitted by those checks
    in the pipeline's terminal ``verify`` pass, like any other), and the
    zero-violation proof the schedule benchmark records per program.
    Runs the chunk problem :func:`machine_params` derives."""
    machine = ScheduleMachine(cpe_program, plan.mesh, machine_params(spec, plan))
    return machine.run()


def build_certificate(plan, cpe_program, dma_specs, rma_specs) -> Dict[str, object]:
    """The shape-invariant movement summary guarded execution replays.

    Keyed by what the engines observe at runtime — transfer direction
    and buffer names — with the per-message element counts the static
    analysis admitted."""
    return {
        "spm_bytes": cpe_program.spm_bytes(),
        "dma": {
            f"{d.direction}:{d.buffer}": {"size": d.size, "len": d.cols}
            for d in (dma_specs or {}).values()
        },
        "rma": {
            f"{s.kind}:{s.src_buffer}->{s.dst_buffer}": {"size": s.size}
            for s in (rma_specs or {}).values()
        },
    }


def _check_hazards(result: MachineResult, mesh: int) -> CheckResult:
    deadlocked_on_dma = result.deadlock is not None and "dma" in result.deadlock
    if result.hazards or deadlocked_on_dma:
        witness = dict(
            result.hazards[0]
            if result.hazards
            else {"violation": "deadlock", "blocked": result.deadlock}
        )
        witness["total_witnesses"] = len(result.hazards)
        first = witness.get("violation", "hazard")
        return CheckResult(
            name="double-buffer-hazards",
            section="§6",
            status=FAILED,
            detail=(
                f"{len(result.hazards)} hazard(s) in the pipelined "
                f"schedule; first: {first}"
                + ("; schedule deadlocked" if result.deadlock else "")
            ),
            witness=witness,
        )
    return CheckResult(
        name="double-buffer-hazards",
        section="§6",
        status=PASSED,
        detail=(
            f"schedule replayed on all {mesh * mesh} CPEs "
            f"({result.stats.get('dma_issues', 0)} DMA issues, "
            f"{result.stats.get('waits', 0)} waits): no buffer read "
            "while in flight, all DMA reply counters balanced"
        ),
    )


def _check_rma_discipline(
    result: MachineResult, mesh: int, use_rma: bool
) -> CheckResult:
    deadlocked = result.deadlock is not None and "dma" not in result.deadlock
    if result.discipline or deadlocked:
        if result.discipline:
            witness = dict(result.discipline[0])
        else:
            witness = {"violation": "deadlock", "blocked": result.deadlock}
        witness["total_witnesses"] = len(result.discipline)
        return CheckResult(
            name="rma-discipline",
            section="§5",
            status=FAILED,
            detail=(
                f"{len(result.discipline)} discipline violation(s); "
                f"first: {witness.get('violation', 'violation')}"
                + (
                    f"; mesh deadlocked ({result.deadlock})"
                    if result.deadlock
                    else ""
                )
            ),
            witness=witness,
        )
    if not use_rma:
        detail = "no RMA in this variant; reply ledger balanced"
    else:
        detail = (
            f"{result.stats.get('rma_issues', 0)} broadcasts across "
            f"{result.stats.get('barriers', 0)} synch generations: every "
            "reply counter balanced, sender sets complete, no deadlock"
        )
    return CheckResult(
        name="rma-discipline", section="§5", status=PASSED, detail=detail
    )


def run_checks(
    spec,
    arch,
    options,
    plan,
    dma_specs,
    rma_specs,
    cpe_program,
) -> VerificationReport:
    """Run all four checks over one lowered program."""
    checks = [
        check_spm_budget(arch, plan, cpe_program),
        check_dma_bounds(spec, plan, dma_specs),
    ]
    result = replay_schedule(cpe_program, plan, spec)
    checks.append(_check_hazards(result, plan.mesh))
    checks.append(_check_rma_discipline(result, plan.mesh, plan.use_rma))
    report = VerificationReport(
        verifier_version=VERIFIER_VERSION,
        checks=tuple(checks),
        certificate=build_certificate(plan, cpe_program, dma_specs, rma_specs),
    )
    return report


def verify_program(program) -> VerificationReport:
    """Re-verify a compiled program from its own decomposition.

    Every program the pipeline returns already carries its gate's
    report, and this re-derivation equals it; :func:`repro.api.verify`
    exposes it to re-check any program, a tampered one included."""
    from repro.core.dma import derive_dma_specs
    from repro.core.rma import derive_rma_specs

    dec = program.decomposition
    dma_specs = derive_dma_specs(dec)
    rma_specs = derive_rma_specs(dec) if program.plan.use_rma else None
    return run_checks(
        program.spec,
        program.arch,
        program.options,
        program.plan,
        dma_specs,
        rma_specs,
        program.cpe_program,
    )


def admit(report: VerificationReport) -> VerificationReport:
    """Raise the structured admission error if the report fails."""
    if not report.ok:
        raise admission_error(report)
    return report
