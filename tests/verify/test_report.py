"""VerificationReport: attachment, summaries, serde round-trips, and
the gate's report equal to :func:`verify_program`'s re-derivation."""

import pytest

from repro.core import GemmCompiler, GemmSpec
from repro.runtime import serde
from repro.sunway.arch import TOY_ARCH
from repro.verify import (
    FAILED,
    PASSED,
    VERIFIER_VERSION,
    CheckResult,
    VerificationReport,
    verify_program,
)

from tests.conftest import VARIANTS


def test_every_variant_is_admitted_with_a_passing_report(toy_programs):
    for name, program in toy_programs.items():
        report = program.verification
        assert report is not None, name
        assert report.ok, name
        assert report.verifier_version == VERIFIER_VERSION
        assert [c.name for c in report.checks] == [
            "spm-budget",
            "dma-bounds",
            "double-buffer-hazards",
            "rma-discipline",
        ]
        assert all(c.status == PASSED for c in report.checks), name
        assert report.certificate is not None
        assert report.certificate["spm_bytes"] == program.cpe_program.spm_bytes()
        # The one proof: re-deriving it from the program changes nothing.
        assert verify_program(program).describe() == report.describe(), name


def test_pro_mesh_program_is_admitted(pro_full_program):
    assert pro_full_program.verification is not None
    assert pro_full_program.verification.ok


def test_certificate_covers_every_dma_direction(toy_full_program):
    cert = toy_full_program.verification.certificate
    directions = {key.split(":", 1)[0] for key in cert["dma"]}
    assert directions == {"get", "put"}
    # The RMA variant's certificate names both broadcast kinds.
    kinds = {key.split(":", 1)[0] for key in cert["rma"]}
    assert kinds == {"row", "col"}


def test_report_serde_round_trip(toy_full_program):
    report = toy_full_program.verification
    blob = serde.encode(report)
    back = serde.decode(blob)
    assert back == report
    assert back.ok and back.certificate == report.certificate


def test_program_serde_preserves_report(toy_full_program):
    from repro.runtime.program import CompiledProgram

    back = CompiledProgram.from_dict(toy_full_program.to_dict())
    assert back.verification == toy_full_program.verification


def test_failing_report_survives_serde():
    report = VerificationReport(
        checks=(
            CheckResult(
                name="spm-budget",
                section="§6.3",
                status=FAILED,
                detail="too big",
                witness={"spm_bytes": 999, "buffers": {"a": 999}},
            ),
        ),
    )
    back = serde.decode(serde.encode(report))
    assert not back.ok
    assert back.check("spm-budget").witness["buffers"] == {"a": 999}
    assert "REJECTED" in back.render()
    assert back.summary().startswith("FAILED spm-budget")


def test_report_render_and_describe(toy_full_program):
    report = toy_full_program.verification
    text = report.render()
    assert "ADMITTED" in text
    for check in report.checks:
        assert check.name in text
    described = report.describe()
    assert described["ok"] is True
    assert len(described["checks"]) == 4
    assert report.check("dma-bounds").section == "§4"
    with pytest.raises(KeyError):
        report.check("no-such-check")


def test_verify_pass_is_terminal_for_all_variants():
    for name, options in VARIANTS.items():
        compiler = GemmCompiler(TOY_ARCH, options)
        passes = [p.name for p in compiler.pipeline_for(GemmSpec())]
        assert passes[-1] == "verify", name
