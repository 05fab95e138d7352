"""Guarded execution: the certificate guard against real runs.

Guarded functional runs of every §8.1 variant must report zero
divergences; a tampered certificate must fail loudly with
``CertificateDivergenceError``.
"""

import copy

import numpy as np
import pytest

from repro.errors import CertificateDivergenceError
from repro.runtime.executor import run_gemm
from repro.verify import CertificateGuard

from tests.conftest import reference_gemm


def run_guarded(program, rng, m=8, n=8, k=8):
    A = rng.standard_normal((m, k))
    B = rng.standard_normal((k, n))
    C = rng.standard_normal((m, n))
    expected = reference_gemm(A, B, C.copy())
    out, report = run_gemm(program, A, B, C, guarded=True)
    np.testing.assert_allclose(out, expected, rtol=1e-12)
    return report


def test_all_variants_run_guarded_without_divergence(toy_programs, rng):
    for name, program in toy_programs.items():
        report = run_guarded(program, rng)
        assert report.stats["guard_divergences"] == 0, name
        assert report.stats["guard_events"] > 0, name


def test_ragged_shapes_stay_within_certificate(toy_full_program, rng):
    # Multi-chunk, non-square problems reuse the same shape-invariant
    # certificate: per-message footprints do not depend on the shape.
    report = run_guarded(toy_full_program, rng, m=24, n=16, k=16)
    assert report.stats["guard_divergences"] == 0


def test_unguarded_run_reports_no_guard_stats(toy_full_program, rng):
    A = rng.standard_normal((8, 8))
    B = rng.standard_normal((8, 8))
    C = np.zeros((8, 8))
    _, report = run_gemm(toy_full_program, A, B, C)
    assert "guard_events" not in report.stats


def test_tampered_dma_certificate_diverges(toy_full_program, rng):
    program = copy.deepcopy(toy_full_program)
    cert = program.verification.certificate
    key = next(iter(cert["dma"]))
    cert["dma"][key]["size"] += 1
    with pytest.raises(CertificateDivergenceError) as err:
        run_guarded(program, rng)
    assert "certificate divergence" in str(err.value)


def test_tampered_spm_certificate_diverges(toy_full_program, rng):
    program = copy.deepcopy(toy_full_program)
    program.verification.certificate["spm_bytes"] += 8
    with pytest.raises(CertificateDivergenceError) as err:
        run_guarded(program, rng)
    assert "SPM allocation" in str(err.value)


def test_unknown_transfer_diverges():
    guard = CertificateGuard({"dma": {}, "rma": {}, "spm_bytes": 0})
    with pytest.raises(CertificateDivergenceError) as err:
        guard.on_dma("get", "mystery", 64, 8)
    assert "mystery" in str(err.value)
    assert guard.divergences


def test_non_strict_guard_collects_instead_of_raising():
    guard = CertificateGuard({"dma": {}, "rma": {}}, strict=False)
    guard.on_dma("get", "mystery", 64, 8)
    guard.on_rma("row", "a", "b", 32)
    assert len(guard.divergences) == 2
    assert guard.events == 2

