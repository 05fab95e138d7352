"""The stable facade: compile / run / tune / verify round trips."""

import numpy as np
import pytest

from repro import api
from repro.core import CompilerOptions, GemmSpec
from repro.errors import ConfigurationError
from repro.runtime.program import CompiledProgram
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import TOY_ARCH


@pytest.fixture()
def service():
    return CompileService(ServiceConfig())


def test_compile_returns_verified_program(service):
    program = api.compile(GemmSpec(), arch=TOY_ARCH, service=service)
    assert isinstance(program, CompiledProgram)
    assert program.verification is not None and program.verification.ok


def test_compile_default_spec_is_plain_gemm(service):
    program = api.compile(arch=TOY_ARCH, service=service)
    assert not program.spec.is_batched


def test_option_overrides_apply(service):
    program = api.compile(
        arch=TOY_ARCH, service=service, enable_rma=False,
        kernel_backend="naive",
    )
    assert not program.options.enable_rma
    assert not program.options.use_asm


def test_unknown_option_is_a_configuration_error(service):
    with pytest.raises(ConfigurationError, match="unknown compiler option"):
        api.compile(arch=TOY_ARCH, service=service, enable_warp_drive=True)
    # The kernel has one field: ``use_asm`` is a read-only property.
    with pytest.raises(ConfigurationError, match="unknown compiler option"):
        api.compile(arch=TOY_ARCH, service=service, use_asm=False)


def test_run_round_trip_matches_numpy(service):
    program = api.compile(arch=TOY_ARCH, service=service)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 16))
    b = rng.standard_normal((16, 32))
    result = api.run(program, a, b, beta=0.0)
    assert np.allclose(result.c, a @ b)
    assert result.gflops > 0
    assert result.seconds > 0


def test_result_unpacks_like_the_legacy_tuple(service):
    program = api.compile(arch=TOY_ARCH, service=service)
    a = np.ones((32, 16))
    b = np.ones((16, 32))
    c, report = api.run(program, a, b, beta=0.0)
    assert np.allclose(c, a @ b)
    assert report.gflops > 0


def test_run_compiles_spec_on_the_fly(service):
    a = np.ones((32, 16))
    b = np.ones((16, 32))
    result = api.run(
        GemmSpec(), a, b, beta=0.0, arch=TOY_ARCH, service=service
    )
    assert np.allclose(result.c, a @ b)


def test_run_rejects_overrides_with_compiled_program(service):
    program = api.compile(arch=TOY_ARCH, service=service)
    with pytest.raises(ConfigurationError, match="already-compiled"):
        api.run(program, np.ones((32, 16)), np.ones((16, 32)),
                kernel_backend="naive")


def test_verify_reports_per_check(service):
    program = api.compile(arch=TOY_ARCH, service=service)
    report = api.verify(program)
    assert report.ok


def test_tune_returns_record_and_steers_compile(service):
    record = api.tune(
        shape=(128, 128, 64), arch=TOY_ARCH, seed=0, budget=6,
        service=service,
    )
    assert record.best_gflops >= record.default_gflops
    assert record.measurements >= 1

    # A later compile of the same shape class through the same service
    # reuses the record.
    program = api.compile(
        arch=TOY_ARCH, shape=(128, 128, 64), service=service
    )
    assert program.plan.kernel_shape == record.candidate.tile.shape()
    assert service.tuning_hits == 1


def test_tune_full_result_carries_search_trace(service):
    result = api.tune(
        shape=(128, 128, 64), arch=TOY_ARCH, seed=0, budget=6,
        service=service, full_result=True,
    )
    assert result.candidates_total > 0
    assert result.measured >= 1
    assert result.record.key in service.tuning_store.keys()


def test_tune_rejects_malformed_shape(service):
    with pytest.raises(ConfigurationError, match="shape must be"):
        api.tune(shape=(128, 128), arch=TOY_ARCH, service=service)
