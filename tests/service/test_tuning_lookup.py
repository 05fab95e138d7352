"""Tuning-record steering inside the compilation service."""

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.core.options import TileConfig
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import TOY_ARCH
from repro.tune import TuneOptions, Tuner

SHAPE = (128, 128, 64)


@pytest.fixture()
def tuned_dir(tmp_path):
    """A cache dir holding one tuning record for SHAPE's class."""
    service = CompileService(ServiceConfig(cache_dir=tmp_path / "cache"))
    result = Tuner(TOY_ARCH, service=service).tune(
        M=SHAPE[0], N=SHAPE[1], K=SHAPE[2],
        tune_options=TuneOptions(seed=0, max_measurements=6),
    )
    return tmp_path / "cache", result.record


def test_shape_hint_steers_to_the_record(tuned_dir):
    cache_dir, record = tuned_dir
    service = CompileService(ServiceConfig(cache_dir=cache_dir))
    program = service.get_program(
        GemmSpec(), TOY_ARCH, CompilerOptions(), shape_hint=SHAPE
    )
    assert program.plan.kernel_shape == record.candidate.tile.shape()
    assert service.tuning_lookups == 1
    assert service.tuning_hits == 1


def test_no_hint_no_steering(tuned_dir):
    cache_dir, _ = tuned_dir
    service = CompileService(ServiceConfig(cache_dir=cache_dir))
    program = service.get_program(GemmSpec(), TOY_ARCH, CompilerOptions())
    assert program.plan.kernel_shape == TOY_ARCH.micro_kernel
    assert service.tuning_lookups == 0


def test_unmatched_shape_class_misses(tuned_dir):
    cache_dir, _ = tuned_dir
    service = CompileService(ServiceConfig(cache_dir=cache_dir))
    program = service.get_program(
        GemmSpec(), TOY_ARCH, CompilerOptions(), shape_hint=(2048, 2048, 2048)
    )
    assert program.plan.kernel_shape == TOY_ARCH.micro_kernel
    assert service.tuning_lookups == 1
    assert service.tuning_hits == 0


def test_explicit_tile_config_wins_over_the_record(tuned_dir):
    cache_dir, record = tuned_dir
    service = CompileService(ServiceConfig(cache_dir=cache_dir))
    pinned = TileConfig(4, 4, 4)
    program = service.get_program(
        GemmSpec(),
        TOY_ARCH,
        CompilerOptions(tile_config=pinned),
        shape_hint=SHAPE,
    )
    assert program.plan.kernel_shape == pinned.shape()
    assert service.tuning_lookups == 0


def test_non_default_knobs_are_not_steered(tuned_dir):
    cache_dir, _ = tuned_dir
    service = CompileService(ServiceConfig(cache_dir=cache_dir))
    program = service.get_program(
        GemmSpec(),
        TOY_ARCH,
        CompilerOptions(enable_rma=False),
        shape_hint=SHAPE,
    )
    assert program.plan.kernel_shape == TOY_ARCH.micro_kernel
    assert service.tuning_lookups == 0


def test_stats_report_tuning_section(tuned_dir):
    cache_dir, _ = tuned_dir
    service = CompileService(ServiceConfig(cache_dir=cache_dir))
    service.get_program(GemmSpec(), TOY_ARCH, CompilerOptions(), shape_hint=SHAPE)
    report = service.stats()
    assert report["tuning"]["lookups"] == 1
    assert report["tuning"]["hits"] == 1
    assert report["tuning"]["records"] >= 1


def test_memory_only_service_has_a_working_store():
    service = CompileService(ServiceConfig(enabled=False))
    assert service.tuning_store.root is None
    assert service.tuning_store.keys() == []


def test_schedule_off_is_not_steered(tmp_path):
    """A tuning record must not override ``schedule="off"``: steering
    reads the schedule field, and only the default recipe is eligible —
    through the facade and through the serve ops' wire path alike."""
    from repro import api
    from repro.serve.protocol import shape_hint, spec_and_options

    service = CompileService(ServiceConfig(cache_dir=tmp_path / "cache"))
    shape = (48, 80, 32)
    record = api.tune(GemmSpec(), arch=TOY_ARCH, shape=shape, seed=0,
                      budget=6, service=service)
    assert record.candidate.name() == "16x16x8-d2-s1:dma+hide"

    steered = api.compile(GemmSpec(), arch=TOY_ARCH, shape=shape,
                          service=service)
    assert steered.plan.kernel_shape == record.candidate.tile.shape()

    off = api.compile(GemmSpec(), arch=TOY_ARCH, shape=shape,
                      schedule="off", service=service)
    names = [s.name for s in off.pass_stats]
    assert "communication-schedule" in names
    assert "latency-hiding" not in names
    assert off.plan.kernel_shape == TOY_ARCH.micro_kernel

    params = {"arch": "toy", "schedule": "off",
              "M": shape[0], "N": shape[1], "K": shape[2]}
    spec, options, arch = spec_and_options(params)
    wire = service.get_program(spec, arch, options,
                               shape_hint=shape_hint(params))
    assert wire.options == off.options


def test_explicit_kernel_backend_is_not_steered(tmp_path):
    """A record names the kernel it was measured with: an explicit
    ``kernel_backend`` other than the default states the kernel, so the
    record must not replace it."""
    from repro import api

    service = CompileService(ServiceConfig(cache_dir=tmp_path / "cache"))
    shape = (48, 80, 32)
    api.tune(GemmSpec(), arch=TOY_ARCH, shape=shape, seed=0, budget=6,
             service=service)
    program = api.compile(GemmSpec(), arch=TOY_ARCH, shape=shape,
                          kernel_backend="parametric", service=service)
    assert program.options.variant_name() == "+hiding#parametric"
    assert program.plan.kernel_shape == TOY_ARCH.micro_kernel
    assert service.tuning_hits == 0


@pytest.mark.parametrize(
    "reduced",
    [{"kernel_backend": "naive"}, {"schedule": "off"}, {"enable_rma": False}],
    ids=["naive", "schedule-off", "no-rma"],
)
def test_reduced_tune_does_not_touch_the_shared_record(tmp_path, reduced):
    """Only a whole-space tune speaks for a shape class: a tune from a
    reduced base returns its winner without writing the record or the
    journal a default compile is steered by."""
    from repro import api

    cache = tmp_path / "cache"
    service = CompileService(ServiceConfig(cache_dir=cache))
    shape = (48, 80, 32)
    full = api.tune(GemmSpec(), arch=TOY_ARCH, shape=shape, seed=0,
                    budget=6, service=service)
    assert full.candidate.name() == "16x16x8-d2-s1:dma+hide"

    result = api.tune(GemmSpec(), arch=TOY_ARCH, shape=shape, seed=0,
                      budget=6, service=service, full_result=True, **reduced)
    steered = api.compile(GemmSpec(), arch=TOY_ARCH, shape=shape,
                          service=service)
    assert steered.plan.kernel_shape == full.candidate.tile.shape()
    assert steered.options.schedule.mode == "recipe"
    assert service.tuning_store.records() == [full]
    assert not list((cache / "tuning").glob("*.journal.json"))
    assert not result.persisted
