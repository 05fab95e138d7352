"""The schedule policy across the public surfaces: facade, wire
protocol and CLI — including the one rule they share, that ``optimize``
needs the asm kernel."""

import numpy as np
import pytest

import repro
from repro import api
from repro.cli import main
from repro.core import GemmSpec
from repro.core.options import SchedulePolicy
from repro.core.passes import reconcile_options
from repro.errors import ConfigurationError
from repro.serve.protocol import ProtocolError, spec_and_options
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import TOY_ARCH


@pytest.fixture
def toy_service():
    return CompileService(ServiceConfig(cache_dir=None))


def assert_self_describing(program):
    """The program's options are already canonical, and its variant name
    says ``+sched`` exactly when a schedule rewrite pass ran."""
    options = program.options
    assert reconcile_options(program.spec, options, program.arch) == options
    rewrote = any(s.name.startswith("schedule:") for s in program.pass_stats)
    assert ("+sched" in options.variant_name()) == rewrote


# -- facade ----------------------------------------------------------------


def test_api_compile_accepts_schedule_strings(toy_service):
    program = api.compile(
        GemmSpec(), arch=TOY_ARCH, schedule="optimize", service=toy_service
    )
    assert program.options.schedule.mode == "optimize"
    assert any(
        s.name.startswith("schedule:") for s in program.pass_stats
    )


@pytest.mark.parametrize(
    "mapping",
    [{"mode": "optimize"}, {"mode": "optimize", "allow": ["reorder-issues"]}],
)
def test_api_compile_refuses_schedule_mappings(toy_service, mapping):
    """The policy is a mode: a mapping (the retired rewrite filter's
    spelling) is refused, not silently narrowed to its mode."""
    with pytest.raises(ConfigurationError, match="schedule policy"):
        api.compile(GemmSpec(), arch=TOY_ARCH, schedule=mapping,
                    service=toy_service)


def test_api_compile_rejects_bad_schedule(toy_service):
    with pytest.raises(ConfigurationError):
        api.compile(GemmSpec(), arch=TOY_ARCH, schedule="warp-speed",
                    service=toy_service)


def test_api_compile_rejects_optimize_without_asm(toy_service):
    with pytest.raises(ConfigurationError, match="--schedule=optimize"):
        api.compile(GemmSpec(), arch=TOY_ARCH, kernel_backend="naive",
                    schedule="optimize", service=toy_service)
    for kernel, schedule in (
        ("vendor", "recipe"), ("vendor", "optimize"), ("vendor", "off"),
        ("naive", "recipe"), ("naive", "off"),
    ):
        program = api.compile(GemmSpec(), arch=TOY_ARCH, kernel_backend=kernel,
                              schedule=schedule, service=toy_service)
        assert_self_describing(program)


def test_schedule_policy_is_a_top_level_export():
    assert repro.SchedulePolicy is SchedulePolicy


def test_api_run_matches_recipe_numerically(toy_service):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((32, 24))
    b = rng.standard_normal((24, 48))
    recipe = api.run(GemmSpec(), a, b, arch=TOY_ARCH, service=toy_service)
    optimized = api.run(
        GemmSpec(), a, b, arch=TOY_ARCH, schedule="optimize",
        service=toy_service,
    )
    assert np.array_equal(recipe.c, optimized.c)


# -- wire protocol ---------------------------------------------------------


def test_wire_schedule_mode_string():
    _, options, _ = spec_and_options({"arch": "toy", "schedule": "optimize"})
    assert options.schedule == SchedulePolicy(mode="optimize")


def test_wire_rejects_optimize_without_asm(toy_service):
    with pytest.raises(ProtocolError, match="--schedule=optimize"):
        spec_and_options(
            {"arch": "toy", "use_asm": False, "schedule": "optimize"}
        )
    for params in (
        {"schedule": "optimize"},
        {"schedule": "off"},
        {"use_asm": False},
        {"use_asm": False, "schedule": "off"},
    ):
        spec, options, arch = spec_and_options({"arch": "toy", **params})
        assert_self_describing(toy_service.get_program(spec, arch, options))


def test_wire_schedule_structured_object():
    """A ``{"mode", ...}`` object is refused like any other malformed
    knob: the wire takes a mode string only."""
    for schedule in ({"mode": "optimize"},
                     {"mode": "optimize", "allow": ["split-waits"]}):
        with pytest.raises(ProtocolError, match="schedule policy"):
            spec_and_options({"arch": "toy", "schedule": schedule})


@pytest.mark.parametrize(
    "bad",
    [
        "hyperspeed",
        {"mode": "optimize", "allow": ["defrag"]},
        {"mode": "optimize", "bogus_key": 1},
        7,
    ],
)
def test_wire_rejects_bad_schedule_as_protocol_error(bad):
    with pytest.raises(ProtocolError):
        spec_and_options({"arch": "toy", "schedule": bad})


# -- CLI -------------------------------------------------------------------


def test_cli_passes_list_covers_schedule_namespace(capsys):
    assert main(["passes", "list", "--schedule=optimize"]) == 0
    out = capsys.readouterr().out
    assert "+sched" in out
    listed = [word for word in out.split() if word.startswith("schedule:")]
    assert listed == ["schedule:split-waits", "schedule:reorder-issues",
                      "schedule:merge-transfers"]


def test_cli_schedule_off_drops_hiding(capsys):
    assert main(["passes", "list", "--schedule=off"]) == 0
    out = capsys.readouterr().out
    assert "latency-hiding" not in out
    assert "communication-schedule" in out


def test_cli_rejects_optimize_without_asm(capsys):
    assert main(["passes", "list", "--schedule=optimize", "--no-use-asm"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("swgemm: error:")
    assert "--schedule=optimize" in err
    for flags in ([], ["--schedule=optimize"], ["--schedule=off"],
                  ["--no-use-asm"], ["--no-use-asm", "--schedule=off"]):
        assert main(["passes", "list", *flags]) == 0
        out = capsys.readouterr().out
        variant = out.split("variant '", 1)[1].split("'", 1)[0]
        assert ("+sched" in variant) == ("schedule:" in out), flags


def _assert_unknown_schedule_passes_flag(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --schedule-passes" in (
        capsys.readouterr().err
    )


def test_cli_rejects_schedule_passes_without_optimize(capsys):
    """``--schedule-passes`` is gone: without ``--schedule=optimize`` it is
    an unknown flag."""
    _assert_unknown_schedule_passes_flag(
        capsys, ["passes", "list", "--schedule-passes", "split-waits"],
    )


def test_cli_schedule_passes_is_an_unknown_flag(capsys):
    """``--schedule=optimize`` runs one fixed stack: there is no filter
    flag to narrow it, so ``--schedule-passes`` is refused there too."""
    _assert_unknown_schedule_passes_flag(capsys, [
        "passes", "list", "--schedule=optimize",
        "--schedule-passes", "reorder-issues",
    ])


def test_cli_tree_appends_the_timeline(capsys):
    assert main(["tree", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "--- schedule timeline ---" in out
    assert "timeline:" in out


def test_cli_dump_ir_includes_timeline_artifact(tmp_path, capsys):
    outdir = tmp_path / "ir"
    assert main(["tree", "--dump-ir", str(outdir), "--no-cache"]) == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert any(name.endswith("schedule-timeline.txt") for name in files)
    timeline = next(
        p for p in outdir.iterdir() if p.name.endswith("schedule-timeline.txt")
    )
    assert timeline.read_text().startswith("timeline:")
