"""Compile deadlines: ``timeout_s`` on the service and the compiler.

The deadline covers the whole request — including time spent blocked on
another request's in-flight compilation — and overruns surface as a
structured :class:`CompileTimeout`, never a hang.
"""

import threading

import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.errors import CompileTimeout
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import TOY_ARCH


def service(tmp_path=None, **kwargs):
    config = ServiceConfig(
        cache_dir=tmp_path / "cache" if tmp_path else None, **kwargs
    )
    return CompileService(config)


def test_exhausted_deadline_fails_before_compiling(tmp_path):
    svc = service(tmp_path)
    with pytest.raises(CompileTimeout) as err:
        svc.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.full(), timeout_s=0.0)
    assert "deadline" in str(err.value)
    assert err.value.timeout_s <= 0.0
    assert svc.compile_count == 0


def test_generous_deadline_compiles_normally(tmp_path):
    svc = service(tmp_path)
    program = svc.get_program(
        GemmSpec(), TOY_ARCH, CompilerOptions.full(), timeout_s=120.0
    )
    assert program.verification is not None and program.verification.ok
    # A repeat under deadline is a cache hit, not a recompile.
    again = svc.get_program(
        GemmSpec(), TOY_ARCH, CompilerOptions.full(), timeout_s=120.0
    )
    assert again is program or again.plan == program.plan
    assert svc.compile_count == 1


def test_compiler_deadline_raises_between_passes():
    compiler = GemmCompiler(TOY_ARCH, CompilerOptions.full())
    with pytest.raises(CompileTimeout):
        compiler.compile(GemmSpec(), timeout_s=0.0)


def test_waiter_timeout_is_counted_and_structured():
    release = threading.Event()
    entered = threading.Event()

    def slow_compile(spec, arch, options, timeout_s=None):
        entered.set()
        release.wait(timeout=10.0)
        return GemmCompiler(arch, options).compile(spec)

    svc = CompileService(ServiceConfig(), compile_fn=slow_compile)
    spec, options = GemmSpec(), CompilerOptions.full()

    owner_result = {}

    def owner():
        owner_result["program"] = svc.get_program(spec, TOY_ARCH, options)

    thread = threading.Thread(target=owner)
    thread.start()
    try:
        assert entered.wait(timeout=5.0)
        # The second request joins the flight and must time out waiting,
        # not hang until the owner finishes.
        with pytest.raises(CompileTimeout) as err:
            svc.get_program(spec, TOY_ARCH, options, timeout_s=0.05)
        assert "exceeded" in str(err.value)
        assert svc.flight_timeouts == 1
        assert svc.stats()["single_flight_timeouts"] == 1
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert owner_result["program"] is not None
    # A timed-out waiter can re-attempt once the flight has landed.
    assert svc.get_program(spec, TOY_ARCH, options, timeout_s=5.0) is not None


def test_compile_fn_always_receives_the_remaining_budget():
    """Every compile function takes ``timeout_s``: ``None`` without a
    deadline, otherwise the wall time the request has left."""
    seen = []

    def compile_fn(spec, arch, options, timeout_s=None):
        seen.append(timeout_s)
        return object()

    svc = CompileService(ServiceConfig(enabled=False), compile_fn=compile_fn)
    svc.get_program(GemmSpec(), TOY_ARCH)
    svc.get_program(GemmSpec(), TOY_ARCH, timeout_s=60.0)
    assert seen[0] is None
    assert 0.0 < seen[1] <= 60.0


def test_cli_timeout_flag_maps_to_exit_code(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "out"
    assert main(["--no-cache", "--timeout", "0", "compile", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "swgemm: error:" in err and "deadline" in err
