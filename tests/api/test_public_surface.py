"""Snapshot of the public API surface.

This test is the contract behind the facade redesign: it fails whenever
an exported symbol disappears or a facade function changes its
signature.  Widening the surface is fine — update the snapshot in the
same change that widens it; narrowing or reshaping it is a breaking
change and should be caught here, not by downstream users.
"""

import inspect

import repro
from repro import api

EXPECTED_EXPORTS = sorted(
    [
        # the stable facade
        "api",
        "GemmResult",
        # serving daemon client
        "Client",
        "connect",
        # problem + options
        "GemmSpec",
        "CompilerOptions",
        "TileConfig",
        "SchedulePolicy",
        # compilation service
        "CompileService",
        "ServiceConfig",
        "cache_key",
        "get_default_service",
        "set_default_service",
        # autotuner
        "Tuner",
        "TuneOptions",
        "TuningRecord",
        "TuningRecordStore",
        # frontend + runtime
        "compile_c",
        "extract_spec",
        "parse_c",
        "CompiledProgram",
        "Executor",
        "ExecutionReport",
        "PerformanceSimulator",
        # fault plane
        "FaultPolicy",
        "RetryPolicy",
        "FaultInjector",
        "tile_checksum",
        # architectures (the registry is how new targets become reachable)
        "ArchSpec",
        "Cluster",
        "SW26010PRO",
        "SW26010",
        "SW26010PRO_HBM",
        "SW26010PRO_LITE",
        "TOY_ARCH",
        "get_arch",
        "arch_names",
        "register_arch",
        # kernel backends
        "get_backend",
        "backend_names",
        "resolve_kernel",
        "__version__",
    ]
)

EXPECTED_API = {
    "compile": ["spec", "arch", "shape", "options", "service", "timeout",
                "option_overrides"],
    "run": ["program_or_spec", "a", "b", "c", "alpha", "beta", "guarded",
            "arch", "service", "option_overrides"],
    "tune": ["spec", "shape", "arch", "seed", "budget", "options",
             "service", "full_result", "option_overrides"],
    "verify": ["program"],
    # **client_kw forwards the serve client's overload knobs
    # (deadline_ms, overload_retries, overload_retry_budget_s) without
    # re-declaring them on the facade.
    "connect": ["address", "tenant", "timeout", "client_kw"],
}


def test_top_level_exports_snapshot():
    assert sorted(repro.__all__) == EXPECTED_EXPORTS


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_api_module_exports():
    assert sorted(api.__all__) == sorted(
        ["GemmResult", "Client", *EXPECTED_API]
    )


def test_facade_signatures_snapshot():
    for name, expected in EXPECTED_API.items():
        sig = inspect.signature(getattr(api, name))
        assert list(sig.parameters) == expected, name


def test_facade_defaults_are_stable():
    sig = inspect.signature(api.compile)
    assert sig.parameters["shape"].default is None
    assert sig.parameters["timeout"].default is None
    sig = inspect.signature(api.tune)
    assert sig.parameters["seed"].default == 0
    assert sig.parameters["budget"].default == 20
    sig = inspect.signature(api.run)
    assert sig.parameters["alpha"].default == 1.0
    assert sig.parameters["beta"].default == 1.0
    assert sig.parameters["guarded"].default is False
