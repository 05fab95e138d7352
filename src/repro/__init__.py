"""swgemm — Automatically Generating High-performance Matrix
Multiplication Kernels on the Latest Sunway Processor (ICPP '22),
reproduced as a Python library.

The package implements the paper's polyhedral GEMM compiler end to end —
C frontend, schedule trees, compute decomposition, automatic DMA/RMA,
two-level memory latency hiding, athread code generation — together with
every substrate the evaluation depends on: a functional + timed simulator
of one SW26010Pro core group, the vendor micro-kernel contract, an xMath
baseline model, and a model-guided autotuner over the tile/pipeline
configuration space.  See DESIGN.md for the inventory and EXPERIMENTS.md
for paper-vs-measured results.

Quick start — the stable facade is :mod:`repro.api`::

    import numpy as np
    from repro import api, GemmSpec

    program = api.compile(GemmSpec(), shape=(1024, 1024, 1024))
    a = np.random.rand(1024, 1024); b = np.random.rand(1024, 1024)
    result = api.run(program, a, b, beta=0.0)
    print(result.gflops, "Gflops (simulated)")

    record = api.tune(GemmSpec(), shape=(576, 1024, 512))
    print(record.candidate.name(), f"{100 * record.improvement:.1f}% faster")

``schedule`` is the one knob for the §6 latency-hiding pipeline
(``"recipe"``, ``"optimize"`` or ``"off"``).  A raw, uncached pass
pipeline is :class:`repro.core.pipeline.GemmCompiler`.
"""

from repro import api
from repro.api import Client, GemmResult, connect
from repro.codegen.backend import backend_names, get_backend, resolve_kernel
from repro.core import CompilerOptions, GemmSpec
from repro.core.options import SchedulePolicy, TileConfig
from repro.faults import FaultInjector, FaultPolicy, RetryPolicy, tile_checksum
from repro.frontend import compile_c, extract_spec, parse_c
from repro.runtime import CompiledProgram, ExecutionReport, Executor
from repro.runtime.simulator import PerformanceSimulator
from repro.service import (
    CompileService,
    ServiceConfig,
    cache_key,
    get_default_service,
    set_default_service,
)
from repro.sunway import (
    SW26010,
    SW26010PRO,
    SW26010PRO_HBM,
    SW26010PRO_LITE,
    TOY_ARCH,
    ArchSpec,
    Cluster,
    arch_names,
    get_arch,
    register_arch,
)
from repro.tune import TuneOptions, Tuner, TuningRecord, TuningRecordStore

__version__ = "1.3.0"

__all__ = [
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
