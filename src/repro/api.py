"""The stable public API.

Four verbs cover compiling, running, tuning and verifying a kernel:

* :func:`compile` — spec in, admission-verified
  :class:`~repro.runtime.program.CompiledProgram` out, served through
  the process-wide compilation service (content-addressed cache,
  single-flight, tuning-record steering when a shape is given);
* :func:`run` — execute a program (or compile-and-run a spec) on the
  simulated core group, returning a :class:`GemmResult`;
* :func:`tune` — search the tile/pipeline space for a shape class and
  persist the winning :class:`~repro.tune.records.TuningRecord`;
* :func:`verify` — run the static admission verifier over a program and
  return its :class:`~repro.verify.VerificationReport`.

Everything here is re-exported from ``repro`` itself.  Compiler
options pass as keyword overrides, e.g.::

    program = api.compile(spec, enable_rma=False, schedule="off")
    result = api.run(program, a, b)
    record = api.tune(spec, shape=(576, 1024, 512))

``schedule`` selects the §6 latency-hiding pipeline — ``"recipe"`` (the
default), ``"optimize"`` or ``"off"`` — and takes a mode string or a
:class:`~repro.core.options.SchedulePolicy`.  Hiding needs an asm
kernel: ``kernel_backend="naive"`` (plain loops, ``--no-use-asm``)
compiles without it, and with ``schedule="optimize"`` is a
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.runtime.executor import ExecutionReport
from repro.runtime.executor import run_gemm as _run_gemm
from repro.runtime.program import CompiledProgram
from repro.sunway.arch import SW26010PRO, ArchSpec

__all__ = [
    "Client",
    "GemmResult",
    "compile",
    "connect",
    "run",
    "tune",
    "verify",
]

_OPTION_FIELDS = frozenset(f.name for f in dataclass_fields(CompilerOptions))


@dataclass(frozen=True)
class GemmResult:
    """What one simulated GEMM execution produced."""

    c: np.ndarray
    report: ExecutionReport

    @property
    def gflops(self) -> float:
        return self.report.gflops

    @property
    def seconds(self) -> float:
        return self.report.elapsed_seconds

    def __iter__(self) -> Iterator:
        """Unpack like the legacy ``run_gemm`` tuple: ``c, report``."""
        yield self.c
        yield self.report


def _coerce_options(
    options: Optional[CompilerOptions], overrides: dict
) -> CompilerOptions:
    unknown = set(overrides) - _OPTION_FIELDS
    if unknown:
        raise ConfigurationError(
            f"unknown compiler option(s) {sorted(unknown)}; valid options "
            f"are {sorted(_OPTION_FIELDS)}"
        )
    base = options or CompilerOptions()
    return base.with_(**overrides) if overrides else base


def _service(service):
    if service is not None:
        return service
    from repro.service import get_default_service

    return get_default_service()


def compile(
    spec: Optional[GemmSpec] = None,
    *,
    arch: ArchSpec = SW26010PRO,
    shape: Optional[Tuple[int, ...]] = None,
    options: Optional[CompilerOptions] = None,
    service=None,
    timeout: Optional[float] = None,
    **option_overrides,
) -> CompiledProgram:
    """Compile one GEMM spec to an admission-verified program.

    ``shape`` — ``(M, N, K)`` or ``(M, N, K, batch)`` — is optional: the
    generated code is parametric in the problem size (§8.5), but a shape
    lets the service steer the request to a tuned configuration when its
    shape class has a :class:`~repro.tune.records.TuningRecord`.
    """
    spec = spec or GemmSpec()
    opts = _coerce_options(options, option_overrides)
    return _service(service).get_program(
        spec, arch, opts, timeout_s=timeout, shape_hint=shape
    )


def run(
    program_or_spec: Union[CompiledProgram, GemmSpec, None],
    a: np.ndarray,
    b: np.ndarray,
    *,
    c: Optional[np.ndarray] = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    guarded: bool = False,
    arch: ArchSpec = SW26010PRO,
    service=None,
    **option_overrides,
) -> GemmResult:
    """Execute a GEMM on the simulated core group.

    Accepts a compiled program, or a spec (compiled on the fly through
    the service, with the operands' shape as the tuning hint).
    ``guarded=True`` cross-checks every DMA/RMA/SPM event against the
    program's admission certificate.
    """
    if isinstance(program_or_spec, CompiledProgram):
        if option_overrides:
            raise ConfigurationError(
                "compiler options cannot be applied to an already-compiled "
                "program; pass them to api.compile() instead"
            )
        program = program_or_spec
    else:
        spec = program_or_spec or GemmSpec()
        M, K = (a.shape[-1], a.shape[-2]) if spec.trans_a else a.shape[-2:]
        N = b.shape[-2] if spec.trans_b else b.shape[-1]
        batch = a.shape[0] if spec.is_batched and a.ndim == 3 else 1
        program = compile(
            spec,
            arch=arch,
            shape=(M, N, K, batch),
            service=service,
            **option_overrides,
        )
    out, report = _run_gemm(
        program, a, b, c, alpha=alpha, beta=beta, guarded=guarded
    )
    return GemmResult(c=out, report=report)


def tune(
    spec: Optional[GemmSpec] = None,
    *,
    shape: Tuple[int, ...] = (4096, 4096, 4096),
    arch: ArchSpec = SW26010PRO,
    seed: int = 0,
    budget: int = 20,
    options: Optional[CompilerOptions] = None,
    service=None,
    full_result: bool = False,
    **option_overrides,
):
    """Search the tile/pipeline space for one shape class.

    Returns the winning :class:`~repro.tune.records.TuningRecord`
    (or the full :class:`~repro.tune.driver.TuneResult` with
    ``full_result=True``).  A whole-space search persists it: later
    default :func:`compile` calls carrying a ``shape`` in the same class
    are steered to the winner.  A search from reduced options (naive
    kernel, ``schedule="off"``, RMA off) is not persisted.
    """
    from repro.tune import TuneOptions, Tuner

    if len(shape) == 3:
        M, N, K = shape
        batch = 1
    elif len(shape) == 4:
        M, N, K, batch = shape
    else:
        raise ConfigurationError(
            f"shape must be (M, N, K) or (M, N, K, batch), got {shape!r}"
        )
    base = _coerce_options(
        options or CompilerOptions.full(), option_overrides
    )
    tuner = Tuner(arch, service=_service(service))
    result = tuner.tune(
        spec,
        M=M,
        N=N,
        K=K,
        batch=batch,
        base_options=base,
        tune_options=TuneOptions(seed=seed, max_measurements=budget),
    )
    return result if full_result else result.record


def verify(program: CompiledProgram):
    """Run the static admission verifier; returns the per-check report."""
    from repro.verify import verify_program

    return verify_program(program)


# ---------------------------------------------------------------------------
# The serving client (``swgemm serve`` daemon)
# ---------------------------------------------------------------------------

from repro.serve.client import Client  # noqa: E402  (re-export)


def connect(
    address: Union[str, Tuple[str, int]],
    tenant: str = "default",
    timeout: Optional[float] = 30.0,
    **client_kw: object,
) -> Client:
    """Connect to a running ``swgemm serve`` daemon.

    ``address`` is a unix-socket path or a ``(host, port)`` pair.  The
    returned :class:`~repro.serve.client.Client` speaks the same verbs
    as this module (``compile``/``run``/``tune``/``verify``) plus the
    daemon-side ``ping``/``stats``/``health``/``warmup``/``shutdown``,
    with kernel descriptors as plain dicts::

        with api.connect(("127.0.0.1", 7070), tenant="ci") as client:
            client.compile({"arch": "toy", "fusion": "epilogue",
                            "epilogue_func": "sigmoid"})

    Remaining keyword arguments reach the client unchanged — notably
    the overload knobs ``deadline_ms`` (an end-to-end budget stamped on
    every request) and ``overload_retries`` /
    ``overload_retry_budget_s`` (wait out daemon overload and brownout
    rejections, sleeping the server's ``retry_after_s`` hint).
    """
    return Client(address, tenant=tenant, timeout=timeout, **client_kw)
