"""Code generation backends.

Two consumers share the AST produced by :mod:`repro.poly.astgen`:

* :mod:`repro.codegen.printer` pretty-prints athread C source — the MPE
  file containing ``main`` and the CPE file with the SPM buffers, DMA/RMA
  calls and the micro-kernel invocation (§7);
* the interpreter in :mod:`repro.runtime.executor` runs the same AST on
  the simulated cluster.

:mod:`repro.codegen.backend` is the kernel-generation layer: a registry
of :class:`~repro.codegen.backend.KernelBackend` implementations (the
vendor §7.2 contract and the parametric register-tiled generator) with
:func:`~repro.codegen.backend.resolve_kernel` as the single selection
entry point.  :mod:`repro.codegen.microkernel` hosts the kernel model
classes the backends build on, and :mod:`repro.codegen.elementwise` the
quantisation/activation functions used by the DL fusion patterns (§7.3).
"""

from repro.codegen.backend import (
    GeneratedMicroKernel,
    KernelBackend,
    ParametricKernelBackend,
    VendorKernelBackend,
    backend_names,
    get_backend,
    register_backend,
    resolve_kernel,
)
from repro.codegen.microkernel import AsmMicroKernel, NaiveKernel

__all__ = [
    "AsmMicroKernel",
    "NaiveKernel",
    "GeneratedMicroKernel",
    "KernelBackend",
    "ParametricKernelBackend",
    "VendorKernelBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_kernel",
]
