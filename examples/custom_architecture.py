#!/usr/bin/env python3
"""Retargeting: the same pipeline on different Sunway-style core groups.

§9 argues the techniques generalise beyond SW26010Pro; this example
compiles and validates the identical GEMM on:

* the default SW26010Pro core group (8×8 mesh, 256 KB SPM, RMA);
* the SW26010 predecessor (64 KB SPM, **no** SPM RMA — the compiler
  falls back to per-CPE DMA, like the manual approaches had to);
* a hypothetical wide-SPM future part, where the analytical tile model
  picks a different micro-kernel shape on its own.

Run:  python examples/custom_architecture.py
"""

import numpy as np

from repro import CompilerOptions, GemmSpec, api
from repro.core.tile_model import search_optimal_shape
from repro.sunway.arch import SW26010, SW26010PRO, ArchSpec, MicroKernelShape


def validate(arch, options, M=None, N=None, K=None) -> None:
    program = api.compile(GemmSpec(), arch=arch, options=options)
    plan = program.plan
    M = M or plan.chunk_m
    N = N or plan.chunk_n
    K = K or plan.k_step * 2
    rng = np.random.default_rng(5)
    A = rng.standard_normal((M, K))
    B = rng.standard_normal((K, N))
    C, report = api.run(program, A, B, beta=0.0)
    error = np.abs(C - A @ B).max()
    print(f"{arch.name:>12s}: tile {plan.mt}x{plan.nt}x{plan.kt}, "
          f"chunk {plan.chunk_m}x{plan.chunk_n}x{plan.k_step}, "
          f"SPM {plan.spm_bytes() // 1024:3d} KB, rma={plan.use_rma}, "
          f"err={error:.1e}, {report.gflops:7.1f} Gflops")
    assert error < 1e-9


def main() -> None:
    print("one compiler, three core groups:\n")

    # The paper's target.
    validate(SW26010PRO, CompilerOptions.full(), M=512, N=512, K=512)

    # The predecessor: no SPM RMA (register communication only on the
    # real chip), 64 KB SPM -> smaller kernel, DMA-only plan.
    validate(
        SW26010,
        CompilerOptions(enable_rma=False),
        M=256, N=256, K=256,
    )

    # A hypothetical next part: 1 MB SPM and a fatter mesh link.  The
    # analytical model (Sec. 3.1) picks the kernel shape by itself.
    future = ArchSpec(
        name="SW-future",
        spm_bytes=1024 * 1024,
        rma_bandwidth_gbs=24.0,
        micro_kernel=MicroKernelShape(64, 64, 32),  # placeholder, see below
    )
    best, _ = search_optimal_shape(future)
    future = future.scaled(micro_kernel=best)
    print(f"\nanalytical model picks {best} for {future.name} "
          f"({future.spm_bytes // 1024} KB SPM)")
    validate(future, CompilerOptions.full(), M=best.mt * 8, N=best.nt * 8,
             K=best.kt * 16)


if __name__ == "__main__":
    main()
