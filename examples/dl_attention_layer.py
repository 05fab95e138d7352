#!/usr/bin/env python3
"""A DL workload: batched projection GEMMs with fused element-wise ops.

The paper motivates batched GEMM and the fusion patterns with deep
learning (§1, §3, §7.3).  This example models one transformer-style
block's matrix work on a single SW26010Pro core group:

* the Q/K/V projections as a **batched GEMM** (one mesh launch for the
  whole batch, §8.3);
* a weight matrix with a **fused quantisation prologue** (Fig. 12a);
* an output projection with a **fused activation epilogue** (Fig. 12b);

and cross-checks every result against NumPy while comparing the
simulated time with the xMath-based alternative.

Run:  python examples/dl_attention_layer.py
"""

import numpy as np

from repro import CompilerOptions, GemmSpec, SW26010PRO, api
from repro.codegen.elementwise import get_elementwise
from repro.xmath.library import XMathLibrary

SEQ, MODEL = 512, 512  # padded to the 512-multiple the mesh wants
HEADS = 4


def batched_projections(rng) -> float:
    """Q/K/V/O projections for every head as one batched launch."""
    program = api.compile(GemmSpec(batch_param="BS"), batch=True)
    X = rng.standard_normal((HEADS, SEQ, MODEL)) * 0.1
    W = rng.standard_normal((HEADS, MODEL, MODEL)) * 0.1
    out, report = api.run(program, X, W, beta=0.0)
    assert np.allclose(out, np.einsum("bik,bkj->bij", X, W), atol=1e-10)
    print(f"batched projections ({HEADS} heads of {SEQ}x{MODEL}x{MODEL}):")
    print(f"  functional run: {report.elapsed_seconds * 1e3:.3f} ms, "
          f"results verified against NumPy")

    # Headline timing comparison at a production-scale batched shape
    # (fig. 15 territory) via the timed simulator.
    from repro import PerformanceSimulator
    from repro.xmath.perfmodel import xmath_gflops

    sim = PerformanceSimulator(SW26010PRO)
    ours = sim.simulate(
        1024, 1024, 8192, CompilerOptions.full().with_(batch=True), batch=8
    )
    lib_gf = xmath_gflops(1024, 1024, 8192, SW26010PRO, batch=8)
    print(f"  at batch 8 of 1024x1024x8192:")
    print(f"    swgemm (one mesh launch) : {ours.gflops:7.1f} Gflops")
    print(f"    xMath  (looped calls)    : {lib_gf:7.1f} Gflops "
          f"({ours.gflops / lib_gf:.2f}x slower)")
    return report.elapsed_seconds


def quantised_weights(rng) -> None:
    """W is quantised on the fly while feeding the GEMM (prologue fusion)."""
    program = api.compile(GemmSpec(prologue_func="quant"), fusion="prologue")
    X = rng.standard_normal((SEQ, MODEL)) * 0.1
    W = rng.standard_normal((MODEL, MODEL)) * 0.1
    out, report = api.run(program, X, W, beta=0.0)
    quant = get_elementwise("quant").numpy_fn
    assert np.allclose(out, quant(X) @ W, atol=1e-10)
    print(f"\nfused quantisation prologue: {report.elapsed_seconds * 1e3:8.3f} ms "
          f"({report.gflops:.0f} Gflops)")
    # The fused version never materialises the quantised matrix in main
    # memory — X is untouched:
    assert not np.allclose(X, quant(X))


def activated_output(rng) -> None:
    """The output projection with its activation fused on the CPEs."""
    program = api.compile(
        GemmSpec(epilogue_func="sigmoid"),
        fusion="epilogue", epilogue_func="sigmoid",
    )
    X = rng.standard_normal((SEQ, MODEL)) * 0.1
    W = rng.standard_normal((MODEL, MODEL)) * 0.1
    out, report = api.run(program, X, W, beta=0.0)
    sigmoid = get_elementwise("sigmoid").numpy_fn
    assert np.allclose(out, sigmoid(X @ W), atol=1e-10)

    lib = XMathLibrary(SW26010PRO)
    lib.gemm_with_epilogue(X, W, np.zeros_like(out), "sigmoid", beta=0.0)
    print(f"\nfused activation epilogue  : {report.elapsed_seconds * 1e3:8.3f} ms")
    print(f"xMath + activation on MPE  : {lib.elapsed * 1e3:8.3f} ms "
          f"({lib.elapsed / report.elapsed_seconds:.2f}x slower)")


def main() -> None:
    rng = np.random.default_rng(2022)
    batched_projections(rng)
    quantised_weights(rng)
    activated_output(rng)
    print("\nall results match the NumPy reference.")


if __name__ == "__main__":
    main()
