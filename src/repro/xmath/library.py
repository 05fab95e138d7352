"""Functional xMath substitute.

Provides the call surface the paper's baselines use.  Numerics are exact
(NumPy); time comes from :mod:`repro.xmath.perfmodel`.  The epilogue
baseline mirrors §8.4's setup: xMath for the GEMM, the element-wise
epilogue executed on the MPE (whose modelled scalar rate is what makes the
unfused pipeline slow).

The library enforces xMath's interface limitations faithfully:

* there is **no batched entry point**: a batched baseline is one
  :meth:`dgemm` per batch element, each paying per-call dispatch
  (:func:`repro.xmath.perfmodel.xmath_seconds` prices the loop);
* operands must be column-major from Fortran's point of view; this
  wrapper accepts row-major arrays and performs the layout conversion the
  paper describes ("the row-major accesses have been converted into
  column-major required by the Fortran language").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.codegen.elementwise import get_elementwise
from repro.sunway.arch import SW26010PRO, ArchSpec
from repro.xmath.perfmodel import xmath_seconds


@dataclass
class XMathCall:
    """A log entry for one library invocation (tests assert on these)."""

    kind: str
    M: int
    N: int
    K: int
    seconds: float


@dataclass
class XMathLibrary:
    """Simulated xMath v2.0 for one core group."""

    arch: ArchSpec = SW26010PRO
    calls: List[XMathCall] = field(default_factory=list)
    elapsed: float = 0.0

    def reset(self) -> None:
        self.calls.clear()
        self.elapsed = 0.0

    # -- BLAS surface ------------------------------------------------------

    def dgemm(
        self,
        A: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> np.ndarray:
        """``C = α·A·B + β·C`` (row-major in, converted internally)."""
        M, K = A.shape
        K2, N = B.shape
        if K != K2 or C.shape != (M, N):
            raise ValueError(f"dgemm shape mismatch: {A.shape} {B.shape} {C.shape}")
        # Column-major conversion: C^T = α·B^T·A^T + β·C^T — free for the
        # simulation, but it is the call convention the paper describes.
        ct = C.T
        ct[...] = alpha * (B.T @ A.T) + beta * ct
        seconds = xmath_seconds(M, N, K, self.arch)
        self.elapsed += seconds
        self.calls.append(XMathCall("dgemm", M, N, K, seconds))
        return C

    # -- MPE-side element-wise stages of the fusion baselines ------------------

    def mpe_elementwise(self, array: np.ndarray, func: str) -> float:
        """Run an element-wise op on the MPE; returns modelled seconds."""
        fn = get_elementwise(func).numpy_fn
        array[...] = fn(array)
        seconds = array.size / self.arch.mpe_elementwise_rate
        self.elapsed += seconds
        self.calls.append(XMathCall(f"mpe_{func}", array.shape[-2], array.shape[-1], 0, seconds))
        return seconds

    # -- the unfused epilogue baseline of §8.4 -----------------------------------

    def gemm_with_epilogue(
        self,
        A: np.ndarray,
        B: np.ndarray,
        C: np.ndarray,
        func: str = "relu",
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> np.ndarray:
        """Call xMath, then run the activation over C on the MPE."""
        self.dgemm(A, B, C, alpha, beta)
        self.mpe_elementwise(C, func)
        return C
