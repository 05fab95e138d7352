"""The inline assembly micro kernel (§7.2) and its naive counterpart.

On the real system the kernel is a compiled object written by the Sunway
architects: it moves the SPM tiles through the register file with optimal
register allocation, SIMD intrinsics, unrolling and instruction
scheduling, and its shape — the arch's contract, 64×64×32 on SW26010Pro —
was chosen to maximise SPM utilisation under double buffering.  Neither
the object file nor the ISA is available, so the simulator substitutes:

* :class:`AsmMicroKernel` — numerically a fused
  ``C += α · (A_τ × B_τ)`` over the SPM tiles (NumPy ``matmul``); in time,
  ``flops / (per-CPE peak × kernel efficiency)``.  The call contract —
  fixed shape, SPM operands, accumulate into C — matches the paper's.
* :class:`NaiveKernel` — the ``--no-use-asm`` path: the same mathematics
  at the scalar loop-nest rate swgcc would achieve without the assembly
  kernel (the paper's red baseline bars, ~3.7% of peak).

Both kernels *verify their operand shapes* against the contract: the
compiler may only call the kernel with exactly the tiles it was built
for, which is the property §3's decomposition must establish.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ExecutionError
from repro.sunway.arch import ArchSpec, MicroKernelShape


class _KernelBase:
    def __init__(self, arch: ArchSpec, shape: Optional[MicroKernelShape] = None) -> None:
        self.arch = arch
        self.shape = shape or arch.micro_kernel

    def _check(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        s = self.shape
        if c.shape != (s.mt, s.nt) or a.shape != (s.mt, s.kt) or b.shape != (s.kt, s.nt):
            raise ExecutionError(
                f"{self.name} called with tiles C{c.shape} A{a.shape} "
                f"B{b.shape}; contract is C({s.mt},{s.nt}) A({s.mt},{s.kt}) "
                f"B({s.kt},{s.nt})"
            )

    def execute(self, c: np.ndarray, a: np.ndarray, b: np.ndarray, alpha: float) -> None:
        self._check(c, a, b)
        # The accumulation the register tile performs: C += α·(A×B).
        c += alpha * (a @ b)


class AsmMicroKernel(_KernelBase):
    """The vendor-optimised kernel behind a mark node."""

    precision: str = "d"  # "d" = double, "s" = single

    @property
    def name(self) -> str:
        s = self.shape
        return f"asm_{self.precision}gemm_{s.mt}x{s.nt}x{s.kt}"

    @property
    def seconds_per_call(self) -> float:
        s = self.shape
        return self.arch.kernel_time_s(s.mt, s.nt, s.kt)


class NaiveKernel(_KernelBase):
    """Plain scalar loop code (``--no-use-asm``)."""

    @property
    def name(self) -> str:
        s = self.shape
        return f"naive_dgemm_{s.mt}x{s.nt}x{s.kt}"

    @property
    def seconds_per_call(self) -> float:
        s = self.shape
        return self.arch.naive_time_s(s.mt, s.nt, s.kt)
