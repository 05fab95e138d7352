"""The xMath baseline (§8.2).

xMath v2.0 is the vendor's highly tuned, closed-source BLAS library for
SW26010Pro — the paper itself treats it as a black box, measures it, and
*guesses* at its internals (§8.2).  This package substitutes:

* :mod:`repro.xmath.library` — a functionally correct implementation of
  the xMath entry point the paper uses (``dgemm``) and the MPE-side
  epilogue path of the fusion baseline;
* :mod:`repro.xmath.perfmodel` — an empirical performance model encoding
  exactly the behaviours the paper reports: strong on power-of-two K
  (93.53% peak best), custom small-shape tuning that beats the compiler
  on the four leftmost square sizes, heavy degradation on large
  non-power-of-two K (down to 42.25%), no batched entry point (one mesh
  start-up per batch element), and element-wise pre/post processing
  executed on the slow MPE.
"""

from repro.xmath.library import XMathLibrary
from repro.xmath.perfmodel import xmath_efficiency, xmath_gflops, xmath_seconds

__all__ = ["XMathLibrary", "xmath_efficiency", "xmath_gflops", "xmath_seconds"]
