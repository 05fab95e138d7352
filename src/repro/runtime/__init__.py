"""Runtime: executing compiled programs on the simulated core group.

* :mod:`repro.runtime.program` — the :class:`CompiledProgram` container
  (schedule tree + CPE AST + SPM buffer plan + metadata);
* :mod:`repro.runtime.executor` — the interpreter that runs the 64 CPE
  programs, printed as one Python generator function, against the
  simulated cluster, validating numerics *and* communication discipline;
* :mod:`repro.runtime.simulator` — the timed evaluation used by the
  benchmark harness (chunk-level discrete simulation, extrapolated over
  the homogeneous chunk grid);
* :mod:`repro.runtime.analytical` — a closed-form performance model that
  cross-checks the simulator.
"""

from repro.runtime.program import CompiledProgram
from repro.runtime.executor import ExecutionReport, Executor, run_gemm

__all__ = ["CompiledProgram", "Executor", "ExecutionReport", "run_gemm"]
