"""Simulated SW26010Pro core group.

The paper's compiler targets one *cluster* (core group) of the SW26010Pro
processor: a management processing element (MPE), an 8×8 mesh of compute
processing elements (CPEs) each owning a 256 KB software-managed
scratch-pad memory (SPM), a shared DDR4 main memory reached through DMA,
and a remote-memory-access (RMA) fabric that can broadcast SPM tiles along
mesh rows/columns (§2.1, Fig. 1).

Real SW26010Pro hardware is inaccessible, so this subpackage provides a
*functional and timed simulator* with the same programming contract as the
``athread`` runtime the paper generates code for; the executor
(:mod:`repro.runtime.executor`) drives it directly:

* :mod:`repro.sunway.arch` — architecture parameters (SW26010Pro default,
  SW26010 and a down-scaled test preset);
* :mod:`repro.sunway.memory` — the core group's main memory;
* :mod:`repro.sunway.spm` — per-CPE SPM with capacity enforcement, whose
  buffers are plans until data touches them;
* :mod:`repro.sunway.cpe` / :mod:`repro.sunway.mesh` — CPE state (reply
  counters with the ``*_wait_value`` commit) and the 8×8 mesh (cluster)
  with its ``synch()`` barrier;
* :mod:`repro.sunway.dma_engine` — ``dma_iget``/``dma_iput`` with the
  paper's ``size``/``len``/``strip`` semantics and reply counters (§4);
* :mod:`repro.sunway.rma_engine` — the row/column broadcasts with
  ``replys``/``replyr`` semantics (§5).

The simulator deliberately *fails loudly* on discipline violations (SPM
overflow, consuming un-waited DMA data, RMA without ``synch()``), so the
compiler's buffer plan and latency-hiding schedule are validated rather
than trusted.
"""

from repro.sunway.arch import (
    SW26010,
    SW26010PRO,
    SW26010PRO_HBM,
    SW26010PRO_LITE,
    TOY_ARCH,
    ArchSpec,
    MicroKernelShape,
    all_archs,
    arch_names,
    get_arch,
    register_arch,
)
from repro.sunway.mesh import Cluster

__all__ = [
    "ArchSpec",
    "MicroKernelShape",
    "SW26010PRO",
    "SW26010",
    "TOY_ARCH",
    "SW26010PRO_HBM",
    "SW26010PRO_LITE",
    "Cluster",
    "all_archs",
    "arch_names",
    "get_arch",
    "register_arch",
]
