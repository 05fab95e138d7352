"""Empirical xMath performance model.

Every rule below encodes an observation the paper states explicitly:

* §8.2: xMath reaches 93.53% of peak at 4096×16384×16384 and "exceeds
  93.00% multiple times when the size of the k dimension is 16384";
* §8.2: it beats the compiler on the four leftmost (small) square
  shapes — "custom optimizations to adapt to these shape configurations",
  e.g. smaller per-CPE tiles that increase the overlap count;
* §8.2: it "sometimes suffers from performance degradation when given
  sizes that are not powers of two": below 1500 Gflops for 7680³, 10240³
  and 15360³, and down to 42.25% for 8192×8192×15360 — nine non-pow2-K
  shapes degrade in Fig. 14;
* §8.3: the batch dimension "cannot be embedded into xMath", so batched
  GEMM pays one mesh start-up + dispatch per batch element;
* §8.4: the fusion baselines run the element-wise prologue/epilogue on
  the MPE.

A small deterministic jitter (hash of the shape) models the run-to-run
spread visible in the paper's bars without introducing randomness.
"""

from __future__ import annotations

import hashlib

from repro.sunway.arch import SW26010PRO, ArchSpec


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _jitter(M: int, N: int, K: int, scale: float) -> float:
    """Deterministic pseudo-noise in [-scale, +scale]."""
    digest = hashlib.sha256(f"{M}x{N}x{K}".encode()).digest()
    unit = int.from_bytes(digest[:4], "little") / 2**32  # [0, 1)
    return (2.0 * unit - 1.0) * scale


#: K values whose non-power-of-two panel path is "not mature" — the
#: shapes the paper names as collapsing (7680³/10240³/15360³ under 1500
#: Gflops, 8192×8192×15360 at 42.25%, nine Fig. 14 degradations).
_IMMATURE_K = frozenset({7680, 10240, 12288, 15360})


def xmath_efficiency(M: int, N: int, K: int) -> float:
    """Fraction of theoretical peak xMath sustains for one DGEMM."""
    if _is_pow2(K):
        if K >= 16384:
            eff = 0.925
        elif K >= 8192:
            eff = 0.845
        elif K >= 2048:
            eff = 0.835
        else:
            eff = 0.805
        # Small squares: the hand-tuned small-shape path (smaller per-CPE
        # tiles buy more pipeline overlaps) keeps efficiency up where the
        # compiler's fixed 64×64×32 kernel loses pipeline depth.
        if M == N == K and K <= 4096:
            eff = max(eff, 0.825)
    else:
        # Non-power-of-two K: the manual optimisations "might not be
        # mature for such data sizes".
        if K == 15360:
            eff = 0.44
        elif K in _IMMATURE_K:
            eff = 0.57
        else:
            eff = 0.78
    if not _is_pow2(M) or not _is_pow2(N):
        eff *= 0.985
    eff += _jitter(M, N, K, 0.015)
    return max(0.05, min(eff, 0.9353))


def xmath_seconds(
    M: int,
    N: int,
    K: int,
    arch: ArchSpec = SW26010PRO,
    batch: int = 1,
) -> float:
    """Wall time of (looped) xMath DGEMM calls.

    Batched workloads pay the per-call dispatch: mesh spawn/join plus the
    MPE-side argument marshalling — §8.3's "multiple startups of the CPE
    mesh ... redundant coarser-grained synchronizations"."""
    per_call = 2.0 * M * N * K / (xmath_efficiency(M, N, K) * arch.peak_gflops * 1e9)
    spawn = arch.spawn_us * 1e-6
    # Every call pays a mesh spawn; repeated calls additionally pay the
    # MPE-side re-dispatch the fused/batched compiler path avoids.
    return batch * (per_call + spawn) + (batch - 1) * XMATH_DISPATCH_US * 1e-6


def xmath_gflops(
    M: int,
    N: int,
    K: int,
    arch: ArchSpec = SW26010PRO,
    batch: int = 1,
) -> float:
    return 2.0 * M * N * K * batch / xmath_seconds(M, N, K, arch, batch) / 1e9


#: MPE-side per-call overhead of *repeated* calls: argument checking,
#: panel setup, mesh re-launch and the "redundant coarser-grained
#: synchronizations" of §8.3 — calibrated against the batched gap of
#: Fig. 15 (xMath 1603 vs 1950 Gflops).
XMATH_DISPATCH_US = 2200.0
