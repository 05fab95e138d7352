"""The compile-grid key space and the C sources each key starts from.

A grid point is ``(arch, backend, schedule, variant, tile)``.  Every
point is compiled from C source, so the frontend is on the measured
path.  ``grid_accepted.json`` lists the points the compiler accepted
when the benchmark was defined; the workload draws only from that list,
so a later refusal shows up as a failure instead of shrinking the grid.

Each accepted point carries its compile time: the median of three
compiles, scaled to nominal host speed (``common.Yardstick``), so the
compile-cost bins the workload draws from rank keys by their cost and
not by the host's speed at the moment each was compiled.

Regenerate the list (it compiles every point three times, about ten
minutes) with::

    python3 -m perfbench.grid
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.common import ROOT, YARDSTICK

ARCHS = ("sw26010pro", "sw26010", "toy", "sw26010pro-hbm", "sw26010pro-lite")
BACKENDS = ("vendor", "parametric")
SCHEDULES = ("recipe", "optimize", "off")
VARIANTS = ("plain", "batched", "prologue", "epilogue", "no-rma", "transposed")
#: ``default`` is the arch's micro-kernel contract; the others halve one
#: tile dimension of it.
TILES = ("default", "half-k", "half-mn")

ACCEPTED_FILE = Path(__file__).with_name("grid_accepted.json")
#: Compiles per accepted point; the recorded time is their median.
PROBES = 3

_GEMM = """\
void gemm(int M, int N, int K, double alpha,
          double A[M][K], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
}
"""

_BATCHED = """\
void bgemm(int BS, int M, int N, int K, double A[BS][M][K],
           double B[BS][K][N], double C[BS][M][N]) {
  for (int b = 0; b < BS; b++)
    for (int i = 0; i < M; i++)
      for (int j = 0; j < N; j++)
        for (int k = 0; k < K; k++)
          C[b][i][j] += A[b][i][k] * B[b][k][j];
}
"""

_PROLOGUE = """\
void fused(int M, int N, int K, double A[M][K], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int k = 0; k < K; k++)
      A[i][k] = quant(A[i][k]);
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""

_EPILOGUE = """\
void fused(int M, int N, int K, double A[M][K], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] += A[i][k] * B[k][j];
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      C[i][j] = sigmoid(C[i][j]);
}
"""

_TRANSPOSED = """\
void gemm_tn(int M, int N, int K, double A[K][M], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] += A[k][i] * B[k][j];
}
"""

#: C source of each variant (``no-rma`` is the plain source compiled
#: with RMA switched off).
SOURCES: Dict[str, str] = {
    "plain": _GEMM,
    "batched": _BATCHED,
    "prologue": _PROLOGUE,
    "epilogue": _EPILOGUE,
    "no-rma": _GEMM,
    "transposed": _TRANSPOSED,
}

Point = Tuple[str, str, str, str, str]


def tile_for(arch, tile: str):
    """The ``TileConfig`` a tile label names on ``arch`` (None = default)."""
    from repro.core.options import TileConfig

    mk = arch.micro_kernel
    if tile == "default":
        return None
    if tile == "half-k":
        return TileConfig(mk.mt, mk.nt, mk.kt // 2)
    if tile == "half-mn":
        return TileConfig(mk.mt // 2, mk.nt // 2, mk.kt)
    raise ValueError(f"unknown tile label {tile!r}")


def overrides_for(point: Point, arch) -> Dict[str, object]:
    """Compiler option overrides of one point, on top of the options the
    frontend derived from the C source."""
    _, backend, schedule, variant, tile = point
    overrides: Dict[str, object] = {
        "kernel_backend": backend,
        "schedule": schedule,
        "tile_config": tile_for(arch, tile),
    }
    if variant == "no-rma":
        overrides["enable_rma"] = False
    return overrides


def all_points() -> List[Point]:
    return [
        (a, b, s, v, t)
        for a in ARCHS
        for b in BACKENDS
        for s in SCHEDULES
        for v in VARIANTS
        for t in TILES
    ]


def accepted_points() -> List[Tuple[Point, float]]:
    """The committed accepted points, each with its compile time (ms,
    nominal speed) when the list was made: one point per distinct reconciled cache
    key (points that reconcile to an earlier point's key are left out)."""
    data = json.loads(ACCEPTED_FILE.read_text())
    return [(tuple(p), ms) for p, ms in zip(data["points"], data["compile_ms"])]


def _probe(point: Point) -> Tuple[Optional[str], float]:
    """Compile one point: its reconciled cache key (``None`` when the
    compiler refuses it) and the compile time in ms at nominal speed."""
    from repro import api, get_arch
    from repro.errors import SwGemmError
    from repro.frontend import extract_spec
    from repro.service import CompileService, ServiceConfig

    arch = get_arch(point[0])
    try:
        with YARDSTICK.timing() as timing:
            spec, options = extract_spec(SOURCES[point[3]], return_options=True)
            service = CompileService(ServiceConfig(enabled=False))
            program = api.compile(
                spec, arch=arch, options=options, service=service,
                **overrides_for(point, arch),
            )
            program.cpe_source()
            program.mpe_source()
    except SwGemmError:
        return None, 0.0
    return service.reconciled_key(program.spec, arch, program.options), timing.ms


def regenerate() -> Dict[str, object]:
    seen = set()
    points = []
    costs = []
    refused = 0
    for point in all_points():
        key, ms = _probe(point)
        if key is None:
            refused += 1
        elif key not in seen:
            seen.add(key)
            more = [_probe(point)[1] for _ in range(PROBES - 1)]
            points.append(list(point))
            costs.append(round(statistics.median([ms, *more]), 1))
    return {"points": points, "compile_ms": costs, "refused": refused,
            "duplicates": len(all_points()) - refused - len(points)}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    payload = regenerate()
    ACCEPTED_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"{len(payload['points'])} accepted points, "
          f"{payload['refused']} refused, {payload['duplicates']} duplicates")
