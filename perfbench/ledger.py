"""Cross-BENCH ledger: every (arch, shape, config) point the benchmark
simulates must report the Gflops the committed ``BENCH_*.json``
snapshots report for it.  Read-only: the snapshots are never written.

Configs are named the way the autotuner names candidates
(``64x64x32-d2-s8:rma+hide[:parametric][:sched]``), so sweep rows,
tuner trials and all three snapshots share one key space.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from perfbench.common import ROOT

Key = Tuple[str, str, str]

#: Relative tolerance: the simulator is deterministic, so agreeing
#: numbers agree to the last few bits.
RTOL = 1e-9


def _tile_name(tile: str) -> str:
    return f"{tile.split(' ')[0]}-d2-s8:rma+hide"


def _load(name: str):
    path = ROOT / name
    return json.loads(path.read_text()) if path.exists() else None


def snapshot_points() -> Tuple[Dict[Key, float], List[str]]:
    """Every point the snapshots publish, and the points two snapshots
    publish with different values."""
    points: Dict[Key, float] = {}
    conflicts: List[str] = []

    def add(key: Key, gflops: float, source: str) -> None:
        seen = points.setdefault(key, gflops)
        if abs(seen - gflops) > RTOL * abs(seen):
            conflicts.append(f"{key}: {seen} vs {gflops} ({source})")

    schedule = _load("BENCH_schedule.json")
    if schedule:
        arch = schedule["arch"]
        for row in schedule["rows"]:
            name = _tile_name(row["tile"])
            add((arch, row["shape"], name), row["recipe_gflops"], "schedule")
            add((arch, row["shape"], name + ":sched"), row["optimize_gflops"],
                "schedule")
    multiarch = _load("BENCH_multiarch.json")
    if multiarch:
        for row in multiarch["rows"]:
            if row["arch"] != "sw26010pro":
                continue  # candidate names below assume an RMA arch
            name = _tile_name(row["kernel"])
            if row["backend"] == "parametric":
                name += ":parametric"
            add((row["arch"], row["shape"], name), row["gflops"], "multiarch")
    tune = _load("BENCH_tune.json")
    if tune:
        arch = tune["arch"]
        for row in tune["rows"]:
            add((arch, row["shape"], row["config"]), row["tuned"], "tune")
            add((arch, row["shape"], _tile_name("64x64x32")), row["default"],
                "tune")
    return points, conflicts


def check(observed: Dict[Key, float]) -> Tuple[int, List[str]]:
    """``(points compared, mismatches)`` of ``observed`` against the
    snapshots."""
    points, _ = snapshot_points()
    mismatches: List[str] = []
    shared = [k for k in observed if k in points]
    for key in shared:
        want, got = points[key], observed[key]
        if abs(want - got) > RTOL * abs(want):
            mismatches.append(f"{key}: measured {got}, snapshot {want}")
    return len(shared), mismatches
