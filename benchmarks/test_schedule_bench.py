"""Schedule rewrite stack — ``--schedule=optimize`` vs the §6 recipe.

PR 10 made the per-CPE DMA/RMA/compute timeline a first-class,
rewritable IR: ``optimize`` mode runs three composable rewrites (split
waits, issue reordering, transfer merging), each admitted only after a
replay on the verifier's ``ScheduleMachine`` plus an SPM re-check.  This bench sweeps aligned and ragged shapes, re-replays every
optimized program, and commits the result as ``BENCH_schedule.json``.
The acceptance bar it enforces:

* the stack beats the recipe on >= 2 ragged shapes,
* it is never worse than 1% on aligned shapes,
* zero ScheduleMachine violations across the sweep,
* every ragged shape's pipeline bubble actually shrinks (the CI
  ``schedule`` job's bubble-reduction floor).
"""

import json

import pytest

from repro.bench.harness import (
    SCHEDULE_SWEEP_CASES,
    repo_root,
    schedule_bench_payload,
    schedule_sweep,
    write_bench_file,
)
from repro.bench.report import print_figure

#: Minimum absolute bubble-fraction shrink per ragged shape.  The
#: measured reductions sit at 5e-4..6e-3; the floor catches a rewrite
#: stack that silently stopped doing anything without flaking on
#: cost-model noise.
BUBBLE_REDUCTION_FLOOR = 2e-4


@pytest.fixture(scope="module")
def result():
    return schedule_sweep()


def test_sweep_covers_all_cases(result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_figure(
        result,
        ["case", "tile", "recipe_gflops", "optimize_gflops", "ratio",
         "bubble_reduction"],
    )
    assert len(result.rows) == len(SCHEDULE_SWEEP_CASES)
    assert any(r["ragged"] for r in result.rows)
    assert any(not r["ragged"] for r in result.rows)


def test_optimize_beats_recipe_on_ragged_shapes(result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert result.aggregate["ragged_improved"] >= 2.0, result.aggregate


def test_aligned_shapes_never_regress_past_one_percent(result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert result.aggregate["min_aligned_ratio"] >= 0.99, result.aggregate


def test_zero_schedule_machine_violations(result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert result.aggregate["total_machine_violations"] == 0.0


def test_ragged_bubble_reduction_floor(result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert (
        result.aggregate["min_ragged_bubble_reduction"]
        >= BUBBLE_REDUCTION_FLOOR
    ), result.aggregate


def test_snapshot_written_to_repo_root(result, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    payload = schedule_bench_payload(result)
    path = write_bench_file("BENCH_schedule.json", payload)
    assert path.parent == repo_root()
    reread = json.loads(path.read_text())
    assert reread["figure"] == "schedule"
    assert len(reread["rows"]) == len(result.rows)
    assert reread["aggregate"]["total_machine_violations"] == 0.0
