"""Table rendering for the benchmark harness.

Prints the rows the paper's figures plot, plus a paper-vs-measured
aggregate block — the same content EXPERIMENTS.md records.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.harness import FigureResult

#: The aggregate numbers the paper states in prose, keyed like our
#: harness aggregates.  Used for the side-by-side report.
PAPER_AGGREGATES: Dict[str, Dict[str, float]] = {
    "fig13": {
        "mean_dma-only": 84.89,
        "mean_+asm": 240.39,
        "mean_+rma": 1052.94,
        "mean_+hiding": 1849.06,
        "mean_xmath": 1746.97,
        "speedup_asm_over_baseline": 2.83,
        "speedup_rma_over_asm": 4.38,
        "speedup_hiding_over_rma": 1.76,
        "speedup_total": 23.72,
        "ours_vs_xmath": 1.0962,
        "best_peak_fraction": 0.9014,
        "xmath_wins_small": 4,
    },
    "fig14": {
        "mean_ours": 1911.22,
        "mean_xmath": 1846.96,
        "ours_vs_xmath": 1.0925,
        "ours_on_degraded_vs_xmath": 1.5895,
        "ours_on_pow2_vs_xmath": 0.9268,
        "best_ours_peak": 0.9003,
        "best_xmath_peak": 0.9353,
        "xmath_degradations": 9,
    },
    "fig15": {
        "mean_ours": 1949.92,
        "mean_xmath": 1603.26,
        "ours_vs_xmath": 1.216,
        "best_ours_peak": 0.9043,
    },
    "fig16": {
        "mean_ours_prologue": 1709.81,
        "mean_baseline_prologue": 1436.46,
        "speedup_prologue": 1.26,
        "mean_ours_epilogue": 1818.24,
        "mean_baseline_epilogue": 919.56,
        "speedup_epilogue": 2.11,
        "speedup_combined": 1.67,
        "baseline_wins_prologue": 2,
        "baseline_wins_epilogue": 0,
    },
}


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str],
    floats: str = "{:10.1f}",
) -> str:
    header = "  ".join(f"{c:>17s}" if i == 0 else f"{c:>10s}"
                       for i, c in enumerate(columns))
    lines = [header, "-" * len(header)]
    for row in rows:
        cells: List[str] = []
        for i, column in enumerate(columns):
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(floats.format(value))
            elif i == 0:
                cells.append(f"{str(value):>17s}")
            else:
                cells.append(f"{str(value):>10s}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


def format_aggregates(result: FigureResult) -> str:
    paper = PAPER_AGGREGATES.get(result.figure, {})
    lines = [f"== {result.figure} aggregates (measured vs paper) =="]
    for key, value in result.aggregate.items():
        reference = paper.get(key)
        ref_text = f"{reference:10.3f}" if reference is not None else "       n/a"
        lines.append(f"{key:>32s}: {value:10.3f}   paper: {ref_text}")
    return "\n".join(lines)


def print_figure(result: FigureResult, columns: Sequence[str]) -> None:
    print()
    print(format_table(result.rows, columns))
    print()
    print(format_aggregates(result))
