"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload compile-grid --seed 1 --seconds 15 --trace 0

Runs one workload from a seed, checks its outputs, and prints every
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full result, with provenance, is also written to
``.perfbench/``; a traced run writes its spans there as Chrome
trace-event JSON.  Exits 1 when an output is wrong or an operation
failed, 2 when the program cannot be imported.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads' load is one process with at most two
# threads, and BLAS worker threads only add scheduling noise at these
# sizes.  Set before NumPy is imported; children inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.common import (  # noqa: E402
    OUT_DIR, YARDSTICK, Failures, Timing, import_program, latency_metrics,
    median, peak_rss_mb, provenance, run_passes,
)
from perfbench.compile_grid import CompileGrid  # noqa: E402
from perfbench.functional_run import FunctionalRun  # noqa: E402
from perfbench.paper_sweep import PaperSweep  # noqa: E402
from perfbench.serve_mixed import ServeMixed  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

WORKLOADS = {w.name: w for w in (CompileGrid, PaperSweep, FunctionalRun, ServeMixed)}

#: Imports and warm-ups per run; set-up time is the median import plus
#: the median warm-up.
SETUPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    sys.path.insert(0, str(ROOT / "src"))
    imports = [_timed(import_program) for _ in range(SETUPS)]
    import_s = median([t.ms / 1e3 for t in imports])
    failures = Failures()
    workload = WORKLOADS[args.workload](args.seed, failures)
    try:
        warmups = [_timed(workload.warm_up) for _ in range(SETUPS)]
        setup_s = import_s + median([t.ms / 1e3 for t in warmups])
        host_setup_s = (median([t.host_ms / 1e3 for t in imports])
                        + median([t.host_ms / 1e3 for t in warmups]))

        tracer = None
        overhead = None
        if args.trace:
            # Half the window untraced, half traced: the ratio of their
            # pass times is the tracing overhead.
            plain = run_passes(workload.run_pass, args.seconds / 2)
            tracer = Tracer()
            layers.install(tracer)
            workload.tracer = tracer
            try:
                passes = run_passes(
                    _traced(workload.run_pass, tracer), args.seconds / 2,
                    first=len(plain),
                )
            finally:
                tracer.restore()
            overhead = (
                median([p.scaled_seconds for p in passes])
                / median([p.scaled_seconds for p in plain]) - 1.0
            )
        else:
            passes = run_passes(workload.run_pass, args.seconds)
        workload.finish()

        rss = peak_rss_mb() + workload.peak_rss_extra_mb()
        e2e = {
            "setup_s": (setup_s, "s", f"median import {import_s:.3f} s + "
                        f"median of {SETUPS} warm-ups, nominal speed"),
            "peak_rss_mb": (rss, "MB", "processes doing the work"),
            **latency_metrics(passes, workload.aliases),
        }
        host_samples = [ms for p in passes for ms in p.host_ms.values()]
        report = {
            "host_setup_s": (host_setup_s, "s", "setup_s in host time"),
            "host_p50_ms": (median(host_samples), "ms", "p50_ms in host time"),
            "host_speed": (
                sum(host_samples) / sum(ms for p in passes
                                        for ms in p.latencies_ms.values()),
                "ratio", "host time over nominal time (above 1: a slow "
                         "host), time-weighted",
            ),
            **workload.report(passes),
        }
        report["error_rate"] = (
            failures.failed / max(1, failures.attempted), "ratio",
            f"{failures.failed}/{failures.attempted}",
        )
        partial = workload.layer_counters(passes)
        if tracer is not None:
            partial = {**layers.from_spans(tracer, len(passes)), **partial}
            partial["trace_overhead_frac"] = overhead
            OUT_DIR.mkdir(exist_ok=True)
            tracer.export_chrome(
                OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            )
    finally:
        workload.close()

    return {
        "provenance": provenance(args.workload, args.seed, workload.archs),
        "passes": len(passes),
        "pass_seconds": [p.seconds for p in passes],
        "pass_items_ms": [p.latencies_ms for p in passes],
        "pass_items_host_ms": [p.host_ms for p in passes],
        "end_to_end": e2e,
        "workload_metrics": report,
        "per_layer": layers.complete(partial),
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures": failures.messages,
    }


def _timed(fn) -> Timing:
    with YARDSTICK.timing() as timing:
        fn()
    return timing


def _traced(run_pass, tracer: Tracer):
    def run(index: int):
        with tracer.span("pass", index=index):
            return run_pass(index)

    return run


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result = measure(args)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result['passes']}")
    sections = ["end_to_end", "workload_metrics"]
    if args.trace:
        sections.append("per_layer")
    for section in sections:
        for name, (value, unit, *note) in result[section].items():
            extra = f"  ({note[0]})" if note else ""
            print(f"  {name:<36} {value:>16.6g} {unit}{extra}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")
    print("  provenance: " + json.dumps(result["provenance"], sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, *_) in chosen.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
