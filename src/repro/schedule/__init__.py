"""First-class schedule IR for the per-CPE DMA/RMA/compute timeline.

The §6 latency-hiding recipe is one fixed point in a space of legal
pipelines; this package rewrites it into another:

* :mod:`repro.schedule.ir` — the timeline IR (steps, segments, levels);
* :mod:`repro.schedule.extract` — lift the recipe's schedule tree into
  a timeline and write rewritten timelines back;
* :mod:`repro.schedule.passes` — the three rewrites, applied to the
  schedule tree in place.

Selected via ``CompilerOptions.schedule`` / ``--schedule=optimize``,
which runs every registered rewrite in registry order; each rewrite
runs as a ``schedule:<name>`` pipeline pass, so
``swgemm passes list``, ``--print-after`` and the cache identity cover
schedule optimization exactly like every other stage.  The rewrites
propose; the pipeline's terminal ``verify`` pass admits the rewritten
program once, exactly as it admits every other kernel.
"""

from repro.schedule.extract import extract_timeline, materialize
from repro.schedule.ir import (
    ROLE_TO_KIND,
    STEP_KINDS,
    LevelTimeline,
    ScheduleStep,
    Segment,
    Timeline,
)
from repro.schedule.passes import REWRITES, Rewrite, apply_rewrite

__all__ = [
    "ROLE_TO_KIND",
    "STEP_KINDS",
    "LevelTimeline",
    "ScheduleStep",
    "Segment",
    "Timeline",
    "extract_timeline",
    "materialize",
    "REWRITES",
    "Rewrite",
    "apply_rewrite",
]
