"""Model-guided autotuning of the tile/pipeline configuration space.

The paper fixes its kernel at the analytically-optimal 64×64×32 point
(§3.1); this subsystem searches around that point for the shapes where
the single point is *not* optimal — ragged and batched problems whose
zero-padding waste (§8.1) dominates — in two stages:

1. :mod:`repro.tune.space` + :mod:`repro.tune.pruner` — enumerate the
   candidate grid and reject infeasible/obviously-bad points with the
   analytical cost model and the verifier's SPM-budget arithmetic,
   without compiling anything;
2. :mod:`repro.tune.driver` — compile survivors through the
   :class:`~repro.service.CompileService` (admission verifier included)
   and measure them on the cycle-accurate simulator, under a seeded,
   journal-resumable search (exhaustive for small spaces, greedy
   hill-climb with random restarts for large ones).

Winners persist as :class:`~repro.tune.records.TuningRecord`s in the
service's record store, content-addressed by (spec class, arch, search
space version, shape class), and later compiles of the same shape class
are steered straight to the recorded best configuration.
"""

from repro.tune.driver import TuneOptions, TuneResult, Tuner, Trial
from repro.tune.pruner import PrunedCandidate, analyze, predict_gflops, prune
from repro.tune.records import (
    TuningRecord,
    TuningRecordStore,
    record_key,
    shape_bucket,
    shape_class,
    spec_class,
)
from repro.tune.space import (
    SEARCH_SPACE_VERSION,
    Candidate,
    SplitMix64,
    default_candidate,
    enumerate_candidates,
)

__all__ = [
    "SEARCH_SPACE_VERSION",
    "Candidate",
    "SplitMix64",
    "PrunedCandidate",
    "TuneOptions",
    "TuneResult",
    "Tuner",
    "Trial",
    "TuningRecord",
    "TuningRecordStore",
    "analyze",
    "default_candidate",
    "enumerate_candidates",
    "predict_gflops",
    "prune",
    "record_key",
    "shape_bucket",
    "shape_class",
    "spec_class",
]
