"""Stage 2 of the search: measure survivors, record the winner.

The driver is *seeded and resumable*:

* every source of randomness is the :class:`~repro.tune.space.SplitMix64`
  stream derived from ``TuneOptions.seed`` — same seed, same spec, same
  arch ⇒ same :class:`~repro.tune.records.TuningRecord`, bit for bit;
* every measurement is appended to the record store's journal before the
  next one starts, so an interrupted search picks up where it stopped
  (journal hits cost nothing against the measurement budget).

Only a search over the whole space (asm kernel, latency hiding, RMA
where the arch has it) reads and writes the shared record and journal,
which steer default compiles; a reduced search is not persisted.

Search strategy follows the space size: spaces that fit the measurement
budget are swept exhaustively; larger ones run a greedy hill-climb from
the pruner's best prediction, with seeded random restarts when a climb
hits a local optimum.

Measurements run each candidate through the :class:`CompileService`
(content-addressed cache, single-flight, admission verifier — a config
the verifier rejects never produces a measurement) and time one mesh
pass on the cycle-accurate simulator.  The score is *useful* Gflops: the
caller's ``M·N·K`` flops divided by the time of the zero-padded problem
the mesh actually executes — which is precisely how a smaller chunk wins
on ragged shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.options import CompilerOptions
from repro.core.passes import reconcile_options
from repro.core.spec import GemmSpec, check_shape
from repro.runtime.simulator import PerformanceSimulator
from repro.sunway.arch import SW26010PRO, ArchSpec
from repro.tune.pruner import prune
from repro.tune.records import (
    TuningRecord,
    TuningRecordStore,
    record_key,
    shape_class,
)
from repro.tune.space import (
    SEARCH_SPACE_VERSION,
    Candidate,
    SplitMix64,
    default_candidate,
    enumerate_candidates,
    neighbors,
)


#: Hill-climb restarts after the first climb stalls.
HILL_CLIMB_RESTARTS = 2
#: Neighbours measured per climb step (best-predicted first).
HILL_CLIMB_STEP_WIDTH = 3


@dataclass(frozen=True)
class TuneOptions:
    """Knobs of one search run."""

    #: PRNG seed — the only entropy the driver ever sees.
    seed: int = 0
    #: Simulator-measurement budget (journal hits are free).
    max_measurements: int = 20


@dataclass(frozen=True)
class Trial:
    """One measured candidate."""

    candidate: Candidate
    gflops: float
    from_journal: bool


@dataclass
class TuneResult:
    """Everything one search produced (the record is the useful part)."""

    record: TuningRecord
    trials: List[Trial] = field(default_factory=list)
    candidates_total: int = 0
    pruned: int = 0
    measured: int = 0
    resumed: int = 0
    strategy: str = "exhaustive"
    #: Whether the record went to the store (whole-space searches only).
    persisted: bool = True

    def describe(self) -> Dict[str, object]:
        return {
            **self.record.describe(),
            "strategy": self.strategy,
            "candidates": self.candidates_total,
            "pruned": self.pruned,
            "measured": self.measured,
            "resumed": self.resumed,
        }


class Tuner:
    """Two-stage, model-guided search over the tile/pipeline space."""

    def __init__(
        self,
        arch: ArchSpec = SW26010PRO,
        service: Optional[object] = None,
        store: Optional[TuningRecordStore] = None,
    ) -> None:
        from repro.service import get_default_service

        self.arch = arch
        self.service = service if service is not None else get_default_service()
        if store is None:
            store = getattr(self.service, "tuning_store", None)
        self.store = store if store is not None else TuningRecordStore(None)
        self.simulator = PerformanceSimulator(arch, service=self.service)

    # -- measurement -------------------------------------------------------

    def measure(
        self,
        spec: GemmSpec,
        options: CompilerOptions,
        M: int,
        N: int,
        K: int,
        batch: int = 1,
    ) -> float:
        """Useful Gflops of one config on the (padded) concrete shape."""
        program = self.service.get_program(spec, self.arch, options)
        Mp, Np, Kp = program.padded_shape(M, N, K)
        perf = self.simulator.simulate(
            Mp, Np, Kp, options, batch=batch, spec=spec
        )
        useful_flops = 2.0 * M * N * K * batch
        return useful_flops / perf.seconds / 1e9

    # -- the search --------------------------------------------------------

    def tune(
        self,
        spec: Optional[GemmSpec] = None,
        M: int = 4096,
        N: int = 4096,
        K: int = 4096,
        batch: int = 1,
        base_options: Optional[CompilerOptions] = None,
        tune_options: Optional[TuneOptions] = None,
    ) -> TuneResult:
        check_shape(M, N, K, batch)
        spec = spec or (
            GemmSpec(batch_param="BS") if batch > 1 else GemmSpec()
        )
        opts = tune_options or TuneOptions()
        base = base_options or CompilerOptions.full()
        if spec.is_batched and not base.batch:
            base = base.with_(batch=True)
        base = reconcile_options(spec, base, self.arch)
        if base.tile_config is not None:
            # The base is the *search origin*, not a point pin.
            base = base.with_(tile_config=None)

        shape_cls = shape_class(M, N, K, batch)
        key = record_key(spec, self.arch, shape_cls)
        candidates = enumerate_candidates(self.arch, base)
        survivors, rejected = prune(
            spec, self.arch, base, candidates, shape=(M, N, K)
        )
        default = default_candidate(self.arch, base)
        pool: List[Candidate] = [s.candidate for s in survivors]
        if default.name() not in {c.name() for c in pool}:
            pool.insert(0, default)

        persist = (
            base.use_asm
            and base.latency_hiding
            and base.enable_rma == self.arch.rma_supported
        )
        store = self.store if persist else TuningRecordStore(None)
        journal = store.journal_load(key)
        measured: Dict[str, float] = {}
        trials: List[Trial] = []
        state = {"measured": 0, "resumed": 0}

        def run(candidate: Candidate) -> float:
            name = candidate.name()
            if name in measured:
                return measured[name]
            if name in journal:
                gflops = journal[name]
                state["resumed"] += 1
                from_journal = True
            else:
                gflops = self.measure(
                    spec, candidate.apply(base), M, N, K, batch
                )
                journal[name] = gflops
                store.journal_save(key, journal)
                state["measured"] += 1
                from_journal = False
            measured[name] = gflops
            trials.append(Trial(candidate, gflops, from_journal))
            return gflops

        def budget_left() -> bool:
            return state["measured"] < opts.max_measurements

        # The baseline is always measured (and never counts as a win).
        default_gflops = run(default)

        if len(pool) <= opts.max_measurements:
            strategy = "exhaustive"
            for candidate in pool:
                if not budget_left():
                    break
                run(candidate)
        else:
            strategy = "hill-climb"
            self._hill_climb(pool, run, budget_left, opts)

        best_name = max(
            measured, key=lambda n: (measured[n], n == default.name())
        )
        best = next(c for c in [default] + pool if c.name() == best_name)
        if measured[best_name] <= default_gflops:
            best, best_name = default, default.name()
        record = TuningRecord(
            key=key,
            shape_class=shape_cls,
            arch_name=self.arch.name,
            space_version=SEARCH_SPACE_VERSION,
            candidate=best,
            best_gflops=measured[best_name],
            default_gflops=default_gflops,
            measurements=len(measured),
            seed=opts.seed,
        )
        store.put(record)
        store.journal_clear(key)
        return TuneResult(
            record=record,
            trials=trials,
            candidates_total=len(candidates),
            pruned=len(rejected),
            measured=state["measured"],
            resumed=state["resumed"],
            strategy=strategy,
            persisted=persist,
        )

    def _hill_climb(self, pool, run, budget_left, opts: TuneOptions) -> None:
        """Greedy best-neighbour climb with seeded random restarts."""
        rng = SplitMix64(opts.seed)
        visited = set()
        current = pool[0]  # the pruner's best prediction
        for restart in range(HILL_CLIMB_RESTARTS + 1):
            if restart:
                fresh = [c for c in pool if c.name() not in visited]
                if not fresh or not budget_left():
                    break
                current = fresh[rng.randrange(len(fresh))]
            while budget_left():
                visited.add(current.name())
                current_gflops = run(current)
                steps = [
                    n
                    for n in neighbors(current, pool)
                    if n.name() not in visited
                ][:HILL_CLIMB_STEP_WIDTH]
                if not steps:
                    break
                best_step, best_gflops = None, current_gflops
                for step in steps:
                    if not budget_left():
                        break
                    visited.add(step.name())
                    gflops = run(step)
                    if gflops > best_gflops:
                        best_step, best_gflops = step, gflops
                if best_step is None:
                    break  # local optimum — restart elsewhere
                current = best_step
