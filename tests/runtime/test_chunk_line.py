"""The k-step period of ``PerformanceSimulator.chunk_stats`` against
direct executor runs.

After the §6 peel every k step of a chunk does the same work, so chunk
times taken whole periods of k steps apart lie on a line.
``chunk_stats`` proves the period on the run itself
(:mod:`repro.runtime.period`): a run long enough to show one snapshots
the executor at each k-step boundary, and once a boundary repeats the
one a period earlier, the run finishes whole periods short and every K
of the same residue is read off the line through it.

Over a seeded slice of the tuner's search space, every arch's default
``optimize`` kernel (which the old 2/3-step line missed by up to 6%) and
a few chunks that settle late, the value must equal a direct run of the
requested K up to rounding; every shortened run must be the direct run
of the K it finished at, bit for bit; and the runs the watch leaves
alone (the fault plane, too few steps) must stay direct runs.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import GemmCompiler
from repro.core.options import CompilerOptions, TileConfig
from repro.core.spec import GemmSpec
from repro.errors import ExecutionError
from repro.faults import FaultPolicy
from repro.poly.astnodes import (
    AffRef, BinExpr, Block, BlockOpStmt, ForLoop, IfStmt, IntLit, walk_stmts,
)
from repro.runtime import period
from repro.runtime.executor import Executor
from repro.runtime.simulator import PerformanceSimulator
from repro.service import CompileService, ServiceConfig
from repro.sunway import all_archs, get_arch
from repro.sunway.arch import SW26010PRO, TOY_ARCH
from repro.sunway.mesh import Cluster
from repro.tune.pruner import analyze
from repro.tune.space import Candidate, SplitMix64, enumerate_candidates

#: Spec kinds, each with the option fields that restate the spec.
SPECS = {
    "plain": (GemmSpec(), {}),
    "batched": (GemmSpec(batch_param="BS"), {"batch": True}),
    "prologue": (GemmSpec(prologue_func="quant"),
                 {"fusion": "prologue", "prologue_func": "quant"}),
    "epilogue": (GemmSpec(epilogue_func="sigmoid"),
                 {"fusion": "epilogue", "epilogue_func": "sigmoid"}),
    "trans-a": (GemmSpec(trans_a=True), {}),
    "trans-b": (GemmSpec(trans_b=True), {}),
}
SEED = 20
N_POINTS = 40
#: ``steps`` each point is checked at, in this order on one simulator:
#: the first is watched, the later ones are read off its period or
#: watched again.
PERIOD_STEPS = (6, 9, 16)
REL = 1e-12


def _draw_points():
    """Seeded ``(arch, spec kind, options)`` points, cycling through the
    archs and spec kinds; every fourth point searches from the naive
    kernel, the rest from the full pipeline.  Each is a feasible
    candidate of the tuner's space for its base."""
    rng = SplitMix64(SEED)
    archs = list(all_archs().values())
    kinds = list(SPECS)
    points = []
    for index in range(N_POINTS):
        arch = archs[index % len(archs)]
        kind = kinds[(index // len(archs)) % len(kinds)]
        spec, fields = SPECS[kind]
        base = CompilerOptions.full().with_(**fields)
        if index % 4 == 3:
            base = base.with_(kernel_backend="naive")
        pool = enumerate_candidates(arch, base)
        while True:
            candidate = rng.choice(pool)
            if analyze(spec, arch, base, candidate).feasible:
                break
        points.append((arch, kind, candidate.apply(base)))
    return points


POINTS = _draw_points()

_OPTIMIZE = CompilerOptions.full().with_(schedule="optimize")
_BATCHED = CompilerOptions.full().with_(batch=True)
#: The parametric kernel at paper-sweep's kt/2 tile.
PARAMETRIC_KT16 = CompilerOptions.full().with_(
    kernel_backend="parametric", tile_config=TileConfig(64, 64, 16))


def _hbm_batched(mt: int, nt: int, kt: int) -> CompilerOptions:
    """A batched ``optimize`` candidate of the sw26010pro-hbm space."""
    candidate = Candidate(tile=TileConfig(mt, nt, kt), schedule="optimize",
                          k_strip=8)
    return candidate.apply(_BATCHED)


#: ``id -> (arch, spec kind, options)`` beyond the seeded slice: every
#: arch's default ``optimize`` kernel, two sw26010pro-hbm batched
#: ``optimize`` candidates (128×16×8 repeats every 2 steps, 16×16×8
#: every 4), and the parametric kt/2 kernel, which settles only at
#: boundary 3 (see ``test_late_settling_chunk_waits_for_its_period``).
EXTRA_POINTS = {
    **{f"optimize-{arch.name}": (arch, "plain", _OPTIMIZE)
       for arch in all_archs().values()},
    "hbm-batched-128x16x8": (get_arch("sw26010pro-hbm"), "batched",
                             _hbm_batched(128, 16, 8)),
    "hbm-batched-16x16x8": (get_arch("sw26010pro-hbm"), "batched",
                            _hbm_batched(16, 16, 8)),
    "parametric-64x64x16": (SW26010PRO, "plain", PARAMETRIC_KT16),
}


@pytest.fixture(scope="module")
def service():
    return CompileService(ServiceConfig(enabled=False))


@pytest.fixture
def watched(monkeypatch):
    """``(watch, report, per-CPE clocks)`` of every watched executor run,
    in run order."""
    runs = []
    run = Executor.run

    def recorded(self, *args, **kwargs):
        report = run(self, *args, **kwargs)
        if self.watch is not None:
            clocks = [cpe.clock for cpe in self.cluster.all_cpes()]
            runs.append((self.watch, report, clocks))
        return report

    monkeypatch.setattr(Executor, "run", recorded)
    return runs


def direct_report(program, arch, K, options, spec):
    """The report and the per-CPE clocks of one unwatched executor run of
    the chunk at ``K``, built here rather than through the simulator."""
    plan = program.plan
    cluster = Cluster(arch, fault_policy=options.fault_policy,
                      retry_policy=options.retry_policy)
    params = {spec.m_param: plan.chunk_m, spec.n_param: plan.chunk_n,
              spec.k_param: K}
    lead = (1,) if spec.is_batched else ()
    for name, dims in ((spec.a_name, spec.a_dims()),
                       (spec.b_name, spec.b_dims()),
                       (spec.c_name, spec.c_dims())):
        cluster.memory.alloc(name, lead + tuple(params[d] for d in dims))
    if lead:
        params[spec.batch_param] = 1
    report = Executor(program, cluster, move_data=False).run(params)
    return report, [cpe.clock for cpe in cluster.all_cpes()]


def direct_run(sim, K, options, spec, program=None):
    """``(chunk seconds, bubble fraction)`` of one unwatched executor run
    of the chunk at ``K``."""
    program = program or sim.program_for(options, spec)
    report, _ = direct_report(program, sim.arch, K, options, spec)
    chunk = report.elapsed_seconds - sim.arch.spawn_us * 1e-6
    compute = report.stats.get("compute_seconds", 0.0)
    return chunk, max(0.0, 1.0 - compute / (program.plan.mesh ** 2 * chunk))


def check_against_direct_runs(sim, options, spec, watched, program=None):
    """``chunk_stats`` at each of :data:`PERIOD_STEPS` equals a direct
    run to :data:`REL`, and every watched run that finished short
    reported exactly what a direct run of the K it finished at reports.
    Returns the periods found."""
    program = program or sim.program_for(options, spec)
    k_step = program.plan.k_step
    for steps in PERIOD_STEPS:
        K = steps * k_step
        chunk, bubble = sim.chunk_stats(K, options, spec)
        want_chunk, want_bubble = direct_run(sim, K, options, spec, program)
        assert chunk == pytest.approx(want_chunk, rel=REL, abs=0)
        assert bubble == pytest.approx(want_bubble, rel=REL, abs=1e-15)
    for watch, report, clocks in watched:
        if watch.found is not None and watch.found.steps != watch.steps:
            want, want_clocks = direct_report(
                program, sim.arch, watch.found.steps * k_step, options, spec)
            assert report.elapsed_seconds.hex() == want.elapsed_seconds.hex()
            assert (report.useful_flops, report.padded_flops) == (
                want.useful_flops, want.padded_flops)
            assert report.stats == want.stats
            assert [c.hex() for c in clocks] == [c.hex() for c in want_clocks]
    return [found for found, _, _ in sim._periods.get((options, spec), ())]


def test_points_cover_the_grid():
    """The slice reaches every arch, kernel, schedule and spec kind, and
    the no-RMA pipeline."""
    assert {arch for arch, _, _ in POINTS} == set(all_archs().values())
    assert {kind for _, kind, _ in POINTS} == set(SPECS)
    assert {o.kernel_backend for _, _, o in POINTS} == {
        "naive", "vendor", "parametric"}
    assert {o.schedule.mode for _, _, o in POINTS} == {
        "recipe", "optimize", "off"}
    assert any(not o.enable_rma for _, _, o in POINTS)


@pytest.mark.parametrize(
    "arch,kind,options", POINTS,
    ids=[f"{i}-{a.name}-{k}-{o.variant_name()}" for i, (a, k, o)
         in enumerate(POINTS)],
)
def test_line_matches_a_direct_run(arch, kind, options, service, watched):
    sim = PerformanceSimulator(arch, service=service)
    assert check_against_direct_runs(sim, options, SPECS[kind][0], watched)


@pytest.mark.parametrize("arch,kind,options", EXTRA_POINTS.values(),
                         ids=list(EXTRA_POINTS))
def test_period_matches_a_direct_run(arch, kind, options, service, watched):
    sim = PerformanceSimulator(arch, service=service)
    found = check_against_direct_runs(sim, options, SPECS[kind][0], watched)
    assert found
    if kind == "batched":
        expected = {(128, 16, 8): 2, (16, 16, 8): 4}
        tile = options.tile_config
        assert found[0].period == expected[tile.mt, tile.nt, tile.kt]


_FAULTS = FaultPolicy(enabled=True, seed=3, dma_fault_rate=0.2,
                      latency_spike_rate=0.2)
#: ``(options, steps)`` of each case the watch leaves alone.
DIRECT_CASES = {
    # the toy default repeats its k index every 2 steps: boundaries 1
    # and 3 are the first pair it can compare
    "too-short": (CompilerOptions.full(), 3),
    "fault-plane": (CompilerOptions.full().with_(fault_policy=_FAULTS), 9),
}


@pytest.mark.parametrize("options,steps", DIRECT_CASES.values(),
                         ids=list(DIRECT_CASES))
def test_uncovered_cases_keep_the_direct_run(options, steps, service,
                                             monkeypatch):
    """A run too short to show a period and one under an enabled fault
    plane take no snapshot and time the requested K itself: it is the
    only chunk cached, and its value is the direct run's, bit for bit."""
    snapshots = []
    snapshot = Executor._snapshot

    def counted(self, *args):
        snapshots.append(args)
        return snapshot(self, *args)

    monkeypatch.setattr(Executor, "_snapshot", counted)
    sim = PerformanceSimulator(TOY_ARCH, service=service)
    spec = sim._default_spec(options)
    K = steps * sim.program_for(options, spec).plan.k_step
    got = sim.chunk_stats(K, options)
    assert list(sim._chunk_cache) == [(options, spec, K)]
    assert not sim._periods and not snapshots
    want = direct_run(sim, K, options, spec)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_optimize_settles_off_the_line(service, watched):
    """The toy ``optimize`` chunk settles a step late, so the old line
    through its 2- and 3-step runs misses 6 steps by more than 1%; its
    period gives every K to rounding."""
    options = _OPTIMIZE
    sim = PerformanceSimulator(TOY_ARCH, service=service)
    spec = sim._default_spec(options)
    k_step = sim.program_for(options).plan.k_step
    x2, x3, x6 = (direct_run(sim, steps * k_step, options, spec)[0]
                  for steps in (2, 3, 6))
    assert abs(x2 + 4 * (x3 - x2) - x6) > 0.01 * x6
    assert check_against_direct_runs(sim, options, spec, watched)


def test_late_settling_chunk_waits_for_its_period(service, monkeypatch):
    """The parametric 64×64×16 kernel holds the same discrete state and
    clocks at boundaries 1 and 3, but a pending completion differs by
    more than 1e-7 s, so its period is found only once boundary 3
    recurs."""
    seen = {}
    observe = period.Watch.observe

    def recorded(self, s, snapshot):
        seen[s] = snapshot
        return observe(self, s, snapshot)

    monkeypatch.setattr(period.Watch, "observe", recorded)
    options = PARAMETRIC_KT16
    sim = PerformanceSimulator(SW26010PRO, service=service)
    spec = sim._default_spec(options)
    sim.chunk_stats(16 * sim.program_for(options).plan.k_step, options)
    ((found, _, _),) = sim._periods[(options, spec)]
    assert (found.period, found.boundary) == (2, 5)
    one, three = seen[1], seen[3]
    assert one.order == three.order
    discrete = period.CPEState._fields.index("clock")
    assert [c[:discrete] for c in one.cpes] == [
        c[:discrete] for c in three.cpes]
    assert [c.clock - one.time for c in one.cpes] == [
        c.clock - three.time for c in three.cpes]
    assert not period.same(one, three)
    assert max(
        abs((max(r.time, a.clock) - one.time)
            - (max(q.time, b.clock) - three.time))
        for a, b in zip(one.cpes, three.cpes)
        for r, q in zip(a.records, b.records)
    ) > 1e-7


def _tampered_toy():
    """The toy default with a prefetch guard that fires four steps before
    the end: while four steps or fewer remain, each step first scales
    the C tile (by ``beta``), so those steps take longer."""
    options = CompilerOptions.full()
    program = GemmCompiler(TOY_ARCH, options).compile(GemmSpec())
    body = program.cpe_program.body
    (loop,) = (s for s in walk_stmts(body)
               if isinstance(s, ForLoop) and s.var == "ko")
    scale = next(s for s in walk_stmts(body)
                 if isinstance(s, BlockOpStmt) and s.op == "scale")
    index, guard = next(
        (i, s) for i, s in enumerate(loop.body.body)
        if isinstance(s, IfStmt) and isinstance(s.cond.lhs, AffRef)
        and "K" in s.cond.lhs.aff.variables())
    # (K/k_step − ko − 2 ≥ 0) becomes (K/k_step − ko − 5 ≥ 0)
    assert isinstance(guard.cond, BinExpr) and guard.cond.rhs == IntLit(0)
    early = BinExpr(">=", AffRef(guard.cond.lhs.aff - 3), IntLit(0))
    loop.body.body[index] = IfStmt(early, guard.then, Block([
        copy.deepcopy(scale), IfStmt(guard.cond, copy.deepcopy(guard.then)),
    ]))
    return program, options


def test_a_guard_far_from_the_end_bounds_the_shortening(service, watched):
    """A run may finish only at a K under which every guard it has
    evaluated keeps its side: with the prefetch guard firing four steps
    before the end, a 16-step run may not finish at fewer than 7 steps
    (a rule that assumed one tail step would finish at 4 and miss the
    scaled steps), and its time equals the direct run's."""
    program, options = _tampered_toy()
    loop = period.k_loop(program)
    assert loop is not None and len(loop.guards) == 2
    sim = PerformanceSimulator(TOY_ARCH, service=service)
    sim.program_for = lambda *args, **kwargs: program
    check_against_direct_runs(sim, options, GemmSpec(), watched, program)
    shortened = [w.found for w, _, _ in watched
                 if w.found is not None and w.found.steps != w.steps]
    assert shortened
    assert all(f.lo == f.boundary + 4 and f.steps >= 7 for f in shortened)


def test_further_k_costs_no_executor_run(monkeypatch, service):
    """Once a variant's period is found, every further K it covers is
    read off it without running the executor."""
    runs = []
    run = Executor.run

    def counting(self, *args, **kwargs):
        runs.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Executor, "run", counting)
    options = CompilerOptions.full()
    sim = PerformanceSimulator(TOY_ARCH, service=service)
    spec = sim._default_spec(options)
    k_step = sim.program_for(options).plan.k_step
    sim.chunk_stats(16 * k_step, options)
    assert len(runs) == 1
    ((found, _, _),) = sim._periods[(options, spec)]
    covered = [steps for steps in range(found.lo, 41) if found.covers(steps)]
    assert len(covered) > 10
    for steps in covered:
        sim.chunk_stats(steps * k_step, options)
    assert len(runs) == 1
    assert list(sim._chunk_cache) == [(options, spec, 16 * k_step)]


def test_a_watch_needs_one_timing_only_chunk(service):
    """A watch shortens only what it can vouch for: a data-moving run,
    or a run of more than one chunk, is refused before its first
    statement."""
    options = CompilerOptions.full()
    program = PerformanceSimulator(TOY_ARCH, service=service).program_for(options)
    plan, spec = program.plan, program.spec
    watch = period.Watch(period.k_loop(program), 6)
    params = {spec.m_param: plan.chunk_m, spec.n_param: plan.chunk_n,
              spec.k_param: 6 * plan.k_step}
    for move_data, M in ((True, plan.chunk_m), (False, 2 * plan.chunk_m)):
        cluster = Cluster(TOY_ARCH)
        shape = dict(params, **{spec.m_param: M})
        for name, dims in ((spec.a_name, spec.a_dims()),
                           (spec.b_name, spec.b_dims()),
                           (spec.c_name, spec.c_dims())):
            cluster.memory.alloc(name, tuple(shape[d] for d in dims))
        executor = Executor(program, cluster, move_data=move_data, watch=watch)
        with pytest.raises(ExecutionError, match="a k-step watch needs"):
            executor.run(shape)
