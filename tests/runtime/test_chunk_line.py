"""The chunk-time line of ``PerformanceSimulator.chunk_stats`` against
direct executor runs.

After the §6 peel every k step of a chunk does the same work, so
``chunk_stats`` reads a K of more than five k steps off the line through
the timed chunks at 2 and 3 steps, unless the fault plane is on or the
schedule is ``optimize``.  The line must equal a direct run of the same
chunk up to rounding over a seeded slice of the tuner's search space,
and the cases the line does not cover must stay direct runs, bit for
bit.
"""

from __future__ import annotations

import pytest

from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.faults import FaultPolicy
from repro.runtime.executor import Executor
from repro.runtime.simulator import PerformanceSimulator
from repro.service import CompileService, ServiceConfig
from repro.sunway import all_archs
from repro.sunway.arch import TOY_ARCH
from repro.sunway.mesh import Cluster
from repro.tune.pruner import analyze
from repro.tune.space import SplitMix64, enumerate_candidates

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
#: ``steps`` the line is checked at: the first K it serves, and a later one.
LINE_STEPS = (6, 9)
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


@pytest.fixture(scope="module")
def service():
    return CompileService(ServiceConfig(enabled=False))


def direct_run(sim, K, options, spec):
    """``(chunk seconds, bubble fraction)`` of one executor run of the
    chunk at ``K``, built here rather than through the simulator."""
    program = sim.program_for(options, spec)
    plan = program.plan
    cluster = Cluster(sim.arch, fault_policy=options.fault_policy,
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
    chunk = report.elapsed_seconds - sim.arch.spawn_us * 1e-6
    compute = report.stats.get("compute_seconds", 0.0)
    return chunk, max(0.0, 1.0 - compute / (plan.mesh ** 2 * chunk))


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
def test_line_matches_a_direct_run(arch, kind, options, service):
    spec = SPECS[kind][0]
    sim = PerformanceSimulator(arch, service=service)
    k_step = sim.program_for(options, spec).plan.k_step
    for steps in LINE_STEPS:
        K = steps * k_step
        chunk, bubble = sim.chunk_stats(K, options, spec)
        want_chunk, want_bubble = direct_run(sim, K, options, spec)
        assert chunk == pytest.approx(want_chunk, rel=REL, abs=0)
        assert bubble == pytest.approx(want_bubble, rel=REL, abs=1e-15)


_FAULTS = FaultPolicy(enabled=True, seed=3, dma_fault_rate=0.2,
                      latency_spike_rate=0.2)
#: ``(options, steps)`` of each case the line does not cover.
DIRECT_CASES = {
    "five-steps": (CompilerOptions.full(), 5),
    "fault-plane": (CompilerOptions.full().with_(fault_policy=_FAULTS), 9),
    "optimize": (CompilerOptions.full().with_(schedule="optimize"), 9),
}


@pytest.mark.parametrize("options,steps", DIRECT_CASES.values(),
                         ids=list(DIRECT_CASES))
def test_uncovered_cases_keep_the_direct_run(options, steps, service):
    """Five steps or fewer, an enabled fault plane and the ``optimize``
    schedule time the requested K itself: it is the only chunk cached,
    and its value is the direct run's, bit for bit."""
    sim = PerformanceSimulator(TOY_ARCH, service=service)
    spec = sim._default_spec(options)
    K = steps * sim.program_for(options, spec).plan.k_step
    got = sim.chunk_stats(K, options)
    assert list(sim._chunk_cache) == [(options, spec, K)]
    want = direct_run(sim, K, options, spec)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_optimize_settles_off_the_line(service):
    """Why ``optimize`` keeps the direct run: its chunk time on the toy
    arch settles a step late, so the 2/3-step line misses 6 steps."""
    options = CompilerOptions.full().with_(schedule="optimize")
    sim = PerformanceSimulator(TOY_ARCH, service=service)
    spec = sim._default_spec(options)
    k_step = sim.program_for(options).plan.k_step
    x2, x3, x6 = (direct_run(sim, steps * k_step, options, spec)[0]
                  for steps in (2, 3, 6))
    assert abs(x2 + 4 * (x3 - x2) - x6) > 0.01 * x6
    assert sim.chunk_stats(6 * k_step, options)[0] == x6


def test_further_k_costs_no_executor_run(monkeypatch, service):
    """Once a variant's line is cached, every further K of it is read
    off the line without running the executor."""
    runs = []
    original = Executor.run

    def counting(self, *args, **kwargs):
        runs.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Executor, "run", counting)
    options = CompilerOptions.full()
    sim = PerformanceSimulator(TOY_ARCH, service=service)
    k_step = sim.program_for(options).plan.k_step
    sim.chunk_stats(6 * k_step, options)
    assert len(runs) == 2
    for steps in (7, 12, 40):
        sim.chunk_stats(steps * k_step, options)
    assert len(runs) == 2
    assert sorted(K for _, _, K in sim._chunk_cache) == [
        2 * k_step, 3 * k_step]
