"""The executor parks CPEs at the mesh barrier until the last arrival.

``synch()`` is one leaf call.  An arrival that does not open the
barrier parks its CPE: off the run queue and the blocked list, never
polled.  The arrival that opens it moves every parked CPE past the
barrier and queues them, in arrival order, right behind itself.

Before parking, ``synch()`` was an ``arrive`` and a ``barrier`` call,
and a CPE at the barrier was blocked and re-polled after every step
that made progress, like a reply wait.  ``PollingExecutor`` keeps that
scheduler as the oracle, with the run queue of its day, which re-keyed
an entry whose clock a barrier release had moved while it was queued
(as ``test_run_queue.py`` keeps the min-clock scan).  Parking changes
only which CPE runs first among equal clocks after a release.  On a
seeded slice of the tuner's space (every arch, six spec kinds, recipe
and no-hiding points) the elapsed time, every stat and the output must
match the oracle bit for bit, and no key the parking scheduler pops is
stale.
"""

from __future__ import annotations

from heapq import heappop, heapreplace
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.errors import ExecutionError
from repro.poly.astnodes import BinExpr, Block, CommStmt, IfStmt, IntLit, VarRef
from repro.poly.pygen import BLOCKED, DONE, RUN_ON, WAIT, YIELD, Leaf
from repro.runtime.executor import Executor, _Cursor, _RunQueue
from repro.service import CompileService, ServiceConfig
from repro.sunway import all_archs
from repro.sunway.arch import SW26010PRO
from repro.sunway.mesh import Cluster
from repro.tune.pruner import analyze
from repro.tune.space import SplitMix64, enumerate_candidates
from tests.runtime.test_chunk_line import SPECS
from tests.runtime.test_executor_golden import build
from tests.runtime.test_run_queue import keys_are_clocks  # noqa: F401 (fixture)

SEED = 24
N_POINTS = 30
STEPS = (2, 3)


class _RekeyingQueue(_RunQueue):
    """The run queue before parking: a barrier release could move the
    clock of a queued cursor, so a pop re-keys a stale top with the
    current clock and the same ``seq`` (clocks never move back)."""

    def pop(self) -> _Cursor:
        heap = self._heap
        clock, seq, cursor = heap[0]
        while clock < cursor.cpe.clock:
            heapreplace(heap, (cursor.cpe.clock, seq, cursor))
            clock, seq, cursor = heap[0]
        heappop(heap)
        return cursor


class PollingExecutor(Executor):
    """The scheduler before parking: a CPE at the barrier is blocked and
    re-polled like a reply wait."""

    def _comm(self, stmt):
        if stmt.kind == "synch":
            return self._arrive_and_poll()
        return super()._comm(stmt)

    def _schedule(self, cursors: List[_Cursor]) -> None:
        queue = _RekeyingQueue()
        for cursor in cursors:
            queue.push(cursor)
        blocked: List[_Cursor] = []
        while queue:
            cursor = queue.pop()
            before = self._progress
            status = self._resume(cursor)
            if status == BLOCKED:
                blocked.append(cursor)
            elif status != DONE:
                queue.push(cursor)
            if self._progress != before and blocked:
                # Progress may have satisfied someone's wait: re-arm them.
                for waiter in blocked:
                    queue.push(waiter)
                blocked.clear()
        if blocked:
            reasons = "; ".join(
                f"CPE({r},{c}): {why}"
                for (r, c), why in sorted(self._blocked.items())
            )
            raise ExecutionError(
                f"deadlock: {len(blocked)} CPEs blocked with "
                f"no progress — {reasons or 'no reasons recorded'}"
            )

    def _arrive_and_poll(self) -> List[Leaf]:
        """``synch()``: arrive at the barrier, then spin until it opens."""
        mesh_barrier = self.cluster.barrier
        blocked = self._blocked
        #: cursor -> the barrier generation it arrived in
        tokens: Dict[_Cursor, int] = {}

        def arrive(cursor: _Cursor) -> None:
            tokens[cursor] = mesh_barrier.arrive(cursor.cpe)

        def barrier(cursor: _Cursor) -> bool:
            cpe = cursor.cpe
            if not mesh_barrier.passed(tokens[cursor]):
                blocked[(cpe.rid, cpe.cid)] = "synch"
                return True
            blocked.pop((cpe.rid, cpe.cid), None)
            self._progress += 1
            return False

        return [Leaf(arrive, (), RUN_ON), Leaf(barrier, (), WAIT)]


def _draw_points():
    """Seeded ``(arch, spec kind, options)`` points, cycling through the
    archs and spec kinds: feasible recipe and no-hiding candidates of
    the tuner's space, every third searched from the naive kernel."""
    rng = SplitMix64(SEED)
    archs = list(all_archs().values())
    kinds = list(SPECS)
    points = []
    for index in range(N_POINTS):
        arch = archs[index % len(archs)]
        kind = kinds[(index // len(archs)) % len(kinds)]
        spec, fields = SPECS[kind]
        base = CompilerOptions.full().with_(**fields)
        if index % 3 == 2:
            base = base.with_(kernel_backend="naive")
        pool = [c for c in enumerate_candidates(arch, base) if c.schedule is None]
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


def execute(executor_class, program, steps, move_data=False):
    """One chunk at ``K = steps·k_step`` on seeded operands: the executor
    that ran it, its report and the C array."""
    spec, plan = program.spec, program.plan
    params = {spec.m_param: plan.chunk_m, spec.n_param: plan.chunk_n,
              spec.k_param: steps * plan.k_step}
    cluster = Cluster(program.arch)
    rng = np.random.default_rng(SEED)
    lead = (1,) if spec.is_batched else ()
    for name, dims in ((spec.a_name, spec.a_dims()),
                       (spec.b_name, spec.b_dims()),
                       (spec.c_name, spec.c_dims())):
        array = cluster.memory.alloc(name, lead + tuple(params[d] for d in dims))
        if move_data:
            array[...] = rng.standard_normal(array.shape)
    if lead:
        params[spec.batch_param] = 1
    executor = executor_class(program, cluster, move_data=move_data)
    report = executor.run(params)
    return executor, report, cluster.memory[spec.c_name].copy()


def test_points_cover_the_grid():
    """The slice reaches every arch, spec kind and kernel, both
    schedules it covers, and the no-RMA pipeline."""
    assert {arch for arch, _, _ in POINTS} == set(all_archs().values())
    assert {kind for _, kind, _ in POINTS} == set(SPECS)
    assert {o.kernel_backend for _, _, o in POINTS} == {
        "naive", "vendor", "parametric"}
    assert {o.schedule.mode for _, _, o in POINTS} == {"recipe", "off"}
    assert any(not o.enable_rma for _, _, o in POINTS)


@pytest.mark.parametrize(
    "arch,kind,options", POINTS,
    ids=[f"{i}-{a.name}-{k}-{o.variant_name()}" for i, (a, k, o)
         in enumerate(POINTS)],
)
def test_parking_matches_the_polling_scheduler(
    arch, kind, options, service, keys_are_clocks
):
    program = service.get_program(SPECS[kind][0], arch, options)
    runs = [(steps, False) for steps in STEPS] + [(STEPS[0], True)]
    for steps, move_data in runs:
        _, parked, c_parked = execute(Executor, program, steps, move_data)
        _, polled, c_polled = execute(PollingExecutor, program, steps, move_data)
        assert parked.elapsed_seconds == polled.elapsed_seconds, (steps, move_data)
        assert parked.stats == polled.stats, (steps, move_data)
        assert c_parked.tobytes() == c_polled.tobytes(), (steps, move_data)


# -- the release order and the resume count ------------------------------------


class TracingExecutor(Executor):
    """Logs every resume and every ``synch`` arrival."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: ("resume", cpe) and ("synch", generation, cpe, opened) events
        self.log: List[Tuple] = []

    def _resume(self, cursor):
        self.log.append(("resume", _at(cursor)))
        return super()._resume(cursor)

    def _synch(self) -> Leaf:
        synch, mesh_barrier = super()._synch().fn, self.cluster.barrier

        def traced(cursor: _Cursor) -> int:
            generation = mesh_barrier.generation
            signal = synch(cursor)
            opened = mesh_barrier.generation != generation
            self.log.append(("synch", generation, _at(cursor), opened))
            return signal

        return Leaf(traced, (), YIELD)


def _at(cursor: _Cursor) -> Tuple[int, int]:
    return cursor.cpe.rid, cursor.cpe.cid


class TracingPollingExecutor(PollingExecutor, TracingExecutor):
    """The polling scheduler, logging its resumes."""


def _resumes(executor: TracingExecutor) -> int:
    return sum(1 for event in executor.log if event[0] == "resume")


@pytest.mark.parametrize("K,move_data,polled,bound", [
    (512, True, 16162, 5600),    # a functional 512³ run
    (2048, False, 39292, 21000),  # a timing chunk
])
def test_parking_cuts_the_resumes(K, move_data, polled, bound, service):
    """Most resumes of the polling scheduler on a SW26010Pro chunk were
    failed barrier polls.  Resume counts are deterministic."""
    program = service.get_program(GemmSpec(), SW26010PRO, CompilerOptions.full())
    steps = K // program.plan.k_step
    old, _, _ = execute(TracingPollingExecutor, program, steps, move_data)
    new, _, _ = execute(TracingExecutor, program, steps, move_data)
    assert _resumes(old) == polled
    assert _resumes(new) <= bound


def test_release_queues_the_parked_cpes_in_arrival_order():
    """Every CPE executes ``synch`` once per barrier generation, and the
    resumes after the opening one are the opener's and then the parked
    CPEs' in the order they arrived."""
    executor, _, _ = execute(TracingExecutor, build("toy", "plain", "recipe"), 3)
    mesh = [(cpe.rid, cpe.cid) for cpe in executor.cluster.all_cpes()]
    log = executor.log
    arrivals: Dict[int, List[Tuple[int, int]]] = {}
    for event in log:
        if event[0] == "synch":
            _, generation, cpe, opened = event
            arrivals.setdefault(generation, []).append(cpe)
            # Only the last arrival of a generation opens the barrier.
            assert opened == (len(arrivals[generation]) == len(mesh))
    assert len(arrivals) > 1
    for generation, order in arrivals.items():
        assert sorted(order) == mesh, generation
        opener = order[-1]
        # The resume that ran the opening synch, then the next ones.
        at = log.index(("synch", generation, opener, True))
        opening = max(i for i in range(at) if log[i][0] == "resume")
        assert log[opening] == ("resume", opener)
        after = [e[1] for e in log[at + 1:] if e[0] == "resume"][: len(mesh)]
        assert after == [opener] + order[:-1], generation


# -- deadlocks ------------------------------------------------------------------


def _rid_is_0():
    return BinExpr("==", VarRef("Rid"), IntLit(0))


DEADLOCKS = {
    # Row 1 runs to the end; row 0 waits at a barrier that never opens.
    "row0-synch": (
        Block([IfStmt(_rid_is_0(), Block([CommStmt("synch", {})]))]),
        "deadlock: 2 CPEs blocked with no progress — "
        "CPE(0,0): synch; CPE(0,1): synch",
    ),
    # Row 1 also spins on a reply nobody sends.
    "row0-synch-row1-wait": (
        Block([IfStmt(
            _rid_is_0(),
            Block([CommStmt("synch", {})]),
            Block([CommStmt("dma_wait_value",
                            {"reply": "r", "reply_slot": IntLit(0), "value": 1})]),
        )]),
        "deadlock: 4 CPEs blocked with no progress — "
        "CPE(0,0): synch; CPE(0,1): synch; "
        "CPE(1,0): dma_wait_value r#0 >= 1; CPE(1,1): dma_wait_value r#0 >= 1",
    ),
}


@pytest.mark.parametrize("name", sorted(DEADLOCKS))
def test_a_barrier_that_never_opens_is_a_deadlock(name):
    """Parked CPEs are never polled, yet a barrier that cannot open still
    ends the run as a deadlock naming each of them as ``synch``."""
    body, message = DEADLOCKS[name]
    for executor_class in (Executor, PollingExecutor):
        program = build("toy", "plain", "recipe")
        program.cpe_program.body = body
        with pytest.raises(ExecutionError) as err:
            execute(executor_class, program, 1)
        assert str(err.value) == message, executor_class.__name__
