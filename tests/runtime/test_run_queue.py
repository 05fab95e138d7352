"""The executor's run queue resumes CPEs in the order of a min-clock scan.

``Executor._schedule`` once picked the next CPE with a first-minimum scan
over a list, ``min(range(len(runnable)), key=clock)``, popping the pick and
appending every enqueue.  ``_RunQueue`` must pop in exactly that order —
smallest clock first, then the cursor enqueued first.  Random operation
sequences drive the queue beside that list; every pop must agree.  A
queued cursor's clock never moves (the barrier opens only when every CPE
has arrived, so none is queued then), which ``keys_are_clocks`` checks on
every pop of the executor golden corpus and the barrier-parking slice.
Together with that corpus this pins the resume order.
"""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.executor import _Cursor, _RunQueue
from repro.sunway.cpe import CPE

#: Clock steps: few distinct values, so equal clocks are common.
DELTAS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
#: (operation, index, clock step); pushes and requeues weigh more so
#: the queue grows to a few dozen cursors.
OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["push"] * 3 + ["pop-requeue"] * 3 + ["pop-park", "pop-done", "rearm"]
        ),
        st.integers(0, 63),
        DELTAS,
    ),
    min_size=50,
    max_size=300,
)

_pop = _RunQueue.pop


def _checked_pop(queue: _RunQueue) -> _Cursor:
    clock, _, cursor = queue._heap[0]
    assert clock == cursor.cpe.clock, (cursor.cpe, clock, cursor.cpe.clock)
    return _pop(queue)


@pytest.fixture
def keys_are_clocks(monkeypatch):
    """Every key an executor run pops equals its cursor's clock."""
    monkeypatch.setattr(_RunQueue, "pop", _checked_pop)


class ScanQueue:
    """The reference: the list and the scan the heap replaced."""

    def __init__(self) -> None:
        self.items: List[_Cursor] = []

    def push(self, cursor: _Cursor) -> None:
        self.items.append(cursor)

    def pop(self) -> _Cursor:
        items = self.items
        return items.pop(min(range(len(items)), key=lambda n: items[n].cpe.clock))


@settings(max_examples=150, deadline=None)
@given(ops=OPS)
def test_run_queue_pops_like_the_min_clock_scan(ops):
    queue, scan = _RunQueue(), ScanQueue()
    parked: List[_Cursor] = []
    created = 0

    def push(cursor: _Cursor) -> None:
        queue.push(cursor)
        scan.push(cursor)

    def pop() -> _Cursor:
        cursor, expected = queue.pop(), scan.pop()
        assert cursor is expected, (cursor.cpe, cursor.cpe.clock, expected.cpe)
        assert len(queue) == len(scan.items)
        return cursor

    def rearm() -> None:
        for cursor in parked:
            push(cursor)
        parked.clear()

    for op, index, delta in ops:
        if op == "push":
            cpe = CPE(created // 8, created % 8, 0)
            cpe.advance(delta * (index % 3))
            created += 1
            push(_Cursor(cpe, {}))
        elif op.startswith("pop-") and queue:
            # A resume: the popped CPE runs on, then is requeued, blocks
            # (parked until the next re-arm) or finishes.
            cursor = pop()
            cursor.cpe.advance(delta)
            if op == "pop-requeue":
                push(cursor)
            elif op == "pop-park":
                parked.append(cursor)
        elif op == "rearm":
            rearm()
    rearm()
    while queue:
        pop()
    assert not scan.items
