"""Priority-class request queue with per-tenant fair scheduling.

The daemon classifies every request into one of three priority classes —
``interactive`` ahead of ``batch`` ahead of ``warmup`` — and serves the
classes strictly in that order, so a flood of precompilation traffic can
never delay a user-facing compile (the head-of-line blocking swTVM-style
deep-learning streams are famous for).  *Within* a class the queue is
fair across tenants: each tenant owns a FIFO sub-queue and the class
round-robins over the tenants that currently have work, so one tenant
submitting a thousand requests interleaves 1:1 with a tenant submitting
ten instead of starving it.

Overload protection (all opt-in, see :mod:`repro.serve.overload`):

* **Admission watermarks** — ``caps`` maps each class to the *total*
  queue depth at which its arrivals stop being admitted, ordered
  ``warmup < batch < interactive``: as pressure builds, warmup arrivals
  are refused first, then batch, and interactive traffic owns the full
  depth.  An arrival over its watermark first tries to **shed** one
  queued item from the lowest-priority non-empty class strictly below
  it (the youngest item — the one that would have been served last);
  only when nothing lower-priority is queued is the arrival itself
  rejected with :class:`~repro.errors.OverloadError` carrying a
  ``retry_after_s`` hint from the observed drain rate.

* **Deadline shedding** — ``put(..., deadline_at=...)`` records the
  absolute monotonic deadline; ``get`` silently discards entries whose
  deadline passed *before* handing anything to a worker (the
  ``expired`` counters — an expired request never wastes a worker).

Dropped items (shed or expired) are reported through ``drop_handler``
so the worker pool can fail their futures; the handler must not call
back into the queue.  ``wait_observer`` receives each dequeued item's
queue-wait seconds (after the lock is released) — the brownout
controller's signal.

The queue is a plain thread-safe structure (condition variable, no
asyncio) because it sits between the asyncio protocol front-end and the
blocking compiler worker threads; both sides touch it from their own
execution domain.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import ConfigurationError, DeadlineExceededError, OverloadError
from repro.serve.overload import is_expired

#: The priority classes, highest priority first.  Order is the scheduling
#: policy: a class is only served when every class before it is empty.
PRIORITIES: Tuple[str, ...] = ("interactive", "batch", "warmup")

#: Default class for requests that do not state one.
DEFAULT_PRIORITY = "interactive"

#: Bounds of the ``retry_after_s`` hint (seconds).
RETRY_AFTER_MIN_S = 0.05
RETRY_AFTER_MAX_S = 30.0
#: Hint used before any drain rate has been observed.
RETRY_AFTER_DEFAULT_S = 1.0


def check_priority(priority: str) -> str:
    if priority not in PRIORITIES:
        raise ConfigurationError(
            f"unknown priority class {priority!r}; expected one of {PRIORITIES}"
        )
    return priority


@dataclass
class _Entry:
    """One queued item plus its admission-time bookkeeping."""

    item: object
    enqueued_at: float
    deadline_at: Optional[float] = None


class FairPriorityQueue:
    """Strict-priority, tenant-fair FIFO queue with optional bounds.

    ``put`` never blocks; ``get`` blocks until an item is available, the
    optional timeout expires (returns ``None``) or the queue is closed
    *and* drained (returns ``None``).  Closing wakes every waiter: items
    already queued are still handed out — that is the graceful-drain
    contract — but further ``put`` calls are refused.

    With ``caps`` (per-class admission watermarks over the total depth)
    ``put`` may also shed queued lower-priority work or raise
    :class:`~repro.errors.OverloadError`; without them (the default) it
    admits unconditionally, exactly the historical behaviour.
    """

    def __init__(
        self,
        caps: Optional[Dict[str, int]] = None,
        clock: Callable[[], float] = time.monotonic,
        drain_alpha: float = 0.2,
    ) -> None:
        if caps is not None:
            unknown = set(caps) - set(PRIORITIES)
            if unknown:
                raise ConfigurationError(
                    f"unknown priority class(es) in caps: {sorted(unknown)}"
                )
            for name, cap in caps.items():
                if cap < 1:
                    raise ConfigurationError(
                        f"queue cap for {name!r} must be >= 1, got {cap}"
                    )
        self._cond = threading.Condition()
        self._clock = clock
        self.caps = dict(caps) if caps is not None else None
        #: per class: tenant → FIFO of entries
        self._queues: Dict[str, "OrderedDict[str, Deque[_Entry]]"] = {
            p: OrderedDict() for p in PRIORITIES
        }
        #: per class: round-robin order over tenants that have work
        self._order: Dict[str, Deque[str]] = {p: deque() for p in PRIORITIES}
        self._size = 0
        self._closed = False
        self.enqueued: Dict[str, int] = {p: 0 for p in PRIORITIES}
        self.dequeued: Dict[str, int] = {p: 0 for p in PRIORITIES}
        #: items evicted to make room for a higher-priority arrival
        self.shed: Dict[str, int] = {p: 0 for p in PRIORITIES}
        #: items whose deadline passed while queued (never dispatched)
        self.expired: Dict[str, int] = {p: 0 for p in PRIORITIES}
        #: arrivals refused at admission (nothing lower-priority to shed)
        self.rejected: Dict[str, int] = {p: 0 for p in PRIORITIES}
        self.high_water = 0
        #: Called as ``drop_handler(item, exc)`` for every shed/expired
        #: item, outside scheduling decisions but under the queue lock —
        #: must be cheap and must not call back into the queue.
        self.drop_handler: Optional[Callable[[object, BaseException], None]] = None
        #: Called with each dequeued item's queue-wait seconds (after
        #: the lock is released) — feeds the brownout controller.
        self.wait_observer: Optional[Callable[[float], None]] = None
        #: EWMA of seconds between dequeues — the drain-rate estimate
        #: behind ``retry_after_s``.
        self._drain_alpha = drain_alpha
        self._drain_interval_s: Optional[float] = None
        self._last_dequeue_at: Optional[float] = None

    def __len__(self) -> int:
        with self._cond:
            return self._size

    # -- admission -----------------------------------------------------------

    def retry_after_s(self) -> float:
        """How long a rejected caller should wait before retrying.

        Estimated as (current depth × EWMA seconds-per-dequeue): the
        time the queue needs to drain what is already in it, clamped to
        sane bounds.  Before any dequeue has been observed the default
        hint is returned."""
        with self._cond:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> float:
        if self._drain_interval_s is None:
            return RETRY_AFTER_DEFAULT_S
        estimate = max(1, self._size) * self._drain_interval_s
        return min(RETRY_AFTER_MAX_S, max(RETRY_AFTER_MIN_S, estimate))

    def put(
        self,
        item: object,
        priority: str = DEFAULT_PRIORITY,
        tenant: str = "default",
        deadline_at: Optional[float] = None,
    ) -> None:
        check_priority(priority)
        with self._cond:
            if self._closed:
                raise ConfigurationError(
                    "cannot enqueue on a closed FairPriorityQueue"
                )
            cap = None if self.caps is None else self.caps.get(priority)
            if cap is not None and self._size >= cap:
                # Over this class's watermark: make room by shedding the
                # lowest-priority queued work, or refuse the arrival.
                if not self._shed_below_locked(priority):
                    self.rejected[priority] += 1
                    raise OverloadError(
                        f"queue is over the {priority!r} admission "
                        f"watermark ({self._size} queued >= cap {cap}) and "
                        "no lower-priority work can be shed",
                        retry_after_s=self._retry_after_locked(),
                        priority=priority,
                    )
            tenants = self._queues[priority]
            fifo = tenants.get(tenant)
            if fifo is None:
                fifo = tenants[tenant] = deque()
            if not fifo:
                # Tenant (re)joins the round-robin rotation at the back,
                # behind tenants already waiting their turn.
                self._order[priority].append(tenant)
            fifo.append(
                _Entry(
                    item=item,
                    enqueued_at=self._clock(),
                    deadline_at=deadline_at,
                )
            )
            self._size += 1
            self.enqueued[priority] += 1
            self.high_water = max(self.high_water, self._size)
            self._cond.notify()

    def _shed_below_locked(self, priority: str) -> bool:
        """Evict one queued item of a class strictly below ``priority``.

        Victim selection walks classes lowest-priority-first and, inside
        the chosen class, takes the *youngest* entry (the one that would
        have been served last) — the least-regret eviction.  Returns
        ``True`` when a victim was shed."""
        rank = PRIORITIES.index(priority)
        for victim_class in reversed(PRIORITIES[rank + 1:]):
            tenants = self._queues[victim_class]
            if not tenants:
                continue
            victim_tenant = max(
                tenants, key=lambda t: tenants[t][-1].enqueued_at
            )
            fifo = tenants[victim_tenant]
            entry = fifo.pop()
            if not fifo:
                del tenants[victim_tenant]
                self._order[victim_class].remove(victim_tenant)
            self._size -= 1
            self.shed[victim_class] += 1
            self._drop_locked(
                entry.item,
                OverloadError(
                    f"request shed from the {victim_class!r} queue to admit "
                    f"higher-priority {priority!r} work",
                    retry_after_s=self._retry_after_locked(),
                    priority=victim_class,
                    shed=True,
                ),
            )
            return True
        return False

    def _drop_locked(self, item: object, exc: BaseException) -> None:
        handler = self.drop_handler
        if handler is not None:
            try:
                handler(item, exc)
            except Exception:
                pass  # a broken handler must not poison scheduling

    # -- dequeue -------------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[object]:
        with self._cond:
            while True:
                popped = self._pop_locked()
                if popped is not None:
                    entry, wait_s = popped
                    break
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None
        observer = self.wait_observer
        if observer is not None:
            try:
                observer(wait_s)
            except Exception:
                pass
        return entry.item

    def _pop_locked(self) -> Optional[Tuple[_Entry, float]]:
        now = self._clock()
        for priority in PRIORITIES:
            order = self._order[priority]
            while order:
                tenant = order[0]
                fifo = self._queues[priority][tenant]
                entry = fifo.popleft()
                if fifo:
                    # Fairness: the tenant goes to the back of the rotation
                    # after being served once.
                    order.rotate(-1)
                else:
                    order.popleft()
                    del self._queues[priority][tenant]
                self._size -= 1
                if is_expired(entry.deadline_at, now):
                    # Expired while queued: shed it *before* dispatch so
                    # no worker is ever wasted on a caller that gave up.
                    self.expired[priority] += 1
                    self._drop_locked(
                        entry.item,
                        DeadlineExceededError(
                            "deadline expired after "
                            f"{1e3 * (now - entry.enqueued_at):.0f} ms in "
                            f"the {priority!r} queue; shed before dispatch",
                            phase="queue",
                        ),
                    )
                    continue
                self.dequeued[priority] += 1
                if self._last_dequeue_at is not None:
                    interval = max(0.0, now - self._last_dequeue_at)
                    if self._drain_interval_s is None:
                        self._drain_interval_s = interval
                    else:
                        self._drain_interval_s = (
                            self._drain_alpha * interval
                            + (1.0 - self._drain_alpha)
                            * self._drain_interval_s
                        )
                self._last_dequeue_at = now
                return entry, max(0.0, now - entry.enqueued_at)
        return None

    def close(self) -> None:
        """Refuse further puts; wake every blocked ``get``.

        Items already queued are still served — callers drain until
        ``get`` returns ``None``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- reporting -----------------------------------------------------------

    def _depths_locked(self) -> Dict[str, int]:
        return {
            p: sum(len(q) for q in self._queues[p].values())
            for p in PRIORITIES
        }

    def stats(self) -> Dict[str, object]:
        with self._cond:
            return {
                "size": self._size,
                "high_water": self.high_water,
                "closed": self._closed,
                "caps": dict(self.caps) if self.caps is not None else None,
                "enqueued": dict(self.enqueued),
                "dequeued": dict(self.dequeued),
                "shed": dict(self.shed),
                "expired": dict(self.expired),
                "rejected": dict(self.rejected),
                "retry_after_s": round(self._retry_after_locked(), 3),
                "depths": self._depths_locked(),
            }
