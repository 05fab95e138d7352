"""Per-CPE scratch-pad memory (SPM).

Each CPE of SW26010Pro manages a 256 KB software-controlled SPM (§2.1).
The compiler's buffer plan (one C tile, 2×-double-buffered A and B tiles
for both the DMA and the RMA level — nine buffers total, §6.3) is
materialised here.  The allocator enforces capacity exactly: a plan that
would not fit on the real hardware raises :class:`SPMOverflowError`, which
is how the analytical tile-size model of §3.1 is validated.

:meth:`ScratchPadMemory.alloc` records a :class:`BufferPlan` — shape,
dtype, slot count, slot size and element width — and nothing more.  A
buffer's NumPy array exists only once data is touched
(:meth:`~ScratchPadMemory.buffer`, :meth:`~ScratchPadMemory.slot`), so a
timing-only run, which moves no data, holds none: the engines and the
executor check slot indices, transfer sizes and element widths against
the plan (:meth:`~ScratchPadMemory.tile`) and take a tile view only to
copy or compute.

The allocator also tracks an *in-flight* flag per buffer slot: a DMA or
RMA whose reply counter has not been waited on leaves its destination slot
poisoned, and any compute touching a poisoned slot raises
:class:`SynchronizationError`.  This turns the paper's memory-latency-
hiding discipline (Fig. 11) into a machine-checked property.
"""

from __future__ import annotations

from math import prod
from typing import Dict, NamedTuple, Tuple

import numpy as np

from repro.errors import HardwareError, SPMOverflowError, SynchronizationError


class BufferPlan(NamedTuple):
    """One SPM buffer as :meth:`ScratchPadMemory.alloc` reserved it."""

    shape: Tuple[int, ...]
    dtype: np.dtype
    #: a 2-D buffer is one tile (slot 0); any other is addressed by its
    #: leading dimension, one slot per index
    single: bool
    slots: int
    #: elements of one slot: the most a transfer into it may move
    slot_elems: int
    itemsize: int
    nbytes: int

    @classmethod
    def of(cls, shape: Tuple[int, ...], dtype) -> "BufferPlan":
        dtype = np.dtype(dtype)
        single = len(shape) == 2
        count = prod(shape)
        return cls(
            shape=shape,
            dtype=dtype,
            single=single,
            slots=1 if single else (shape[0] if shape else 0),
            slot_elems=count if single else prod(shape[1:]),
            itemsize=dtype.itemsize,
            nbytes=count * dtype.itemsize,
        )


class ScratchPadMemory:
    """A capacity-checked heap of named tile buffers.

    Buffers may be multi-slot (leading dimension = double-buffer count);
    slots are addressed by an integer index and carry their own in-flight
    state.
    """

    def __init__(self, capacity_bytes: int, owner: str = "") -> None:
        self.capacity_bytes = capacity_bytes
        self.owner = owner
        self._plans: Dict[str, BufferPlan] = {}
        #: the arrays of the buffers whose data has been touched
        self._arrays: Dict[str, np.ndarray] = {}
        self._inflight: Dict[Tuple[str, int], str] = {}
        # End-to-end integrity: (buffer, slot) -> (crc32, element count)
        # recorded by the engine that last filled the slot.
        self._checksums: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self._used = 0

    # -- allocation ---------------------------------------------------------

    def alloc(
        self, name: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> BufferPlan:
        """Reserve buffer ``name`` and return its plan; its zero-filled
        array is created when :meth:`buffer` first touches it."""
        if name in self._plans:
            raise HardwareError(f"SPM buffer {name!r} already allocated ({self.owner})")
        plan = BufferPlan.of(shape, dtype)
        if self._used + plan.nbytes > self.capacity_bytes:
            raise SPMOverflowError(
                f"SPM overflow on {self.owner or 'CPE'}: buffer {name!r} "
                f"({plan.nbytes} B) exceeds capacity "
                f"({self._used} used of {self.capacity_bytes})"
            )
        self._plans[name] = plan
        self._used += plan.nbytes
        return plan

    def free(self, name: str) -> None:
        """Release one buffer, returning its bytes to the allocator.

        Freeing a buffer with an in-flight slot would let an async DMA/RMA
        land into reclaimed (possibly re-allocated) memory, so it raises
        :class:`SynchronizationError` — the same discipline the verifier's
        hazard machine proves statically.
        """
        plan = self._plans.get(name)
        if plan is None:
            raise HardwareError(
                f"cannot free SPM buffer {name!r}: not allocated "
                f"on {self.owner or 'CPE'}"
            )
        pending = sorted(slot for (n, slot) in self._inflight if n == name)
        if pending:
            causes = {self._inflight[(name, s)] for s in pending}
            raise SynchronizationError(
                f"{self.owner or 'CPE'} freed SPM buffer {name!r} while "
                f"slot(s) {pending} are still in flight "
                f"({', '.join(sorted(causes))})"
            )
        del self._plans[name]
        self._arrays.pop(name, None)
        self._used -= plan.nbytes
        self._checksums = {
            key: value for key, value in self._checksums.items() if key[0] != name
        }

    def free_all(self) -> None:
        self._plans.clear()
        self._arrays.clear()
        self._inflight.clear()
        self._checksums.clear()
        self._used = 0

    # -- access -------------------------------------------------------------

    def plan(self, name: str) -> BufferPlan:
        try:
            return self._plans[name]
        except KeyError:
            raise HardwareError(
                f"SPM buffer {name!r} not allocated on {self.owner or 'CPE'}"
            ) from None

    def buffer(self, name: str) -> np.ndarray:
        """The whole buffer's array, created zero-filled on first touch."""
        array = self._arrays.get(name)
        if array is None:
            plan = self.plan(name)
            array = self._arrays[name] = np.zeros(plan.shape, dtype=plan.dtype)
        return array

    def tile(self, name: str, index: int = 0) -> BufferPlan:
        """The plan of ``name`` once ``index`` is checked to be one of its
        slots: the checks :meth:`slot` makes, in its order and with its
        errors, without touching data."""
        plan = self._plans.get(name) or self.plan(name)
        if plan.single:
            if index != 0:
                raise HardwareError(
                    f"buffer {name!r} is single-slot; got slot index {index}"
                )
        elif not 0 <= index < plan.slots:
            raise HardwareError(
                f"slot index {index} out of range for buffer {name!r} "
                f"with {plan.slots} slots"
            )
        elif type(index) is not int:
            # NumPy decides what any other index selects, or raises.
            self.buffer(name)[index]
        return plan

    def slot(self, name: str, index: int = 0) -> np.ndarray:
        """One slot of a (possibly multi-slot) buffer as a 2-D tile."""
        plan = self.tile(name, index)
        array = self.buffer(name)
        return array if plan.single else array[index]

    def __contains__(self, name: str) -> bool:
        return name in self._plans

    @property
    def used_bytes(self) -> int:
        return self._used

    # -- in-flight discipline ------------------------------------------------

    def mark_inflight(self, name: str, index: int, cause: str) -> None:
        if name not in self._plans:
            self.plan(name)  # raises: not allocated
        self._inflight[(name, index)] = cause

    def clear_inflight(self, name: str, index: int) -> None:
        self._inflight.pop((name, index), None)

    def check_readable(self, name: str, index: int) -> None:
        cause = self._inflight.get((name, index))
        if cause is not None:
            raise SynchronizationError(
                f"{self.owner or 'CPE'} read SPM buffer {name!r} slot {index} "
                f"while a transfer is still in flight ({cause}); a "
                f"dma_wait_value/rma_wait_value is missing in the schedule"
            )

    def inflight_slots(self) -> Dict[Tuple[str, int], str]:
        return dict(self._inflight)

    # -- end-to-end tile checksums -------------------------------------------

    def record_checksum(self, name: str, index: int, crc: int, elems: int) -> None:
        """Remember the integrity checksum of the data that filled a slot."""
        self._checksums[(name, index)] = (crc, elems)

    def verify_checksum(self, name: str, index: int, size: int) -> None:
        """Re-verify a slot against its recorded checksum before the data
        leaves the SPM again (the DMA→RMA hop of the §6 pipeline).

        Only slots whose recorded element count matches ``size`` are
        checked — a slot reused at a different granularity simply has no
        applicable record.  A mismatch means the SPM content rotted
        between the fill and the re-send: raise instead of broadcasting
        garbage across the mesh.
        """
        from repro.errors import DataIntegrityError
        from repro.faults import tile_checksum

        record = self._checksums.get((name, index))
        if record is None or record[1] != size:
            return
        actual = tile_checksum(self.slot(name, index).reshape(-1)[:size])
        if actual != record[0]:
            raise DataIntegrityError(
                f"{self.owner or 'CPE'} SPM buffer {name!r} slot {index} "
                f"failed its integrity check before an RMA re-send: "
                f"crc {actual:#010x} != recorded {record[0]:#010x} over "
                f"{size} elements"
            )
