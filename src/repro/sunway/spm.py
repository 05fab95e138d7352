"""Per-CPE scratch-pad memory (SPM).

Each CPE of SW26010Pro manages a 256 KB software-controlled SPM (§2.1).
The compiler's buffer plan (one C tile, 2×-double-buffered A and B tiles
for both the DMA and the RMA level — nine buffers total, §6.3) is
materialised here.  The allocator enforces capacity exactly: a plan that
would not fit on the real hardware raises :class:`SPMOverflowError`, which
is how the analytical tile-size model of §3.1 is validated.

The allocator also tracks an *in-flight* flag per buffer slot: a DMA or
RMA whose reply counter has not been waited on leaves its destination slot
poisoned, and any compute touching a poisoned slot raises
:class:`SynchronizationError`.  This turns the paper's memory-latency-
hiding discipline (Fig. 11) into a machine-checked property.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.errors import HardwareError, SPMOverflowError, SynchronizationError


class ScratchPadMemory:
    """A capacity-checked heap of named tile buffers.

    Buffers may be multi-slot (leading dimension = double-buffer count);
    slots are addressed by an integer index and carry their own in-flight
    state.
    """

    def __init__(self, capacity_bytes: int, owner: str = "") -> None:
        self.capacity_bytes = capacity_bytes
        self.owner = owner
        self._buffers: Dict[str, np.ndarray] = {}
        self._inflight: Dict[Tuple[str, int], str] = {}
        # End-to-end integrity: (buffer, slot) -> (crc32, element count)
        # recorded by the engine that last filled the slot.
        self._checksums: Dict[Tuple[str, int], Tuple[int, int]] = {}
        self._used = 0

    # -- allocation ---------------------------------------------------------

    def alloc(
        self, name: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        if name in self._buffers:
            raise HardwareError(f"SPM buffer {name!r} already allocated ({self.owner})")
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        if self._used + nbytes > self.capacity_bytes:
            raise SPMOverflowError(
                f"SPM overflow on {self.owner or 'CPE'}: buffer {name!r} "
                f"({nbytes} B) exceeds capacity "
                f"({self._used} used of {self.capacity_bytes})"
            )
        buffer = np.zeros(shape, dtype=dtype)
        self._buffers[name] = buffer
        self._used += nbytes
        return buffer

    def free(self, name: str) -> None:
        """Release one buffer, returning its bytes to the allocator.

        Freeing a buffer with an in-flight slot would let an async DMA/RMA
        land into reclaimed (possibly re-allocated) memory, so it raises
        :class:`SynchronizationError` — the same discipline the verifier's
        hazard machine proves statically.
        """
        buffer = self._buffers.get(name)
        if buffer is None:
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
        del self._buffers[name]
        self._used -= buffer.nbytes
        self._checksums = {
            key: value for key, value in self._checksums.items() if key[0] != name
        }

    def free_all(self) -> None:
        self._buffers.clear()
        self._inflight.clear()
        self._checksums.clear()
        self._used = 0

    # -- access -------------------------------------------------------------

    def buffer(self, name: str) -> np.ndarray:
        try:
            return self._buffers[name]
        except KeyError:
            raise HardwareError(
                f"SPM buffer {name!r} not allocated on {self.owner or 'CPE'}"
            ) from None

    def slot(self, name: str, index: int = 0) -> np.ndarray:
        """One slot of a (possibly multi-slot) buffer as a 2-D tile."""
        buf = self.buffer(name)
        if buf.ndim == 2:
            if index != 0:
                raise HardwareError(
                    f"buffer {name!r} is single-slot; got slot index {index}"
                )
            return buf
        if not 0 <= index < buf.shape[0]:
            raise HardwareError(
                f"slot index {index} out of range for buffer {name!r} "
                f"with {buf.shape[0]} slots"
            )
        return buf[index]

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def names(self) -> Iterator[str]:
        return iter(self._buffers)

    @property
    def used_bytes(self) -> int:
        return self._used

    # -- in-flight discipline ------------------------------------------------

    def mark_inflight(self, name: str, index: int, cause: str) -> None:
        self.buffer(name)  # existence check
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
