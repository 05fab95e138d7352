"""The RMA engine: SPM-to-SPM communication inside the CPE mesh (§5).

SW26010Pro offers three manners (Fig. 8): point-to-point, row/column-wise
broadcast, and all-broadcast.  The compiler issues only the row
broadcast, for ``A_τ``, and the column broadcast, for ``B_τ``, so this
engine models those two: each input tile is fetched from main memory
exactly once per mesh row/column — the 8× DMA-traffic reduction
responsible for the 4.38× step in the paper's performance breakdown
(§8.1).

Interface semantics follow the athread model::

    rma_row_ibcast(dst, src, size, &replys, &replyr)
    rma_col_ibcast(dst, src, size, &replys, &replyr)

``replys`` increments on the *sender* when the message is out; ``replyr``
increments on every *receiver* (the sender receives its own broadcast too,
so uniform SPMD code can wait for ``replyr >= 1`` everywhere).  The engine
enforces the §5 rule that a ``synch()`` must precede each launch group —
issuing from a CPE whose ``rma_armed`` flag is unset raises
:class:`SynchronizationError`.

Timing: each mesh row and each mesh column owns an independent broadcast
channel (so the simultaneous A-row and B-column broadcasts of §6.1 do not
contend), and a broadcast is a pipelined multicast occupying its channel
for ``startup + bytes/bandwidth`` seconds.  Its bytes are the element
count times the element width of the source SPM buffer's plan (8 B for
DGEMM, 4 B for SGEMM).  With ``move_data`` off the engine checks the
source and destination slots and sizes against the buffers' plans and
copies nothing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import (
    DataIntegrityError,
    InvalidRMAError,
    SynchronizationError,
    TransientFaultError,
)
from repro.faults import FaultInjector, FaultPolicy, RetryPolicy, tile_checksum
from repro.sunway.arch import ArchSpec
from repro.sunway.cpe import CPE, ReplyRecord


class RMAEngine:
    """Row/column broadcast fabric of one CPE mesh."""

    def __init__(
        self,
        arch: ArchSpec,
        mesh: List[List[CPE]],
        policy: Optional[FaultPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.arch = arch
        self.mesh = mesh
        self.row_channel_free = [0.0] * arch.mesh_rows
        self.col_channel_free = [0.0] * arch.mesh_cols
        #: optional TraceRecorder attached by the cluster
        self.trace = None
        #: fault configuration and the deterministic injection stream
        self.policy = policy or FaultPolicy()
        self.retry = retry or RetryPolicy()
        self.injector: Optional[FaultInjector] = None
        #: optional CertificateGuard cross-checking each broadcast against
        #: the admission verifier's certificate (guarded mode)
        self.guard = None
        #: functional mode copies the tiles; timing-only mode (False) keeps
        #: the checks, channel and reply bookkeeping only, against the SPM
        #: buffer plans
        self.move_data = True

    def reset(self) -> None:
        self.row_channel_free = [0.0] * self.arch.mesh_rows
        self.col_channel_free = [0.0] * self.arch.mesh_cols
        # Back-to-back runs on one cluster must not interleave trace
        # events: a reset starts a fresh recording.
        if self.trace is not None:
            self.trace.clear()

    # -- common ---------------------------------------------------------

    def _check_armed(self, sender: CPE) -> None:
        if not self.arch.rma_supported:
            raise InvalidRMAError(
                f"{self.arch.name} does not support SPM RMA; the compiler "
                "should not have emitted an RMA statement for this target"
            )
        if not sender.rma_armed:
            raise SynchronizationError(
                f"{sender!r} issued an RMA without a preceding synch() — "
                "the athread programming model requires a synchronisation "
                "before each RMA launch (§5)"
            )

    def _occupy(
        self, free_list: List[float], index: int, issue: float, nbytes: int,
        label: str,
    ) -> float:
        """One attempt on a row/column channel, with latency spikes."""
        factor = self.injector.latency_factor("rma") if self.injector else 1.0
        start = max(issue, free_list[index])
        completion = start + self.arch.rma_time_s(nbytes) * factor
        free_list[index] = completion
        if self.trace is not None:
            self.trace.record("rma", start, completion, label)
        return completion

    def _occupy_with_retries(
        self, sender: CPE, free_list: List[float], index: int, nbytes: int,
        label: str, what: str,
    ) -> float:
        """Occupy a channel under the fault plane: a transiently failed
        broadcast costs the attempt plus backoff, then relaunches."""
        attempts = 0
        issue = sender.clock
        while True:
            completion = self._occupy(free_list, index, issue, nbytes, label)
            if not (self.injector is not None
                    and self.injector.transfer_fault("rma")):
                return completion
            attempts += 1
            sender.stats["rma_retries"] += 1
            if attempts > self.retry.max_retries:
                raise TransientFaultError(
                    f"{what} from {sender!r} failed {attempts} attempt(s); "
                    f"retry budget of {self.retry.max_retries} exhausted "
                    f"(injected transient RMA faults, seed {self.policy.seed})"
                )
            issue = completion + self.retry.backoff(attempts - 1)

    def _deliver(
        self,
        sender: CPE,
        receivers: List[CPE],
        src_key: Tuple[str, int],
        dst_key: Tuple[str, int],
        size: int,
        replys: str,
        replyr: str,
        completion: float,
        nbytes: int,
    ) -> None:
        move_data = self.move_data
        sender.spm.check_readable(src_key[0], src_key[1])
        if move_data and self.policy.checksums:
            # End-to-end integrity: the tile the DMA landed must still be
            # intact when it leaves the SPM again on the RMA hop.
            sender.spm.verify_checksum(src_key[0], src_key[1], size)
        src_elems = sender.spm.tile(src_key[0], src_key[1]).slot_elems
        if size <= 0 or size > src_elems:
            raise InvalidRMAError(
                f"RMA size {size} outside source tile of {src_elems} elements"
            )
        expected: Optional[int] = None
        if move_data:
            payload = sender.spm.slot(src_key[0], src_key[1]).reshape(-1)[:size]
            if self.policy.checksums:
                expected = tile_checksum(payload)
        for receiver in receivers:
            dst_elems = receiver.spm.tile(dst_key[0], dst_key[1]).slot_elems
            if size > dst_elems:
                raise InvalidRMAError(
                    f"RMA size {size} exceeds destination tile of {dst_elems}"
                )
            if move_data:
                dst_flat = receiver.spm.slot(dst_key[0], dst_key[1]).reshape(-1)
                attempts = 0
                while True:
                    dst_flat[:size] = payload
                    if (self.injector is not None
                            and self.injector.corrupts("rma")):
                        self.injector.corrupt_tile(dst_flat[:size])
                    if (expected is not None
                            and tile_checksum(dst_flat[:size]) != expected):
                        attempts += 1
                        receiver.stats["rma_retries"] += 1
                        if attempts > self.retry.max_retries:
                            raise DataIntegrityError(
                                f"RMA delivery into {dst_key[0]}"
                                f"[{dst_key[1]}] on {receiver!r} failed its "
                                f"checksum {attempts} time(s); retry budget "
                                f"of {self.retry.max_retries} exhausted"
                            )
                        continue
                    break
                if expected is not None:
                    receiver.spm.record_checksum(
                        dst_key[0], dst_key[1], expected, size
                    )
            receiver.spm.mark_inflight(dst_key[0], dst_key[1], f"rma/{replyr}")
            if self.injector is not None and self.injector.drops_reply("rma"):
                receiver.stats["lost_replies"] += 1
                receiver.lost_replies[replyr] = (dst_key, completion)
            else:
                receiver.reply(replyr).add(ReplyRecord(completion, dst_key))
        if self.injector is not None and self.injector.drops_reply("rma"):
            sender.stats["lost_replies"] += 1
            sender.lost_replies[replys] = (None, completion)
        else:
            sender.reply(replys).add(ReplyRecord(completion, None))
        sender.stats["rma_messages"] += 1
        sender.stats["rma_bytes"] += nbytes

    def _broadcast(
        self,
        axis: str,
        index: int,
        free_list: List[float],
        receivers: List[CPE],
        sender: CPE,
        src_key: Tuple[str, int],
        dst_key: Tuple[str, int],
        size: int,
        replys: str,
        replyr: str,
    ) -> float:
        """One broadcast on mesh row/column ``index``'s channel."""
        self._check_armed(sender)
        if self.guard is not None:
            self.guard.on_rma(axis, src_key[0], dst_key[0], size)
        # The width comes from the source buffer's plan; a bad slot index
        # still fails in _deliver, after the channel attempt.
        nbytes = size * sender.spm.plan(src_key[0]).itemsize
        completion = self._occupy_with_retries(
            sender, free_list, index, nbytes, f"{axis}{index}",
            f"rma_{axis}_ibcast",
        )
        self._deliver(
            sender, receivers, src_key, dst_key, size, replys, replyr,
            completion, nbytes,
        )
        return completion

    # -- the two broadcasts (Fig. 8b) ----------------------------------------

    def row_ibcast(
        self,
        sender: CPE,
        src_key: Tuple[str, int],
        dst_key: Tuple[str, int],
        size: int,
        replys: str,
        replyr: str,
    ) -> float:
        """Broadcast the sender's SPM tile to every CPE on its mesh row."""
        return self._broadcast(
            "row", sender.rid, self.row_channel_free, self.mesh[sender.rid],
            sender, src_key, dst_key, size, replys, replyr,
        )

    def col_ibcast(
        self,
        sender: CPE,
        src_key: Tuple[str, int],
        dst_key: Tuple[str, int],
        size: int,
        replys: str,
        replyr: str,
    ) -> float:
        """Broadcast the sender's SPM tile to every CPE on its mesh column."""
        return self._broadcast(
            "col", sender.cid, self.col_channel_free,
            [row[sender.cid] for row in self.mesh],
            sender, src_key, dst_key, size, replys, replyr,
        )
