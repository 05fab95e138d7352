"""The DMA engine: ``dma_iget`` / ``dma_iput`` (§4).

Semantics follow the athread interface the paper documents::

    dma_iget(dst, src, size, len, strip, &reply)
    dma_iput(dst, src, size, len, strip, &reply)

``size`` elements move in runs of ``len`` contiguous elements; after each
run the main-memory side skips ``strip`` elements (the distance from the
end of one run to the start of the next — for a ``X_τ×Y_τ`` tile of an
``X×Y`` matrix, ``len = Y_τ`` and ``strip = Y − Y_τ``, exactly Fig. 7).
The SPM side is always contiguous.

Functionally the engine performs the strided copy with NumPy fancy
indexing and validates every argument (a malformed ``strip`` raises
:class:`InvalidDMAError`, which several tests rely on).  For timing, the
mesh shares one memory channel: a message occupies the channel for
``startup + bytes/bandwidth`` seconds starting no earlier than both its
issue time and the channel becoming free — so 64 concurrent tile fetches
contend exactly as they would on the shared DDR4 controller.  A
message's bytes are its element count times the element width of the
SPM buffer's plan (8 B for DGEMM, 4 B for SGEMM).  With ``move_data``
off the engine runs timing-only: the same validation, channel and reply
bookkeeping, against the SPM buffer's plan and the main-memory array's
shape alone — it takes no tile view and copies nothing.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import InvalidDMAError, TransientFaultError
from repro.faults import FaultInjector, FaultPolicy, RetryPolicy, tile_checksum
from repro.sunway.arch import ArchSpec
from repro.sunway.cpe import CPE, ReplyRecord


class DMAEngine:
    """Shared main-memory DMA channel of one core group."""

    def __init__(
        self,
        arch: ArchSpec,
        policy: Optional[FaultPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.arch = arch
        self.channel_free: float = 0.0
        #: optional TraceRecorder attached by the cluster
        self.trace = None
        #: fault configuration and the deterministic injection stream
        self.policy = policy or FaultPolicy()
        self.retry = retry or RetryPolicy()
        self.injector: Optional[FaultInjector] = None
        #: optional CertificateGuard cross-checking each transfer against
        #: the admission verifier's certificate (guarded mode)
        self.guard = None
        #: functional mode copies the data; timing-only mode (False) keeps
        #: the validation, channel occupancy and reply bookkeeping only,
        #: and touches no SPM or main-memory data
        self.move_data = True

    def reset(self) -> None:
        self.channel_free = 0.0
        # Back-to-back runs on one cluster must not interleave trace
        # events: a reset starts a fresh recording.
        if self.trace is not None:
            self.trace.clear()

    # -- helpers ----------------------------------------------------------

    def _validate(
        self,
        src_elems: int,
        offset: int,
        size: int,
        length: int,
        strip: int,
        spm_elems: int,
    ) -> int:
        if size <= 0 or length <= 0:
            raise InvalidDMAError(f"size/len must be positive (size={size}, len={length})")
        if strip < 0:
            raise InvalidDMAError(f"strip must be non-negative, got {strip}")
        if size % length != 0:
            raise InvalidDMAError(f"size {size} is not a multiple of len {length}")
        if size > spm_elems:
            raise InvalidDMAError(
                f"transfer of {size} elements exceeds SPM tile of {spm_elems}"
            )
        rows = size // length
        last = offset + (rows - 1) * (length + strip) + length
        if offset < 0 or last > src_elems:
            raise InvalidDMAError(
                f"main-memory access out of bounds: offset {offset}, "
                f"{rows} runs of {length}+{strip}, array has {src_elems} elements"
            )
        return rows

    def _occupy_channel(
        self,
        issue_time: float,
        nbytes: int,
        run_bytes: int = 0,
        factor: float = 1.0,
    ) -> float:
        start = max(issue_time, self.channel_free)
        completion = start + self.arch.dma_time_s(nbytes, run_bytes) * factor
        self.channel_free = completion
        if self.trace is not None:
            self.trace.record("dma", start, completion, "channel")
        return completion

    def _transfer(
        self,
        cpe: CPE,
        what: str,
        nbytes: int,
        run_bytes: int,
        copy_fn: Optional[Callable[[], Optional[int]]],
        corrupt_fn: Optional[Callable[[], None]],
        readback_fn: Optional[Callable[[], int]],
    ) -> Tuple[float, Optional[int]]:
        """One DMA message under the fault plane.

        Each attempt occupies the channel (possibly with an injected
        latency spike).  A transient fault or a detected checksum
        mismatch costs the attempt plus an exponential backoff, then the
        message is reissued; exhausting the retry budget raises
        :class:`TransientFaultError` naming the CPE and transfer.
        Returns ``(completion time, payload checksum or None)``; the
        checksum is computed only under ``policy.checksums``.
        """
        injector = self.injector
        attempts = 0
        issue = cpe.clock
        while True:
            factor = injector.latency_factor("dma") if injector else 1.0
            faulted = injector.transfer_fault("dma") if injector else False
            completion = self._occupy_channel(issue, nbytes, run_bytes, factor)
            checksum: Optional[int] = None
            if not faulted:
                if copy_fn is not None:
                    checksum = copy_fn()
                    if injector is not None and injector.corrupts("dma"):
                        if corrupt_fn is not None:
                            corrupt_fn()
                    if (
                        self.policy.checksums
                        and readback_fn is not None
                        and readback_fn() != checksum
                    ):
                        faulted = True  # corruption detected: retry the copy
                if not faulted:
                    return completion, checksum
            attempts += 1
            cpe.stats["dma_retries"] += 1
            if attempts > self.retry.max_retries:
                raise TransientFaultError(
                    f"{what} on {cpe!r} failed {attempts} attempt(s); "
                    f"retry budget of {self.retry.max_retries} exhausted "
                    f"(injected transient DMA faults, seed "
                    f"{self.policy.seed})"
                )
            issue = completion + self.retry.backoff(attempts - 1)

    def _gather_indices(
        self, offset: int, rows: int, length: int, strip: int
    ) -> np.ndarray:
        starts = offset + np.arange(rows) * (length + strip)
        return (starts[:, None] + np.arange(length)[None, :]).ravel()

    def _book(
        self,
        cpe: CPE,
        tile_key: Tuple[str, int],
        what: str,
        reply_name: str,
        completion: float,
        nbytes: int,
    ) -> None:
        """The tail of every message: the SPM tile stays poisoned until
        its wait, the reply counter signals completion (unless the fault
        plane drops the reply), and the CPE's stats count the message."""
        cpe.spm.mark_inflight(tile_key[0], tile_key[1], f"{what}/{reply_name}")
        if self.injector is not None and self.injector.drops_reply("dma"):
            cpe.stats["lost_replies"] += 1
            cpe.lost_replies[reply_name] = (tile_key, completion)
        else:
            cpe.reply(reply_name).add(ReplyRecord(completion, tile_key))
        cpe.stats["dma_messages"] += 1
        cpe.stats["dma_bytes"] += nbytes

    # -- the two interfaces ----------------------------------------------------

    def iget(
        self,
        cpe: CPE,
        dst_key: Tuple[str, int],
        src: np.ndarray,
        offset: int,
        size: int,
        length: int,
        strip: int,
        reply_name: str,
    ) -> float:
        """Main-memory array ``src`` → the SPM tile ``dst_key`` (buffer,
        slot).  Returns the modelled completion time."""
        plan = cpe.spm.tile(dst_key[0], dst_key[1])
        rows = self._validate(src.size, offset, size, length, strip, plan.slot_elems)
        if self.guard is not None:
            self.guard.on_dma("get", dst_key[0], size, length)
        copy_fn = corrupt_fn = readback_fn = None
        if self.move_data:
            idx = self._gather_indices(offset, rows, length, strip)
            payload = src.reshape(-1)[idx]
            dst_flat = cpe.spm.slot(dst_key[0], dst_key[1]).reshape(-1)

            def copy_fn() -> Optional[int]:
                dst_flat[:size] = payload
                return tile_checksum(payload) if self.policy.checksums else None

            def corrupt_fn() -> None:
                self.injector.corrupt_tile(dst_flat[:size])

            def readback_fn() -> int:
                return tile_checksum(dst_flat[:size])

        nbytes = size * plan.itemsize
        completion, checksum = self._transfer(
            cpe, f"dma_iget into {dst_key[0]}[{dst_key[1]}]", nbytes,
            length * plan.itemsize, copy_fn, corrupt_fn, readback_fn,
        )
        if checksum is not None:
            cpe.spm.record_checksum(dst_key[0], dst_key[1], checksum, size)
        self._book(cpe, dst_key, "dma_iget", reply_name, completion, nbytes)
        return completion

    def iput(
        self,
        cpe: CPE,
        dst: np.ndarray,
        offset: int,
        src_key: Tuple[str, int],
        size: int,
        length: int,
        strip: int,
        reply_name: str,
    ) -> float:
        """The SPM tile ``src_key`` (buffer, slot) → main-memory array
        ``dst``.  Returns the modelled completion time."""
        plan = cpe.spm.tile(src_key[0], src_key[1])
        # The tile being written out must itself be ready (e.g. the getC
        # that filled local_C must have been waited on).
        cpe.spm.check_readable(src_key[0], src_key[1])
        rows = self._validate(dst.size, offset, size, length, strip, plan.slot_elems)
        if self.guard is not None:
            self.guard.on_dma("put", src_key[0], size, length)
        copy_fn = corrupt_fn = readback_fn = None
        if self.move_data:
            flat = dst.reshape(-1)
            idx = self._gather_indices(offset, rows, length, strip)
            payload = cpe.spm.slot(src_key[0], src_key[1]).reshape(-1)[:size]

            def copy_fn() -> Optional[int]:
                flat[idx] = payload
                return tile_checksum(payload) if self.policy.checksums else None

            def corrupt_fn() -> None:
                self.injector.corrupt_tile(flat, positions=idx)

            def readback_fn() -> int:
                return tile_checksum(flat[idx])

        nbytes = size * plan.itemsize
        completion, _ = self._transfer(
            cpe, f"dma_iput from {src_key[0]}[{src_key[1]}]", nbytes,
            length * plan.itemsize, copy_fn, corrupt_fn, readback_fn,
        )
        # The SPM source must not be overwritten until the put completed.
        self._book(cpe, src_key, "dma_iput", reply_name, completion, nbytes)
        return completion
