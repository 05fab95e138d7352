"""AST interpreter over the simulated core group.

Each CPE executes the *same* generated program (SPMD) with its own
``Rid``/``Cid`` bindings, exactly as the athread slave function would.
The body is lowered once per run by :func:`repro.poly.flat.lower` — the
lowering the verifier's schedule machine runs too — with leaf
instructions that drive the cluster's hardware model directly: the DMA
and RMA engines, the mesh barrier, and each CPE's reply counters
(:meth:`~repro.sunway.cpe.CPE.reset_reply`,
:meth:`~repro.sunway.cpe.CPE.finish_wait`).  Each CPE runs the stream as
a cursor.  A CPE blocks when it spins on a reply counter whose transfer
has not completed or when it arrives at the mesh barrier: the wait
re-polls the next time the CPE is resumed, so cross-CPE interactions —
a receiver waiting for a broadcast its sender has not issued yet —
behave exactly like the hardware's spin loops.

The scheduler always resumes the runnable CPE with the smallest virtual
clock, the first queued among equal clocks.  The runnable CPEs sit in a
binary heap keyed on ``(clock, enqueue order)``; a barrier release can
move a queued CPE's clock forward, so a stale key is re-keyed when it
reaches the top, which is exact because no clock ever moves back (see
:class:`_RunQueue`).  When no CPE is runnable and some are still
blocked, the run is reported as a deadlock with each CPE's blocking
reason, which turns schedule bugs into actionable failures instead of
hangs.

Two modes share all of this logic:

* ``move_data=True`` — functional execution: every DMA/RMA actually
  copies NumPy data and the result must equal ``α·A·B + β·C``;
* ``move_data=False`` — timing-only execution used by the benchmark
  simulator: the same control flow and clock bookkeeping without the
  copies.

Each run sets the mode, and the guard of guarded execution, on both
engines before the first instruction.

The virtual clocks advance through compute charges and transfer
completions, so wall time *emerges from the schedule*: if the latency-
hiding pass failed to overlap a transfer, the measured time shows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ExecutionError, SynchronizationError
from repro.codegen.elementwise import get_elementwise
from repro.core.spec import check_shape
from repro.codegen.backend import resolve_kernel
from repro.poly.astnodes import (
    BINARY_OPS,
    ArrayRef,
    BinExpr,
    BlockOpStmt,
    CommStmt,
    KernelCall,
    NaiveComputeStmt,
    Stmt,
)
from repro.poly.flat import (
    BLOCKED,
    DONE,
    NEXT,
    STEP,
    Cursor,
    Instr,
    compile_expr,
    lower,
    reply_key,
)
from repro.runtime.program import CompiledProgram
from repro.sunway.cpe import CPE
from repro.sunway.mesh import Cluster


@dataclass
class ExecutionReport:
    """Result of one kernel launch."""

    elapsed_seconds: float
    useful_flops: float
    padded_flops: float
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        return self.useful_flops / self.elapsed_seconds / 1e9

    @property
    def padded_gflops(self) -> float:
        return self.padded_flops / self.elapsed_seconds / 1e9


class _Cursor(Cursor):
    """One CPE's place in the lowered program."""

    __slots__ = ("cpe", "token", "waited_since")

    def __init__(self, cpe: CPE, env: Dict[str, object], slots: int) -> None:
        super().__init__(env, slots)
        self.cpe = cpe
        #: barrier generation this CPE arrived in.
        self.token = 0
        #: the watchdog's budget start: when the wait this CPE is blocked
        #: in first failed to pass (None when not blocked in a wait).
        self.waited_since: Optional[float] = None


class _RunQueue:
    """The runnable cursors, popped smallest CPE clock first and, among
    equal clocks, in the order they were pushed.

    A binary heap of ``(clock, seq, cursor)`` entries; ``seq`` counts the
    pushes, so it is unique and a comparison never reaches the cursor.
    A queued cursor's clock may move forward while it waits, so its key
    can be stale.  Clocks never move back (:meth:`CPE.advance` refuses a
    negative charge and :meth:`CPE.sync_to` only raises), so a key is
    never above its cursor's clock: ``pop`` re-keys a stale top with the
    current clock and the *same* ``seq``, and a top whose key is current
    is the true minimum.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, _Cursor]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, cursor: _Cursor) -> None:
        heappush(self._heap, (cursor.cpe.clock, self._seq, cursor))
        self._seq += 1

    def pop(self) -> _Cursor:
        heap = self._heap
        clock, seq, cursor = heap[0]
        while clock < cursor.cpe.clock:
            heapreplace(heap, (cursor.cpe.clock, seq, cursor))
            clock, seq, cursor = heap[0]
        heappop(heap)
        return cursor


class Executor:
    """Interpret a compiled program on a (simulated) cluster."""

    def __init__(
        self,
        program: CompiledProgram,
        cluster: Optional[Cluster] = None,
        move_data: bool = True,
        scalar_naive: bool = False,
        guard: Optional[object] = None,
    ) -> None:
        self.program = program
        self.cluster = cluster or Cluster(
            program.arch,
            fault_policy=program.options.fault_policy,
            retry_policy=program.options.retry_policy,
        )
        #: guarded mode: a CertificateGuard cross-checking every observed
        #: DMA/RMA/SPM event against the admission certificate
        self.guard = guard
        #: reply-counter watchdog budget in virtual seconds (0 = off)
        self._watchdog_s = self.cluster.fault_policy.watchdog_timeout_s
        # Single precision doubles the SIMD lanes: half the kernel time.
        self._kernel_time_factor = program.spec.itemsize / 8.0
        self.move_data = move_data
        #: interpret NaiveComputeStmt with scalar Python loops (test oracle)
        self.scalar_naive = scalar_naive
        self.kernel = resolve_kernel(
            program.arch, program.options, program.plan.kernel_shape
        )
        self._blocked: Dict[Tuple[int, int], str] = {}
        self._progress = 0

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------

    def run(
        self,
        params: Mapping[str, int],
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> ExecutionReport:
        program = self.program
        spec = program.spec
        M = params[spec.m_param]
        N = params[spec.n_param]
        K = params[spec.k_param]
        if program.requires_padding(M, N, K):
            raise ExecutionError(
                f"shape {M}x{N}x{K} is not a multiple of the mesh chunk "
                f"{program.plan.chunk_m}x{program.plan.chunk_n}x"
                f"{program.plan.k_step}; use run_gemm (it zero-pads, §8.1)"
            )
        batch = params.get(spec.batch_param, 1) if spec.is_batched else 1

        self.cluster.reset_mesh()
        for engine in (self.cluster.dma, self.cluster.rma):
            engine.guard, engine.move_data = self.guard, self.move_data
        self._allocate_spm()
        if self.guard is not None:
            for cpe in self.cluster.all_cpes():
                self.guard.on_spm(str(cpe), cpe.spm.used_bytes)
        self.cluster.begin_spawn()

        # The instruction stream is local to the run: its closures hold
        # this executor, so keeping it on ``self`` would be a cycle.
        code, slots = lower(program.cpe_program.body, self._leaf)
        self._schedule(code, [
            _Cursor(cpe, dict(params, Rid=cpe.rid, Cid=cpe.cid, alpha=alpha,
                              beta=beta), slots)
            for cpe in self.cluster.all_cpes()
        ])

        elapsed = self.cluster.elapsed()
        return ExecutionReport(
            elapsed_seconds=elapsed,
            useful_flops=spec.flops(M, N, K, batch),
            padded_flops=spec.flops(M, N, K, batch),
            stats=self.cluster.total_stats(),
        )

    def _allocate_spm(self) -> None:
        np_dtype = np.float64 if self.program.spec.dtype == "float64" else np.float32
        for cpe in self.cluster.all_cpes():
            for decl in self.program.cpe_program.buffers:
                if decl.name not in cpe.spm:
                    cpe.spm.alloc(decl.name, decl.shape, dtype=np_dtype)

    # ------------------------------------------------------------------
    # Virtual-time-ordered cooperative scheduler
    # ------------------------------------------------------------------
    #
    # Shared resources (the DMA channel, the RMA row/column channels, the
    # barrier) are modelled with availability times, so requests must be
    # presented in (approximately) virtual-time order: always resume the
    # runnable CPE whose clock is smallest — conservative discrete-event
    # simulation.  A resume ends after every clock-advancing statement,
    # or blocked in a spin-wait; blocked CPEs are re-armed (queued again,
    # in the order they blocked) whenever a resume makes progress.
    #
    # Among equal clocks the CPE enqueued first runs first: each enqueue —
    # the initial cursors in mesh order, a cursor requeued after its
    # resume, then the re-armed ones — takes the next sequence number, and
    # the run queue's heap orders ``(clock, seq)``.  A queued key goes
    # stale when a barrier release ``sync_to``s the arrived CPEs, re-armed
    # ones included; the pop re-keys a stale top and looks again.
    #
    # No poll is needed when the queue runs dry with CPEs still blocked:
    # each of them failed a poll after the last resume that made progress,
    # and nothing a poll reads changes without progress (reply counters
    # are booked when a transfer is issued, the barrier opens inside the
    # arrive whose resume then passes it, and clocks move only in resumes
    # that progress), so another poll would fail the same way.

    def _schedule(self, code: List[Instr], cursors: List[_Cursor]) -> None:
        queue = _RunQueue()
        for cursor in cursors:
            queue.push(cursor)
        blocked: List[_Cursor] = []
        while queue:
            cursor = queue.pop()
            before = self._progress
            status = self._resume(code, cursor)
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

    def _resume(self, code: List[Instr], cursor: _Cursor) -> int:
        signal = code[cursor.pc](cursor)
        while not signal:
            signal = code[cursor.pc](cursor)
        if signal == DONE:
            self._progress += 1
        return signal

    def _advance(self, cursor: _Cursor, signal: int = STEP) -> int:
        """The end of a leaf instruction that did its work."""
        self._progress += 1
        cursor.pc += 1
        return signal

    def _watchdog_error(
        self, cpe: CPE, kind: str, key: str, value: int, lost: bool
    ) -> SynchronizationError:
        """A diagnostic for a reply wait that can never complete: names the
        stalled CPE, the counter state and the poisoned buffer(s) so a
        pipeline stall reads like a bug report instead of a hang."""
        counter = cpe.reply(key)
        pending = sorted(
            f"{name}[{slot}]"
            for (name, slot), cause in cpe.spm.inflight_slots().items()
            if key in cause
        )
        if lost and cpe.lost_replies.get(key, (None, 0.0))[0] is not None:
            buffer = cpe.lost_replies[key][0]
            pending.append(f"{buffer[0]}[{buffer[1]}]")
        buffers = ", ".join(sorted(set(pending))) or "<no poisoned buffer>"
        cause = (
            "the reply was dropped in transit"
            if lost
            else f"no completion within the {self._watchdog_s}s watchdog budget"
        )
        return SynchronizationError(
            f"watchdog: {cpe!r} stalled in {kind} on reply {key!r} "
            f"(counter at {counter.value}, waiting for {value}) — {cause}; "
            f"pending transfer into {buffers}"
        )

    # ------------------------------------------------------------------
    # Leaf instructions
    # ------------------------------------------------------------------

    def _leaf(self, stmt: Stmt) -> List[Instr]:
        if isinstance(stmt, CommStmt):
            return self._comm(stmt)
        if isinstance(stmt, KernelCall):
            return [self._kernel_call(stmt)]
        if isinstance(stmt, BlockOpStmt):
            return [self._block_op(stmt)]
        if isinstance(stmt, NaiveComputeStmt):
            return [self._naive(stmt)]
        return [_fail(f"cannot interpret statement {type(stmt).__name__}")]

    # -- communication statements (the §7.1 extension node type) ----------

    def _comm(self, stmt: CommStmt) -> List[Instr]:
        kind = stmt.kind
        args = stmt.args
        if kind == "reply_reset":
            return [self._reply_reset(args)]
        if kind in ("dma_iget", "dma_iput"):
            return [self._dma(kind, args)]
        if kind in ("dma_wait_value", "rma_wait_value"):
            return [self._wait(kind, args)]
        if kind in ("rma_row_ibcast", "rma_col_ibcast"):
            return [self._rma(kind, args)]
        if kind == "synch":
            return self._synch()
        return [_fail(f"unknown communication statement {kind!r}")]

    def _reply_reset(self, args) -> Instr:
        key_of = reply_key(args)

        def reply_reset(cursor: _Cursor) -> int:
            cursor.cpe.reset_reply(key_of(cursor))
            return self._advance(cursor, NEXT)

        return reply_reset

    def _dma(self, kind: str, args) -> Instr:
        name = str(args["array"])
        row_of, col_of, slot_of = (
            compile_expr(args[key]) for key in ("row", "col", "slot")
        )
        batch = args.get("batch")
        batch_of = compile_expr(batch) if batch is not None else None
        length, size = int(args["len"]), int(args["size"])
        buffer = str(args["buffer"])
        key_of = reply_key(args)
        memory, engine = self.cluster.memory, self.cluster.dma

        def dma(cursor: _Cursor) -> int:
            array = memory[name]
            ld = int(array.shape[-1])
            row = row_of(cursor)
            col = col_of(cursor)
            if batch_of is not None:
                row += batch_of(cursor) * array.shape[-2]
            offset = row * ld + col
            tile = (buffer, slot_of(cursor))
            reply = key_of(cursor)
            if kind == "dma_iget":
                engine.iget(cursor.cpe, tile, array, offset, size, length,
                            ld - length, reply)
            else:
                engine.iput(cursor.cpe, array, offset, tile, size, length,
                            ld - length, reply)
            # channel occupancy depends on virtual-time order
            return self._advance(cursor)

        return dma

    def _wait(self, kind: str, args) -> Instr:
        key_of = reply_key(args)
        value = int(args.get("value", 1))
        elapsed = self.cluster.elapsed
        blocked = self._blocked

        def wait(cursor: _Cursor) -> int:
            cpe = cursor.cpe
            key = key_of(cursor)
            if not cpe.reply(key).satisfied(value):
                blocked[(cpe.rid, cpe.cid)] = f"{kind} {key} >= {value}"
                # Watchdog: a reply that the fault plane dropped will never
                # arrive — diagnose immediately.  Otherwise give the wait a
                # bounded budget of *virtual* time while the rest of the
                # mesh advances, then turn the stall into a diagnostic
                # instead of spinning until the global deadlock detector.
                if key in cpe.lost_replies:
                    raise self._watchdog_error(cpe, kind, key, value, lost=True)
                if cursor.waited_since is None:
                    cursor.waited_since = elapsed()
                elif (
                    self._watchdog_s > 0
                    and elapsed() - cursor.waited_since > self._watchdog_s
                ):
                    raise self._watchdog_error(cpe, kind, key, value, lost=False)
                return BLOCKED
            cursor.waited_since = None
            blocked.pop((cpe.rid, cpe.cid), None)
            cpe.finish_wait(key, value)
            return self._advance(cursor)

        return wait

    def _rma(self, kind: str, args) -> Instr:
        src_slot_of, dst_slot_of, reply_slot_of = (
            compile_expr(args[key]) for key in ("src_slot", "dst_slot", "reply_slot")
        )
        src, dst = str(args["src_buffer"]), str(args["dst_buffer"])
        size = int(args["size"])
        replys, replyr = args["replys"], args["replyr"]
        engine = self.cluster.rma
        issue = engine.row_ibcast if kind == "rma_row_ibcast" else engine.col_ibcast

        def rma(cursor: _Cursor) -> int:
            slot_s = src_slot_of(cursor)
            slot_d = dst_slot_of(cursor)
            reply_slot = reply_slot_of(cursor)
            issue(
                cursor.cpe, (src, slot_s), (dst, slot_d), size,
                f"{replys}#{reply_slot}", f"{replyr}#{reply_slot}",
            )
            return self._advance(cursor)

        return rma

    def _synch(self) -> List[Instr]:
        """``synch()``: arrive at the barrier, then spin until it opens."""
        mesh_barrier = self.cluster.barrier
        blocked = self._blocked

        def arrive(cursor: _Cursor) -> int:
            cursor.token = mesh_barrier.arrive(cursor.cpe)
            cursor.pc += 1
            return NEXT

        def barrier(cursor: _Cursor) -> int:
            cpe = cursor.cpe
            if not mesh_barrier.passed(cursor.token):
                blocked[(cpe.rid, cpe.cid)] = "synch"
                return BLOCKED
            blocked.pop((cpe.rid, cpe.cid), None)
            return self._advance(cursor)

        return [arrive, barrier]

    # -- compute statements ----------------------------------------------------

    def _tile(self, ref: ArrayRef) -> Callable[[_Cursor], np.ndarray]:
        """The SPM tile ``ref``'s slot index selects, checked readable."""
        name = ref.array
        slot_of = compile_expr(ref.indices[0])

        def tile(cursor: _Cursor) -> np.ndarray:
            spm = cursor.cpe.spm
            slot = slot_of(cursor)
            spm.check_readable(name, slot)
            return spm.slot(name, slot)

        return tile

    def _kernel_done(self, seconds: float) -> Instr:
        """The bookkeeping that ends a kernel call or naive compute."""
        cluster = self.cluster

        def kernel_done(cursor: _Cursor) -> int:
            cpe = cursor.cpe
            charge_compute(cluster, cpe, seconds)
            cpe.stats["kernel_calls"] += 1
            return self._advance(cursor)

        return kernel_done

    def _kernel_call(self, stmt: KernelCall) -> Instr:
        c_of, a_of, b_of = map(self._tile, (stmt.c_ref, stmt.a_ref, stmt.b_ref))
        alpha_of = compile_expr(stmt.alpha)
        trans_a, trans_b = stmt.trans_a, stmt.trans_b
        execute = self.kernel.execute if self.move_data else None
        done = self._kernel_done(
            self.kernel.seconds_per_call * self._kernel_time_factor
        )

        def kernel_call(cursor: _Cursor) -> int:
            c_view, a_view, b_view = c_of(cursor), a_of(cursor), b_of(cursor)
            alpha = float(alpha_of(cursor))
            if execute is not None:
                # Transposed entry points read the SPM tiles in their
                # storage layouts (kt×mt / nt×kt); the zero-copy transpose
                # restores the kernel's canonical contract shapes.
                a_eff = a_view.T if trans_a else a_view
                b_eff = b_view.T if trans_b else b_view
                execute(c_view, a_eff, b_eff, alpha)
            return done(cursor)

        return kernel_call

    def _block_op(self, stmt: BlockOpStmt) -> Instr:
        if stmt.op == "scale":
            func = None
            factor_of = compile_expr(stmt.factor)
            rate = self.program.arch.cpe_elementwise_rate
        elif stmt.op == "apply":
            func = get_elementwise(stmt.func)
            rate = func.cpe_rate
        else:
            return _fail(f"unknown block op {stmt.op!r}")
        tile = self._tile(stmt.dst)
        move_data = self.move_data
        seconds = stmt.shape[0] * stmt.shape[1] / rate
        cluster = self.cluster

        def block_op(cursor: _Cursor) -> int:
            view = tile(cursor)
            if func is None:
                factor = float(factor_of(cursor))
                if move_data:
                    view *= factor
            elif move_data:
                view[...] = func.numpy_fn(view)
            charge_compute(cluster, cursor.cpe, seconds, kind="blockop")
            return self._advance(cursor)

        return block_op

    def _naive(self, stmt: NaiveComputeStmt) -> Instr:
        seconds = self.program.arch.naive_time_s(*stmt.extents)
        done = self._kernel_done(seconds * self._kernel_time_factor)
        if not self.move_data:
            return done
        update = _scalar_oracle(stmt) if self.scalar_naive else self._matmul(stmt)

        def naive(cursor: _Cursor) -> int:
            update(cursor)
            return done(cursor)

        return naive

    def _matmul(self, stmt: NaiveComputeStmt) -> Callable[[_Cursor], None]:
        """Fast path: the --no-use-asm body is always the canonical GEMM
        update, so the whole point-loop box evaluates as one matmul."""
        value = stmt.value
        if not (
            isinstance(value, BinExpr)
            and value.op == "*"
            and isinstance(value.rhs, ArrayRef)
            and isinstance(value.lhs, BinExpr)
            and value.lhs.op == "*"
            and isinstance(value.lhs.rhs, ArrayRef)
        ):
            return _fail(
                "naive compute statement does not match the canonical GEMM form"
            )
        c_of, a_of, b_of = map(self._tile, (stmt.target, value.lhs.rhs, value.rhs))
        alpha_of = compile_expr(value.lhs.lhs)
        trans_a, trans_b = stmt.trans_a, stmt.trans_b

        def matmul(cursor: _Cursor) -> None:
            c_view, a_view, b_view = c_of(cursor), a_of(cursor), b_of(cursor)
            alpha = float(alpha_of(cursor))
            a_eff = a_view.T if trans_a else a_view
            b_eff = b_view.T if trans_b else b_view
            c_view += alpha * (a_eff @ b_eff)

        return matmul


def charge_compute(
    cluster: Cluster, cpe: CPE, seconds: float, kind: str = "kernel"
) -> None:
    """Advance ``cpe``'s clock by ``seconds`` of compute, count them in
    its ``compute_seconds`` and, when the cluster traces, record a
    ``kind`` span (``kernel`` or ``blockop``)."""
    start = cpe.clock
    cpe.advance(seconds)
    cpe.stats["compute_seconds"] += seconds
    if cluster.trace is not None:
        cluster.trace.record(kind, start, cpe.clock, f"CPE({cpe.rid},{cpe.cid})")


def _fail(message: str) -> Callable[[_Cursor], int]:
    """An instruction that raises ``ExecutionError(message)`` when run."""

    def fail(cursor: _Cursor) -> int:
        raise ExecutionError(message)

    return fail


def _scalar_oracle(stmt: NaiveComputeStmt) -> Callable[[_Cursor], None]:
    """The ``--no-use-asm`` test oracle: the scalar statement at every
    point of its loop box, each SPM element read and written in place."""

    def element(ref: ArrayRef, env, spm) -> Tuple[np.ndarray, Tuple[int, ...]]:
        slot = ref.indices[0].evaluate(env)
        spm.check_readable(ref.array, slot)
        return spm.slot(ref.array, slot), tuple(e.evaluate(env) for e in ref.indices[1:])

    def value(expr, env, spm):
        if isinstance(expr, ArrayRef):
            view, idx = element(expr, env, spm)
            return float(view[idx])
        if isinstance(expr, BinExpr):
            lhs, rhs = value(expr.lhs, env, spm), value(expr.rhs, env, spm)
            return BINARY_OPS[expr.op](lhs, rhs)
        return expr.evaluate(env)

    def update(cursor: _Cursor) -> None:
        spm = cursor.cpe.spm
        local = dict(cursor.env)
        for point in product(*(range(extent) for extent in stmt.extents)):
            local.update(zip(stmt.loop_vars, point))
            total = value(stmt.value, local, spm)
            view, idx = element(stmt.target, local, spm)
            view[idx] += total

    return update


# ---------------------------------------------------------------------------
# High-level entry point with zero padding (§8.1)
# ---------------------------------------------------------------------------


def run_gemm(
    program: CompiledProgram,
    A: np.ndarray,
    B: np.ndarray,
    C: Optional[np.ndarray] = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    cluster: Optional[Cluster] = None,
    move_data: bool = True,
    scalar_naive: bool = False,
    guarded: bool = False,
) -> Tuple[np.ndarray, ExecutionReport]:
    """Run a compiled program on host arrays, zero-padding to the mesh
    chunk multiples exactly as §8.1 prescribes.

    Accepts 2-D arrays (plain GEMM) or 3-D arrays (batched, leading batch
    dimension).  Returns ``(C, report)`` where ``C`` has the caller's
    shape.

    ``guarded=True`` attaches a :class:`repro.verify.CertificateGuard`
    built from the program's verification report: every observed
    DMA/RMA/SPM event is cross-checked against the static certificate,
    and any divergence raises
    :class:`~repro.errors.CertificateDivergenceError`.
    """
    spec = program.spec
    batched = spec.is_batched
    if batched:
        if A.ndim != 3 or B.ndim != 3:
            raise ExecutionError("batched program expects 3-D A and B")
        bs = A.shape[0]
        bs2 = B.shape[0]
        a_core, b_core = A.shape[1:], B.shape[1:]
    else:
        if A.ndim != 2 or B.ndim != 2:
            raise ExecutionError("non-batched program expects 2-D A and B")
        a_core, b_core = A.shape, B.shape
        bs = bs2 = 1
    # Interpret the storage shapes through the transpose flags.
    M, K = (a_core[1], a_core[0]) if spec.trans_a else a_core
    N = (b_core[0] if spec.trans_b else b_core[1])
    K2 = b_core[1] if spec.trans_b else b_core[0]
    if K != K2 or bs != bs2:
        raise ExecutionError(f"shape mismatch: A {A.shape} vs B {B.shape}")
    if C is None:
        C = np.zeros(((bs, M, N) if batched else (M, N)))
    elif C.shape != ((bs, M, N) if batched else (M, N)):
        raise ExecutionError(f"C has shape {C.shape}, expected {(M, N)}")

    Mp, Np, Kp = program.padded_shape(M, N, K)
    cluster = cluster or Cluster(
        program.arch,
        fault_policy=program.options.fault_policy,
        retry_policy=program.options.retry_policy,
    )

    np_dtype = np.float64 if spec.dtype == "float64" else np.float32

    def padded(name: str, array: np.ndarray, rows: int, cols: int) -> np.ndarray:
        shape = (bs, rows, cols) if batched else (rows, cols)
        target = cluster.memory.alloc(name, shape, dtype=np_dtype)
        target[..., : array.shape[-2], : array.shape[-1]] = array
        return target

    a_pad = (Kp, Mp) if spec.trans_a else (Mp, Kp)
    b_pad = (Np, Kp) if spec.trans_b else (Kp, Np)
    padded(spec.a_name, A, *a_pad)
    padded(spec.b_name, B, *b_pad)
    c_main = padded(spec.c_name, C, Mp, Np)

    guard = None
    if guarded:
        from repro.verify import CertificateGuard

        guard = CertificateGuard.from_program(program)
    executor = Executor(
        program, cluster, move_data=move_data, scalar_naive=scalar_naive,
        guard=guard,
    )
    params = {spec.m_param: Mp, spec.n_param: Np, spec.k_param: Kp}
    if batched:
        params[spec.batch_param] = bs
    report = executor.run(params, alpha=alpha, beta=beta)
    report.useful_flops = spec.flops(M, N, K, bs)
    report.padded_flops = spec.flops(Mp, Np, Kp, bs)
    if guard is not None:
        report.stats["guard_events"] = guard.events
        report.stats["guard_divergences"] = len(guard.divergences)

    C[...] = c_main[..., :M, :N]
    for name in (spec.a_name, spec.b_name, spec.c_name):
        cluster.memory.free(name)
    return C, report


#: The batch count :func:`run_checked` draws for a batched spec unless
#: told otherwise (``swgemm run`` and the daemon's ``run`` op).
RUN_BATCH = 4


def run_checked(
    program: CompiledProgram,
    M: int,
    N: int,
    K: int,
    seed: int = 0,
    alpha: float = 1.0,
    batch: int = RUN_BATCH,
    guarded: bool = False,
) -> Tuple[ExecutionReport, float]:
    """Run ``program`` on seeded random operands and compare with NumPy:
    returns the report and ``max |C - reference|``.

    The operands are drawn in the spec's storage layout (A is K×M under
    ``trans_a``, B is N×K under ``trans_b``; ``batch`` of each for a
    batched spec), C starts at zero, and the reference applies the
    kernel's own fused element-wise stages: quantised A in, activated
    C out.  A shape or batch below 1 and a negative seed are refused
    with a :class:`~repro.errors.ConfigurationError`.
    """
    check_shape(M, N, K, batch)
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    spec = program.spec
    rng = np.random.default_rng(seed)
    lead = (batch,) if spec.is_batched else ()
    A = rng.standard_normal(lead + ((K, M) if spec.trans_a else (M, K)))
    B = rng.standard_normal(lead + ((N, K) if spec.trans_b else (K, N)))
    C, report = run_gemm(program, A, B, alpha=alpha, beta=0.0, guarded=guarded)
    if spec.trans_a:
        A = A.swapaxes(-1, -2)
    if spec.trans_b:
        B = B.swapaxes(-1, -2)
    if spec.prologue_func:
        A = get_elementwise(spec.prologue_func).numpy_fn(A)
    expected = alpha * (A @ B)
    if spec.epilogue_func:
        expected = get_elementwise(spec.epilogue_func).numpy_fn(expected)
    return report, float(np.abs(C - expected).max())
