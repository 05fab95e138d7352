"""A timing-less mesh machine for compile-time schedule verification.

Replays the generated CPE AST for the *whole* mesh — every CPE
round-robin scheduled — tracking only what the safety checks need:
which SPM buffer slots an asynchronous DMA/RMA has marked in flight,
the reply-counter ledger, and the ``synch()`` barrier with its RMA
arming bit.  Its ledgers follow the runtime semantics of
:mod:`repro.sunway.cpe` / :mod:`repro.sunway.spm`, minus data
movement and the cost model, which makes the double-buffer hazard
check (§6) and the RMA discipline check (§5) decidable before a kernel
is ever admitted.

The body is lowered once per run by :func:`repro.poly.flat.lower`, the
lowering the executor runs too, with leaf instructions that check
instead of moving data.  One *resume* of a CPE runs instructions up to
its next leaf statement (one step), or re-polls the wait or barrier it
is blocked in; ``reply_reset``, the arrival half of ``synch()``,
comments and control flow take no step of their own.  ``run()``
resumes the live CPEs round robin.

The machine runs one *chunk* problem with ``K = 2·k_step`` so both
double-buffer parities (even and odd slots of the peeled/pipelined
schedule) and at least one full steady-state iteration are exercised;
the schedule's control flow does not otherwise depend on the shape, so
this finite run covers the pipelining discipline for every shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.poly.astnodes import (
    ArrayRef,
    BinExpr,
    BlockOpStmt,
    CommStmt,
    CpeProgram,
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
    constant,
    lower,
    reply_key,
)
from repro.sunway.cpe import is_rma_counter

#: Resume-count ceiling: far above any real schedule (a chunk run is a
#: few thousand statements per CPE) but bounds pathological input.
MAX_STEPS = 2_000_000

#: Witnesses retained per category before the machine stops recording.
MAX_WITNESSES = 10


@dataclass
class MachineResult:
    """What one machine run observed."""

    completed: bool = True
    deadlock: Optional[str] = None
    #: Buffer slots read (or freed into a new transfer) while in flight.
    hazards: List[Dict[str, object]] = field(default_factory=list)
    #: RMA discipline violations (unarmed issues, unbalanced counters,
    #: mismatched sender sets, leftover in-flight broadcast data).
    discipline: List[Dict[str, object]] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)


class _CpeState(Cursor):
    """Per-CPE verification state: in-flight map, reply ledger, and
    where the CPE is in the instruction stream."""

    __slots__ = (
        "rid",
        "cid",
        "inflight",
        "counters",
        "records",
        "waited",
        "armed",
        "token",
        "blocked",
    )

    def __init__(self, rid: int, cid: int, env: Dict[str, object]) -> None:
        super().__init__(env)
        self.rid = rid
        self.cid = cid
        #: (buffer, slot) -> cause string, exactly like ScratchPadMemory.
        self.inflight: Dict[Tuple[str, int], str] = {}
        #: reply key -> cumulative count since last reset.
        self.counters: Dict[str, int] = {}
        #: reply key -> per-message (buffer, slot) records (None for the
        #: sender-side RMA reply, which marks no local data in flight).
        self.records: Dict[str, List[Optional[Tuple[str, int]]]] = {}
        #: reply key -> highest value ever waited since last reset.
        self.waited: Dict[str, int] = {}
        self.armed = False
        #: barrier generation this CPE arrived in.
        self.token = 0
        #: why the last resume blocked (deadlock reports).
        self.blocked = ""


class ScheduleMachine:
    """Run one CPE program across a mesh, recording safety violations.

    Violations are *recorded*, not raised: a broken schedule usually
    trips several related invariants and the report should show the
    first few witnesses of each kind, not die on the first.
    """

    def __init__(
        self,
        program: CpeProgram,
        mesh: int,
        params: Dict[str, int],
    ) -> None:
        self.program = program
        self.mesh = mesh
        self.params = dict(params)
        self.result = MachineResult()
        self._arrived = 0
        self._generation = 0
        #: (generation, kind) -> list of (channel, (rid, cid)) senders.
        self._rma_log: Dict[Tuple[int, str], List[Tuple[int, Tuple[int, int]]]] = {}
        self._stats = {
            "dma_issues": 0,
            "rma_issues": 0,
            "waits": 0,
            "barriers": 0,
            "steps": 0,
        }
        self.states = [
            [
                _CpeState(
                    rid,
                    cid,
                    dict(self.params, Rid=rid, Cid=cid, alpha=1.0, beta=1.0),
                )
                for cid in range(mesh)
            ]
            for rid in range(mesh)
        ]

    # -- driving loop -------------------------------------------------------

    def run(self) -> MachineResult:
        code, slots = lower(self.program.body, self._leaf)
        live = [s for row in self.states for s in row]
        for state in live:
            state.loops = [None] * slots
        steps = 0
        while live:
            progressed = False
            for state in list(live):
                signal = code[state.pc](state)
                while not signal:
                    signal = code[state.pc](state)
                if signal == DONE:
                    live.remove(state)
                    progressed = True
                    continue
                steps += 1
                if signal == STEP:
                    progressed = True
                if steps > MAX_STEPS:
                    self.result.completed = False
                    self.result.deadlock = (
                        f"schedule did not terminate within {MAX_STEPS} steps"
                    )
                    self._finish()
                    return self.result
            if not progressed and live:
                # Every live CPE blocked in this round, each exactly once.
                reasons = {
                    f"CPE({state.rid},{state.cid}): {state.blocked}"
                    for state in live
                }
                self.result.completed = False
                self.result.deadlock = "; ".join(sorted(reasons)[:8])
                self._finish()
                return self.result
        self._stats["steps"] = steps
        self._finish()
        return self.result

    # -- leaf instructions ----------------------------------------------------

    def _leaf(self, stmt: Stmt) -> List[Instr]:
        if isinstance(stmt, CommStmt):
            return self._comm(stmt)
        if isinstance(stmt, KernelCall):
            return [self._reads((
                (stmt.c_ref, "kernel C operand"),
                (stmt.a_ref, "kernel A operand"),
                (stmt.b_ref, "kernel B operand"),
            ))]
        if isinstance(stmt, BlockOpStmt):
            return [self._reads(((stmt.dst, f"block op {stmt.op!r}"),))]
        if isinstance(stmt, NaiveComputeStmt):
            return [self._reads(
                ((stmt.target, "naive compute target"),)
                + tuple(
                    (ref, "naive compute operand")
                    for ref in _spm_refs(stmt.value)
                )
            )]
        # Anything else (AssignStmt over scalars, …) is hazard-neutral.
        return [_step]

    def _comm(self, stmt: CommStmt) -> List[Instr]:
        kind = stmt.kind
        if kind == "reply_reset":
            return [self._reply_reset(stmt.args)]
        if kind in ("dma_iget", "dma_iput"):
            return [self._dma(kind, stmt.args)]
        if kind in ("dma_wait_value", "rma_wait_value"):
            return [self._wait(kind, stmt.args)]
        if kind in ("rma_row_ibcast", "rma_col_ibcast"):
            return [self._rma(kind, stmt.args)]
        if kind == "synch":
            return self._synch()
        return [_step]

    def _reads(self, refs) -> Instr:
        """A compute statement: check every SPM operand it reads."""
        checks = tuple(
            (
                ref.array,
                compile_expr(ref.indices[0]) if ref.indices else constant(0),
                what,
            )
            for ref, what in refs
            if ref.memory == "spm"
        )
        check_slot = self._check_slot

        def reads(state: _CpeState) -> int:
            inflight = state.inflight
            for buffer, slot_of, what in checks:
                slot = slot_of(state)
                if (buffer, slot) in inflight:
                    check_slot(state, buffer, slot, what)
            state.pc += 1
            return STEP

        return reads

    def _reply_reset(self, args) -> Instr:
        key_of = reply_key(args)
        flag_unconsumed = self._flag_unconsumed

        def reply_reset(state: _CpeState) -> int:
            key = key_of(state)
            flag_unconsumed(state, key, at="reply_reset")
            state.counters[key] = 0
            state.records[key] = []
            state.waited[key] = 0
            state.pc += 1
            return NEXT

        return reply_reset

    def _dma(self, kind: str, args) -> Instr:
        slot_of = compile_expr(args["slot"])
        buffer = str(args["buffer"])
        key_of = reply_key(args)
        cause = f"{kind}/"
        # A put *reads* the SPM source; mirror DMAEngine.iput's
        # check_readable-then-mark order.
        put = kind == "dma_iput"
        check_slot = self._check_slot
        stats = self._stats

        def dma(state: _CpeState) -> int:
            slot = slot_of(state)
            key = key_of(state)
            if put:
                check_slot(state, buffer, slot, "dma_iput source")
            state.inflight[(buffer, slot)] = cause + key
            counters = state.counters
            counters[key] = counters.get(key, 0) + 1
            state.records.setdefault(key, []).append((buffer, slot))
            stats["dma_issues"] += 1
            state.pc += 1
            return STEP

        return dma

    def _wait(self, kind: str, args) -> Instr:
        key_of = reply_key(args)
        value = int(args.get("value", 1))
        finish_wait = self._finish_wait
        stats = self._stats

        def wait(state: _CpeState) -> int:
            key = key_of(state)
            if state.counters.get(key, 0) < value:
                state.blocked = f"{kind} {key} >= {value}"
                return BLOCKED
            finish_wait(state, key, value)
            stats["waits"] += 1
            state.pc += 1
            return STEP

        return wait

    def _rma(self, kind: str, args) -> Instr:
        src_slot_of = compile_expr(args["src_slot"])
        dst_slot_of = compile_expr(args["dst_slot"])
        reply_slot_of = compile_expr(args["reply_slot"])
        src = str(args["src_buffer"])
        dst = str(args["dst_buffer"])
        replys = args["replys"]
        replyr = args["replyr"]
        issue = self._issue_rma
        stats = self._stats

        def rma(state: _CpeState) -> int:
            slot_s = src_slot_of(state)
            slot_d = dst_slot_of(state)
            reply_slot = reply_slot_of(state)
            issue(
                state, kind, src, slot_s, dst, slot_d,
                f"{replys}#{reply_slot}", f"{replyr}#{reply_slot}",
            )
            stats["rma_issues"] += 1
            state.pc += 1
            return STEP

        return rma

    def _synch(self) -> List[Instr]:
        """``synch()``: the last CPE of the mesh to arrive opens the
        barrier and arms every CPE; the others spin until it opens."""
        mesh_size = self.mesh * self.mesh
        everyone = [s for row in self.states for s in row]
        stats = self._stats

        def arrive(state: _CpeState) -> int:
            state.token = self._generation
            self._arrived += 1
            if self._arrived == mesh_size:
                self._arrived = 0
                self._generation += 1
                for other in everyone:
                    other.armed = True
            state.pc += 1
            return NEXT

        def barrier(state: _CpeState) -> int:
            if self._generation <= state.token:
                state.blocked = "synch"
                return BLOCKED
            stats["barriers"] += 1
            state.pc += 1
            return STEP

        return [arrive, barrier]

    # -- the runtime's ledger semantics ----------------------------------------

    def _issue_rma(
        self,
        state: _CpeState,
        kind: str,
        src: str,
        slot_s: int,
        dst: str,
        slot_d: int,
        replys: str,
        replyr: str,
    ) -> None:
        if not state.armed:
            self._record(
                self.result.discipline,
                {
                    "violation": "rma-without-synch",
                    "cpe": (state.rid, state.cid),
                    "kind": kind,
                    "src": (src, slot_s),
                    "detail": (
                        "RMA issued without a preceding synch(); the §5 "
                        "discipline requires re-arming before every launch"
                    ),
                },
            )
        # The broadcast reads its SPM source on the sender.
        self._check_slot(state, src, slot_s, f"{kind} source")
        row_bcast = kind == "rma_row_ibcast"
        channel = state.rid if row_bcast else state.cid
        self._rma_log.setdefault((self._generation, kind), []).append(
            (channel, (state.rid, state.cid))
        )
        if row_bcast:
            receivers = self.states[state.rid]
        else:
            receivers = [row[state.cid] for row in self.states]
        for receiver in receivers:
            receiver.inflight[(dst, slot_d)] = f"rma/{replyr}"
            receiver.counters[replyr] = receiver.counters.get(replyr, 0) + 1
            receiver.records.setdefault(replyr, []).append((dst, slot_d))
        state.counters[replys] = state.counters.get(replys, 0) + 1
        state.records.setdefault(replys, []).append(None)

    def _finish_wait(self, state: _CpeState, key: str, value: int) -> None:
        """The ledger half of :meth:`repro.sunway.cpe.CPE.finish_wait`:
        consume the first ``value`` records, clearing their in-flight
        marks; a wait on an RMA counter disarms the CPE (a fresh synch()
        is required before the next broadcast)."""
        for record in state.records.get(key, [])[:value]:
            if record is not None:
                state.inflight.pop(record, None)
        state.waited[key] = max(state.waited.get(key, 0), value)
        if is_rma_counter(key):
            state.armed = False

    def _check_slot(self, state: _CpeState, buffer: str, slot: int, what: str) -> None:
        cause = state.inflight.get((buffer, slot))
        if cause is None:
            return
        self._record(
            self.result.hazards,
            {
                "violation": "read-while-in-flight",
                "cpe": (state.rid, state.cid),
                "buffer": buffer,
                "slot": slot,
                "in_flight_cause": cause,
                "read_by": what,
            },
        )

    def _flag_unconsumed(self, state: _CpeState, key: str, at: str) -> None:
        issued = state.counters.get(key, 0)
        waited = state.waited.get(key, 0)
        if issued <= waited:
            return
        sink = (
            self.result.discipline
            if is_rma_counter(key)
            else self.result.hazards
        )
        self._record(
            sink,
            {
                "violation": "unbalanced-reply-counter",
                "cpe": (state.rid, state.cid),
                "counter": key,
                "issued": issued,
                "waited": waited,
                "at": at,
            },
        )

    def _record(self, sink: List[Dict[str, object]], witness: Dict[str, object]) -> None:
        if len(sink) < MAX_WITNESSES:
            sink.append(witness)

    # -- end-of-run analysis ------------------------------------------------

    def _finish(self) -> None:
        result = self.result
        result.stats = dict(self._stats)
        for row in self.states:
            for state in row:
                for key in sorted(state.counters):
                    self._flag_unconsumed(state, key, at="end-of-program")
                for (buffer, slot), cause in sorted(state.inflight.items()):
                    sink = (
                        result.discipline
                        if cause.startswith("rma/")
                        else result.hazards
                    )
                    self._record(
                        sink,
                        {
                            "violation": "in-flight-at-exit",
                            "cpe": (state.rid, state.cid),
                            "buffer": buffer,
                            "slot": slot,
                            "in_flight_cause": cause,
                        },
                    )
        # Sender-set discipline: within one barrier generation each
        # row/column channel carries at most one broadcast, and either
        # every channel of the mesh participates or none does — a strict
        # subset means some CPEs wait for data that never arrives.
        for (generation, kind), entries in sorted(self._rma_log.items()):
            per_channel: Dict[int, List[Tuple[int, int]]] = {}
            for channel, sender in entries:
                per_channel.setdefault(channel, []).append(sender)
            for channel, senders in sorted(per_channel.items()):
                if len(set(senders)) > 1:
                    self._record(
                        result.discipline,
                        {
                            "violation": "duplicate-sender",
                            "kind": kind,
                            "generation": generation,
                            "channel": channel,
                            "senders": sorted(set(senders)),
                        },
                    )
            if 0 < len(per_channel) < self.mesh:
                self._record(
                    result.discipline,
                    {
                        "violation": "partial-sender-set",
                        "kind": kind,
                        "generation": generation,
                        "channels": sorted(per_channel),
                        "expected_channels": self.mesh,
                    },
                )


def _step(state: _CpeState) -> int:
    state.pc += 1
    return STEP


def _spm_refs(expr) -> List[ArrayRef]:
    """All SPM array references inside an expression tree."""
    refs: List[ArrayRef] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ArrayRef):
            if node.memory == "spm":
                refs.append(node)
            stack.extend(node.indices)
        elif isinstance(node, BinExpr):
            stack.extend((node.lhs, node.rhs))
        elif hasattr(node, "args"):
            stack.extend(getattr(node, "args"))
        elif hasattr(node, "ref"):
            stack.append(getattr(node, "ref"))
    return refs
