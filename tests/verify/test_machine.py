"""ScheduleMachine semantics on handcrafted CPE programs.

Tiny programs built statement-by-statement pin down the machine's
mirrored runtime semantics: in-flight marking, reply-counter ledgers,
synch arming, deadlock detection and the end-of-program sweeps.
"""

from repro.poly.astnodes import (
    ArrayRef,
    Block,
    BlockOpStmt,
    BufferDecl,
    CommStmt,
    CpeProgram,
    Expr,
    IntLit,
    ReplyDecl,
)
from repro.verify.machine import ScheduleMachine


def expr(value):
    """An int becomes a literal; an AST expression passes through."""
    return value if isinstance(value, Expr) else IntLit(value)


def dma_get(buffer, slot=0, reply="r", reply_slot=0, kind="dma_iget"):
    return CommStmt(
        kind,
        {
            "buffer": buffer,
            "slot": expr(slot),
            "reply": reply,
            "reply_slot": expr(reply_slot),
        },
    )


def dma_wait(reply="r", reply_slot=0, value=1):
    return CommStmt(
        "dma_wait_value",
        {"reply": reply, "reply_slot": expr(reply_slot), "value": value},
    )


def rma_wait(reply="rma_rr", reply_slot=0, value=1):
    return CommStmt(
        "rma_wait_value",
        {"reply": reply, "reply_slot": expr(reply_slot), "value": value},
    )


def read(buffer, slot=0):
    return BlockOpStmt(
        op="scale",
        dst=ArrayRef(buffer, (expr(slot),), memory="spm"),
        shape=(1, 1),
    )


def row_bcast(src="s", dst="d", slot=0, kind="rma_row_ibcast"):
    return CommStmt(
        kind,
        {
            "src_buffer": src,
            "src_slot": expr(slot),
            "dst_buffer": dst,
            "dst_slot": expr(slot),
            "replys": "rma_rs",
            "replyr": "rma_rr",
            "reply_slot": expr(slot),
        },
    )


def program(*stmts):
    return CpeProgram(
        buffers=[BufferDecl("buf", (2, 4)), BufferDecl("s", (4,)), BufferDecl("d", (4,))],
        replies=[ReplyDecl("r", 2), ReplyDecl("rma_rs"), ReplyDecl("rma_rr")],
        body=Block(list(stmts)),
    )


def run(mesh, *stmts):
    return ScheduleMachine(program(*stmts), mesh, {}).run()


def test_waited_transfer_is_clean():
    result = run(2, dma_get("buf"), dma_wait(), read("buf"))
    assert result.completed and result.deadlock is None
    assert result.hazards == [] and result.discipline == []
    assert result.stats["dma_issues"] == 4  # one per CPE on the 2×2 mesh
    assert result.stats["waits"] == 4


def test_read_while_in_flight_is_a_hazard():
    result = run(2, dma_get("buf"), read("buf"), dma_wait())
    assert result.hazards
    first = result.hazards[0]
    assert first["violation"] == "read-while-in-flight"
    assert first["buffer"] == "buf" and first["slot"] == 0
    assert "dma_iget" in first["in_flight_cause"]


def test_unwaited_transfer_flagged_at_exit():
    result = run(1, dma_get("buf"))
    violations = {h["violation"] for h in result.hazards}
    assert "unbalanced-reply-counter" in violations
    assert "in-flight-at-exit" in violations
    unbalanced = next(
        h for h in result.hazards if h["violation"] == "unbalanced-reply-counter"
    )
    assert unbalanced["counter"] == "r#0"
    assert unbalanced["issued"] == 1 and unbalanced["waited"] == 0


def test_distinct_slots_do_not_alias():
    # Waiting slot 0 does not clear slot 1's in-flight mark.
    result = run(
        1,
        dma_get("buf", slot=0, reply_slot=0),
        dma_get("buf", slot=1, reply_slot=1),
        dma_wait(reply_slot=0),
        read("buf", slot=1),
        dma_wait(reply_slot=1),
    )
    assert [h["violation"] for h in result.hazards] == ["read-while-in-flight"]
    assert result.hazards[0]["slot"] == 1


def test_synch_then_broadcast_is_clean():
    result = run(
        1,
        CommStmt("synch", {}),
        row_bcast(),
        rma_wait("rma_rr"),
        rma_wait("rma_rs"),
        read("d"),
    )
    assert result.hazards == [] and result.discipline == []
    assert result.stats["rma_issues"] == 1
    assert result.stats["barriers"] == 1


def test_broadcast_without_synch_is_a_violation():
    result = run(1, row_bcast(), rma_wait("rma_rr"), rma_wait("rma_rs"))
    assert result.discipline
    assert result.discipline[0]["violation"] == "rma-without-synch"
    assert result.discipline[0]["src"] == ("s", 0)


def test_wait_disarms_until_next_synch():
    # §5: every launch needs a fresh synch(); reusing the arming of the
    # first barrier after an RMA wait is a violation.
    result = run(
        1,
        CommStmt("synch", {}),
        row_bcast(),
        rma_wait("rma_rr"),
        row_bcast(),
        rma_wait("rma_rr", value=2),
        rma_wait("rma_rs", value=2),
    )
    assert any(
        d["violation"] == "rma-without-synch" for d in result.discipline
    )


def test_wait_on_absent_reply_deadlocks():
    result = run(2, dma_wait("never"))
    assert not result.completed
    assert result.deadlock is not None and "never" in result.deadlock


def test_barrier_counts_whole_mesh():
    result = run(2, CommStmt("synch", {}))
    assert result.completed
    assert result.stats["barriers"] == 4
