"""RMA engine: the row and column broadcasts of Fig. 8."""

import numpy as np
import pytest

from repro.errors import InvalidRMAError, SynchronizationError
from repro.sunway.arch import SW26010, TOY_ARCH
from repro.sunway.mesh import Cluster


def armed_cluster():
    cluster = Cluster(TOY_ARCH)
    for cpe in cluster.all_cpes():
        cpe.spm.alloc("src", (4, 4))
        cpe.spm.alloc("dst", (4, 4))
        cpe.rma_armed = True
    return cluster


def test_row_broadcast_reaches_whole_row():
    cluster = armed_cluster()
    sender = cluster.cpe(0, 1)
    sender.spm.slot("src", 0)[...] = 7.0
    cluster.rma.row_ibcast(sender, ("src", 0), ("dst", 0), 16, "rs", "rr")
    for cid in range(TOY_ARCH.mesh_cols):
        receiver = cluster.cpe(0, cid)
        receiver.spm.clear_inflight("dst", 0)
        assert (receiver.spm.slot("dst", 0) == 7.0).all()
        assert receiver.reply("rr").value == 1
    # The other row is untouched.
    assert (cluster.cpe(1, 0).spm.slot("dst", 0) == 0).all()
    assert sender.reply("rs").value == 1


def test_col_broadcast_reaches_whole_column():
    cluster = armed_cluster()
    sender = cluster.cpe(1, 0)
    sender.spm.slot("src", 0)[...] = 3.0
    cluster.rma.col_ibcast(sender, ("src", 0), ("dst", 0), 16, "cs", "cr")
    for rid in range(TOY_ARCH.mesh_rows):
        receiver = cluster.cpe(rid, 0)
        receiver.spm.clear_inflight("dst", 0)
        assert (receiver.spm.slot("dst", 0) == 3.0).all()


def test_broadcasts_land_once_the_wait_commits():
    """Row and column broadcasts fill the receivers' slot; each
    receiver's wait commits the transfer and makes the slot readable."""
    cluster = armed_cluster()
    sender = cluster.cpe(1, 1)
    sender.spm.slot("src", 0)[...] = 5.0
    for issue, receiver in (
        (cluster.rma.row_ibcast, cluster.cpe(1, 0)),
        (cluster.rma.col_ibcast, cluster.cpe(0, 1)),
    ):
        issue(sender, ("src", 0), ("dst", 0), 16, "rma_replys", "rma_replyr")
        receiver.finish_wait("rma_replyr", 1)
        receiver.spm.check_readable("dst", 0)  # no raise
        assert (receiver.spm.slot("dst", 0) == 5.0).all()


def test_broadcast_width_follows_the_source_buffer():
    """A float32 source tile moves 4-byte elements."""
    cluster = Cluster(TOY_ARCH)
    for cpe in cluster.all_cpes():
        cpe.spm.alloc("src", (4, 4), dtype=np.float32)
        cpe.spm.alloc("dst", (4, 4), dtype=np.float32)
        cpe.rma_armed = True
    sender = cluster.cpe(0, 0)
    completion = cluster.rma.row_ibcast(
        sender, ("src", 0), ("dst", 0), 16, "rs", "rr"
    )
    assert sender.stats["rma_bytes"] == 16 * 4
    assert completion == pytest.approx(TOY_ARCH.rma_time_s(16 * 4))


def test_receivers_poisoned_until_wait():
    cluster = armed_cluster()
    sender = cluster.cpe(0, 0)
    cluster.rma.row_ibcast(sender, ("src", 0), ("dst", 0), 16, "rs", "rr")
    with pytest.raises(SynchronizationError):
        cluster.cpe(0, 1).spm.check_readable("dst", 0)


def test_rma_requires_synch():
    cluster = Cluster(TOY_ARCH)
    for cpe in cluster.all_cpes():
        cpe.spm.alloc("src", (4, 4))
        cpe.spm.alloc("dst", (4, 4))
    sender = cluster.cpe(0, 0)
    with pytest.raises(SynchronizationError, match="synch"):
        cluster.rma.row_ibcast(sender, ("src", 0), ("dst", 0), 16, "rs", "rr")


def test_rma_rejected_on_sw26010():
    cluster = Cluster(SW26010)
    sender = cluster.cpe(0, 0)
    sender.spm.alloc("src", (4, 4))
    sender.spm.alloc("dst", (4, 4))
    sender.rma_armed = True
    with pytest.raises(InvalidRMAError, match="SW26010"):
        cluster.rma.row_ibcast(sender, ("src", 0), ("dst", 0), 16, "rs", "rr")


def test_sender_source_must_be_ready():
    cluster = armed_cluster()
    sender = cluster.cpe(0, 0)
    sender.spm.mark_inflight("src", 0, "dma pending")
    with pytest.raises(SynchronizationError):
        cluster.rma.row_ibcast(sender, ("src", 0), ("dst", 0), 16, "rs", "rr")


def test_size_validation():
    cluster = armed_cluster()
    sender = cluster.cpe(0, 0)
    with pytest.raises(InvalidRMAError):
        cluster.rma.row_ibcast(sender, ("src", 0), ("dst", 0), 999, "rs", "rr")
    with pytest.raises(InvalidRMAError):
        cluster.rma.row_ibcast(sender, ("src", 0), ("dst", 0), 0, "rs", "rr")


def test_row_and_col_channels_are_independent():
    """A row broadcast and a column broadcast issued together do not
    contend (§6.1: the A and B broadcasts are launched together)."""
    cluster = armed_cluster()
    row_sender = cluster.cpe(0, 0)
    col_sender = cluster.cpe(0, 1)
    t_row = cluster.rma.row_ibcast(row_sender, ("src", 0), ("dst", 0), 16, "a", "b")
    t_col = cluster.rma.col_ibcast(col_sender, ("src", 0), ("dst", 0), 16, "c", "d")
    # Both finish after one broadcast latency, not two.
    assert t_row == pytest.approx(TOY_ARCH.rma_time_s(16 * 8))
    assert t_col == pytest.approx(TOY_ARCH.rma_time_s(16 * 8))
