"""CPE reply-counter commits: ``reply = 0`` and ``*_wait_value``."""

import pytest

from repro.sunway.cpe import CPE, ReplyRecord


def make_cpe():
    cpe = CPE(0, 0, 64 * 1024)
    cpe.spm.alloc("tile", (2, 4, 4))
    return cpe


def test_finish_wait_advances_clock_and_unpoisons():
    cpe = make_cpe()
    cpe.spm.mark_inflight("tile", 1, "dma_iget/r")
    cpe.reply("r").add(ReplyRecord(3e-6, ("tile", 1)))
    cpe.finish_wait(cpe.reply("r"), 1)
    assert cpe.clock == pytest.approx(3e-6)
    cpe.spm.check_readable("tile", 1)  # no raise


@pytest.mark.parametrize(
    "counter,armed",
    [("dma_reply#0", True), ("rma_replyr#1", False), ("rbcast_replys", False)],
)
def test_finish_wait_disarms_only_on_rma_counters(counter, armed):
    """A completed RMA wait closes the launch window (§5); a DMA wait
    leaves it open."""
    cpe = make_cpe()
    cpe.rma_armed = True
    cpe.reply(counter).add(ReplyRecord(1e-6))
    cpe.finish_wait(cpe.reply(counter), 1)
    assert cpe.rma_armed is armed


def test_reset_reply():
    cpe = make_cpe()
    cpe.reply("r").add(ReplyRecord(1e-6, ("tile", 0)))
    cpe.lost_replies["r"] = (("tile", 0), 1e-6)
    cpe.reset_reply("r")
    assert not cpe.reply("r").satisfied(1)
    # A reset opens a new transfer window: the old loss no longer applies.
    assert "r" not in cpe.lost_replies
