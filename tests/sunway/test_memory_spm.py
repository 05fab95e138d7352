"""Main memory and scratch-pad memory."""

import pytest

from repro.errors import HardwareError, SPMOverflowError, SynchronizationError
from repro.sunway.memory import MainMemory
from repro.sunway.spm import ScratchPadMemory


# -- main memory ------------------------------------------------------------


def test_alloc_and_access():
    mem = MainMemory()
    a = mem.alloc("A", (4, 8))
    assert a.shape == (4, 8)
    assert (mem["A"] == 0).all()
    assert "A" in mem


def test_alignment_is_128_bytes():
    mem = MainMemory()
    for index in range(8):
        mem.alloc(f"X{index}", (3, 5))
        assert mem[f"X{index}"].ctypes.data % MainMemory.ALIGN == 0


def test_double_alloc_rejected():
    mem = MainMemory()
    mem.alloc("A", (4, 4))
    with pytest.raises(HardwareError):
        mem.alloc("A", (4, 4))


def test_capacity_enforced():
    mem = MainMemory(capacity_bytes=1024)
    with pytest.raises(HardwareError):
        mem.alloc("A", (1024, 1024))


def test_free_returns_capacity():
    mem = MainMemory(capacity_bytes=8 * 64)
    mem.alloc("A", (8, 8))
    mem.free("A")
    mem.alloc("B", (8, 8))  # fits again
    with pytest.raises(HardwareError):
        mem.free("A")


def test_missing_array_raises():
    with pytest.raises(HardwareError):
        MainMemory()["nope"]


# -- SPM ------------------------------------------------------------------------


def test_spm_alloc_and_capacity():
    spm = ScratchPadMemory(1024, "CPE(0,0)")
    spm.alloc("buf", (8, 8))  # 512 B
    assert spm.used_bytes == 512
    with pytest.raises(SPMOverflowError):
        spm.alloc("big", (16, 8))  # another 1024 B won't fit


def test_spm_overflow_message_names_owner():
    spm = ScratchPadMemory(64, "CPE(3,4)")
    with pytest.raises(SPMOverflowError, match="CPE\\(3,4\\)"):
        spm.alloc("x", (8, 8))


def test_spm_slots():
    spm = ScratchPadMemory(4096)
    spm.alloc("db", (2, 4, 4))
    s0 = spm.slot("db", 0)
    s1 = spm.slot("db", 1)
    s0[...] = 1.0
    assert (s1 == 0).all()
    with pytest.raises(HardwareError):
        spm.slot("db", 2)


def test_spm_single_slot_index_checked():
    spm = ScratchPadMemory(4096)
    spm.alloc("c", (4, 4))
    assert spm.slot("c", 0).shape == (4, 4)
    with pytest.raises(HardwareError):
        spm.slot("c", 1)


def test_inflight_poisoning():
    spm = ScratchPadMemory(4096, "CPE(0,0)")
    spm.alloc("db", (2, 4, 4))
    spm.mark_inflight("db", 0, "dma_iget/reply")
    with pytest.raises(SynchronizationError, match="in flight"):
        spm.check_readable("db", 0)
    spm.check_readable("db", 1)  # other slot unaffected
    spm.clear_inflight("db", 0)
    spm.check_readable("db", 0)


def test_free_all():
    spm = ScratchPadMemory(4096)
    spm.alloc("a", (4, 4))
    spm.mark_inflight("a", 0, "x")
    spm.free_all()
    assert spm.used_bytes == 0
    assert "a" not in spm
