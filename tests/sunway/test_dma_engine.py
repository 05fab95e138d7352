"""DMA engine: size/len/strip semantics of §4 (Fig. 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import InvalidDMAError, SynchronizationError
from repro.service import CompileService, ServiceConfig
from repro.sunway import dma_engine
from repro.sunway.arch import TOY_ARCH
from repro.sunway.cpe import CPE
from repro.sunway.dma_engine import DMAEngine
from repro.sunway.mesh import Cluster


def make_cpe(spm_bytes=64 * 1024):
    cpe = CPE(0, 0, spm_bytes)
    cpe.spm.alloc("tile", (4, 8))
    return cpe


def make_engine():
    return DMAEngine(TOY_ARCH)


def test_iget_strided_tile():
    """Fetch a 4x8 tile out of a 16x32 matrix: len=8, strip=32-8."""
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.arange(16 * 32, dtype=float).reshape(16, 32)
    dst = cpe.spm.slot("tile", 0)
    offset = 2 * 32 + 4  # start at row 2, column 4
    engine.iget(
        cpe, ("tile", 0), matrix, offset,
        size=32, length=8, strip=24, reply_name="r",
    )
    expected = matrix[2:6, 4:12]
    assert (dst == expected).all()


def test_iput_roundtrip():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    tile = cpe.spm.slot("tile", 0)
    tile[...] = np.arange(32.0).reshape(4, 8)
    cpe.spm.clear_inflight("tile", 0)
    engine.iput(
        cpe, matrix, 5 * 32 + 8, ("tile", 0),
        size=32, length=8, strip=24, reply_name="w",
    )
    assert (matrix[5:9, 8:16] == tile).all()
    assert matrix.sum() == tile.sum()


def test_reply_counter_increments():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    for expected in (1, 2):
        engine.iget(cpe, ("tile", 0), matrix, 0, 32, 8, 24, "r")
        assert cpe.reply("r").value == expected


def test_inflight_until_wait():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    engine.iget(cpe, ("tile", 0), matrix, 0, 32, 8, 24, "r")
    with pytest.raises(SynchronizationError):
        cpe.spm.check_readable("tile", 0)


def test_iput_requires_ready_source():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    cpe.spm.mark_inflight("tile", 0, "pending get")
    with pytest.raises(SynchronizationError):
        engine.iput(cpe, matrix, 0, ("tile", 0), 32, 8, 24, "w")


@pytest.mark.parametrize(
    "size,length,strip",
    [
        (0, 8, 24),      # empty transfer
        (32, 0, 24),     # zero run
        (33, 8, 24),     # size not a multiple of len
        (32, 8, -1),     # negative strip
        (4096, 8, 24),   # larger than the SPM tile
    ],
)
def test_argument_validation(size, length, strip):
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    with pytest.raises(InvalidDMAError):
        engine.iget(cpe, ("tile", 0), matrix, 0, size, length, strip, "r")


def test_out_of_bounds_rejected():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((4, 8))
    with pytest.raises(InvalidDMAError):
        engine.iget(cpe, ("tile", 0), matrix,
                    offset=8, size=32, length=8, strip=24, reply_name="r")


def test_channel_serialises_messages():
    """Two messages issued at the same instant occupy the channel back to
    back: the second completes strictly later."""
    engine = make_engine()
    cpe_a, cpe_b = make_cpe(), CPE(0, 1, 64 * 1024)
    cpe_b.spm.alloc("tile", (4, 8))
    matrix = np.zeros((16, 32))
    t1 = engine.iget(cpe_a, ("tile", 0), matrix, 0, 32, 8, 24, "r")
    t2 = engine.iget(cpe_b, ("tile", 0), matrix, 0, 32, 8, 24, "r")
    assert t2 > t1
    # len = 8 doubles = 64 B: shorter than the DDR burst, so the message
    # pays the stride penalty.
    assert t2 - t1 == pytest.approx(TOY_ARCH.dma_time_s(32 * 8, run_bytes=8 * 8))
    assert TOY_ARCH.dma_time_s(32 * 8, run_bytes=64) > TOY_ARCH.dma_time_s(32 * 8, run_bytes=256)


def test_timing_only_mode_skips_data():
    engine = make_engine()
    engine.move_data = False
    cpe = make_cpe()
    matrix = np.arange(16.0 * 32).reshape(16, 32)
    dst = cpe.spm.slot("tile", 0)
    engine.iget(cpe, ("tile", 0), matrix, 0, 32, 8, 24, "r")
    assert (dst == 0).all()
    assert cpe.reply("r").value == 1


def test_roundtrip_through_the_wait():
    """Get a tile, commit the wait, update it in SPM and put it back."""
    cluster = Cluster(TOY_ARCH)
    A = cluster.memory.alloc("A", (16, 16))
    A[...] = np.arange(256.0).reshape(16, 16)
    cpe = cluster.cpe(0, 0)
    cpe.spm.alloc("tile", (2, 4, 4))
    cluster.dma.iget(cpe, ("tile", 0), A, offset=0, size=16, length=4,
                     strip=12, reply_name="r")
    assert cpe.reply("r").satisfied(1)
    cpe.finish_wait(cpe.reply("r"), 1)
    tile = cpe.spm.slot("tile", 0)
    assert (tile == A[:4, :4]).all()
    tile += 1
    cluster.dma.iput(cpe, A, 0, ("tile", 0), size=16, length=4,
                     strip=12, reply_name="w")
    cpe.finish_wait(cpe.reply("w"), 1)
    assert (A[:4, :4] == tile).all()


def test_half_width_elements_halve_channel_occupancy():
    """A float32 SPM tile moves 4-byte elements: half the channel time of
    a float64 one (for runs longer than the DDR burst, where no stride
    penalty interferes)."""
    engine = make_engine()
    wide, narrow = CPE(0, 0, 64 * 1024), CPE(0, 1, 64 * 1024)
    wide.spm.alloc("tile", (2, 8, 8))
    narrow.spm.alloc("tile", (2, 8, 8), dtype=np.float32)
    matrix = np.zeros((16, 16))
    t8 = engine.iget(wide, ("tile", 0), matrix, 0, size=64, length=32,
                     strip=0, reply_name="a")
    t4_start = engine.channel_free
    t4 = engine.iget(narrow, ("tile", 0), matrix, 0, size=64, length=32,
                     strip=0, reply_name="b")
    assert (t4 - t4_start) < t8
    assert wide.stats["dma_bytes"] == 2 * narrow.stats["dma_bytes"] == 512


@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 8),
    row0=st.integers(0, 6),
    col0=st.integers(0, 8),
)
@settings(max_examples=80, deadline=None)
def test_prop_strided_gather_matches_slicing(rows, cols, row0, col0):
    """The size/len/strip encoding reproduces arbitrary subtile fetches."""
    engine = make_engine()
    cpe = CPE(0, 0, 64 * 1024)
    cpe.spm.alloc("t", (rows, cols))
    matrix = np.arange(12.0 * 16).reshape(12, 16)
    if row0 + rows > 12 or col0 + cols > 16:
        return
    dst = cpe.spm.slot("t", 0)
    engine.iget(
        cpe, ("t", 0), matrix,
        offset=row0 * 16 + col0,
        size=rows * cols, length=cols, strip=16 - cols, reply_name="r",
    )
    assert (dst == matrix[row0 : row0 + rows, col0 : col0 + cols]).all()


def test_default_run_computes_no_tile_checksums(monkeypatch):
    """Checksums are off by default, so data-moving DMA never computes
    one: with ``tile_checksum`` made to raise, a default run still
    matches NumPy."""

    def refuse(tile):
        raise AssertionError("tile_checksum ran with checksums off")

    monkeypatch.setattr(dma_engine, "tile_checksum", refuse)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 256))
    b = rng.standard_normal((256, 512))
    result = api.run(None, a, b, service=CompileService(
        ServiceConfig(cache_dir=None)
    ))
    assert np.allclose(result.c, a @ b)
