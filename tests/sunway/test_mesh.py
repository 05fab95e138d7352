"""Cluster topology, barrier, MPE and reply counters."""

import numpy as np
import pytest

from repro.errors import HardwareError, MeshError, SynchronizationError
from repro.sunway.arch import TOY_ARCH
from repro.sunway.cpe import CPE, ReplyCounter, ReplyRecord
from repro.sunway.mesh import Barrier, Cluster


def test_cluster_topology():
    cluster = Cluster(TOY_ARCH)
    assert len(cluster.all_cpes()) == 4
    assert cluster.cpe(1, 1).rid == 1
    with pytest.raises(MeshError):
        cluster.cpe(2, 0)


def test_barrier_releases_after_all_arrive():
    cluster = Cluster(TOY_ARCH)
    barrier = cluster.barrier
    cpes = cluster.all_cpes()
    cpes[0].clock = 5e-6
    tokens = [barrier.arrive(cpe) for cpe in cpes]
    assert all(barrier.passed(t) for t in tokens)
    # Everyone synced to the slowest clock plus the barrier cost.
    release = 5e-6 + TOY_ARCH.sync_us * 1e-6
    for cpe in cpes:
        assert cpe.clock == pytest.approx(release)
        assert cpe.rma_armed


def test_barrier_reopens_for_each_synch():
    """Consecutive ``synch()`` calls each get a generation of their own:
    a CPE arriving at the next one waits again until every CPE is there."""
    cluster = Cluster(TOY_ARCH)
    barrier = cluster.barrier
    cpes = cluster.all_cpes()
    first = [barrier.arrive(cpe) for cpe in cpes]
    assert all(barrier.passed(t) for t in first)
    early = barrier.arrive(cpes[0])
    assert not barrier.passed(early)
    second = [early] + [barrier.arrive(cpe) for cpe in cpes[1:]]
    assert all(barrier.passed(t) for t in second)
    assert barrier.generation == 2


def test_barrier_not_passed_early():
    cluster = Cluster(TOY_ARCH)
    token = cluster.barrier.arrive(cluster.cpe(0, 0))
    assert not cluster.barrier.passed(token)


def test_barrier_double_arrival_rejected():
    cluster = Cluster(TOY_ARCH)
    cpe = cluster.cpe(0, 0)
    cluster.barrier.arrive(cpe)
    with pytest.raises(MeshError):
        cluster.barrier.arrive(cpe)


def test_spawn_charges_every_cpe():
    cluster = Cluster(TOY_ARCH)
    cluster.begin_spawn()
    for cpe in cluster.all_cpes():
        assert cpe.clock == pytest.approx(TOY_ARCH.spawn_us * 1e-6)
    assert cluster.spawn_count == 1


def test_reset_mesh():
    cluster = Cluster(TOY_ARCH)
    cpe = cluster.cpe(0, 0)
    cpe.clock = 1.0
    cpe.spm.alloc("x", (2, 2))
    cpe.reply("r").add(ReplyRecord(1.0))
    cluster.reset_mesh()
    assert cpe.clock == 0.0
    assert "x" not in cpe.spm
    assert not cpe.replies


def test_elapsed_is_slowest_cpe():
    cluster = Cluster(TOY_ARCH)
    cluster.cpe(1, 0).clock = 3.0
    assert cluster.elapsed() == 3.0


def test_total_stats_aggregates():
    cluster = Cluster(TOY_ARCH)
    cluster.cpe(0, 0).stats["kernel_calls"] = 3
    cluster.cpe(1, 1).stats["kernel_calls"] = 4
    assert cluster.total_stats()["kernel_calls"] == 7


def test_mpe_elementwise():
    cluster = Cluster(TOY_ARCH)
    data = np.array([-1.0, 2.0])
    seconds = cluster.mpe.elementwise(data, lambda x: np.maximum(x, 0))
    assert (data == [0.0, 2.0]).all()
    assert seconds == pytest.approx(2 / TOY_ARCH.mpe_elementwise_rate)


# -- reply counters ------------------------------------------------------------


def test_reply_counter_lifecycle():
    counter = ReplyCounter("r")
    counter.add(ReplyRecord(1.0, ("buf", 0)))
    counter.add(ReplyRecord(2.0, ("buf", 1)))
    assert counter.satisfied(2)
    assert counter.completion_time(2) == 2.0
    assert counter.completion_time(1) == 1.0
    counter.reset()
    assert counter.value == 0
    assert not counter.satisfied(1)


def test_reply_counter_wait_beyond_completions():
    counter = ReplyCounter("r")
    counter.add(ReplyRecord(1.0))
    with pytest.raises(SynchronizationError):
        counter.completion_time(2)


def test_cpe_clock_cannot_go_backwards():
    cpe = CPE(0, 0, 1024)
    cpe.advance(1.0)
    with pytest.raises(HardwareError):
        cpe.advance(-0.5)
    cpe.sync_to(0.5)  # no-op
    assert cpe.clock == 1.0
