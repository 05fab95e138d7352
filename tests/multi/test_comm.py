"""The simulated inter-cluster communicator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.multi.comm import NetworkSpec, SimComm


def test_scatter_gather_roundtrip():
    comm = SimComm(3)
    chunks = [np.full(4, float(i)) for i in range(3)]
    received = comm.scatter(chunks, root=0)
    assert all((received[i] == i).all() for i in range(3))
    gathered = comm.gather(received, root=0)
    assert all((gathered[i] == i).all() for i in range(3))


def test_scatter_size_check():
    comm = SimComm(3)
    with pytest.raises(ConfigurationError):
        comm.scatter([np.zeros(1)], root=0)


def test_rank_validation():
    comm = SimComm(2)
    with pytest.raises(ConfigurationError):
        comm.scatter([np.zeros(1)] * 2, root=5)
    with pytest.raises(ConfigurationError):
        comm.advance(2, 1.0)
    with pytest.raises(ConfigurationError):
        SimComm(0)


def test_same_chip_is_cheaper():
    network = NetworkSpec(groups_per_processor=2)
    nbytes = 10**7
    assert network.link_time_s(nbytes, True) < network.link_time_s(nbytes, False)


def test_processor_mapping():
    comm = SimComm(12, NetworkSpec(groups_per_processor=6))
    assert comm.processor_of(0) == 0
    assert comm.processor_of(5) == 0
    assert comm.processor_of(6) == 1


def test_cross_chip_costs_more():
    nbytes = 8 * 1024 * 1024
    # Two ranks on one chip.
    on_chip = SimComm(2, NetworkSpec(groups_per_processor=6))
    on_chip._charge(0, 1, nbytes)
    # Two ranks across chips.
    across = SimComm(7, NetworkSpec(groups_per_processor=6))
    across._charge(0, 6, nbytes)
    assert across.elapsed() > on_chip.elapsed()


def test_barrier_aligns_clocks():
    comm = SimComm(3)
    comm.advance(1, 5.0)
    comm.barrier()
    assert comm.clocks == [5.0, 5.0, 5.0]


def test_advance_and_elapsed():
    comm = SimComm(2)
    comm.advance(0, 1.0)
    comm.advance(1, 3.0)
    assert comm.elapsed() == 3.0
