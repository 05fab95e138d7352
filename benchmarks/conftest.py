"""Shared state for the benchmark suite.

One :class:`PerformanceSimulator` is shared across all benchmark files so
chunk simulations are computed once and reused — per (variant, K) for
short K, per variant's k-step line for long K — the same caching a user
sweeping shapes would rely on.
"""

import pytest

from repro.runtime.simulator import PerformanceSimulator
from repro.sunway.arch import SW26010PRO


@pytest.fixture(scope="session")
def sim():
    return PerformanceSimulator(SW26010PRO)
