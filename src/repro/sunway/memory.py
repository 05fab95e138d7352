"""Main memory of the simulated core group.

A cluster of SW26010Pro attaches 16 GB of DDR4 to its MPE and CPE mesh
through a memory controller (§2.1).  The simulator represents it as a heap
of named NumPy arrays; a timing-only run, which moves no data, declares
its operands instead (:meth:`MainMemory.declare`): shapes with no bytes
behind them.  The ``-faddress_align=128`` behaviour the paper
relies on (matrix start addresses aligned to 128 bytes, §8) is modelled by
allocating each array inside a slightly larger pool and slicing at an
aligned offset — NumPy's own allocations do not guarantee 128-byte
alignment, and keeping the property explicit lets tests assert it.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.errors import HardwareError


class MainMemory:
    """Named array heap with 128-byte-aligned allocations."""

    ALIGN = 128

    def __init__(self, capacity_bytes: int = 16 * 1024**3) -> None:
        self.capacity_bytes = capacity_bytes
        self._arrays: Dict[str, np.ndarray] = {}
        self._used = 0

    # -- allocation ------------------------------------------------------

    def alloc(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Allocate a zero-initialised aligned array."""
        count = self._check(name, shape, dtype)
        itemsize = np.dtype(dtype).itemsize
        raw = np.zeros(count + self.ALIGN // itemsize, dtype=dtype)
        offset = (-raw.ctypes.data) % self.ALIGN // itemsize
        return self._add(name, raw[offset : offset + count].reshape(shape))

    def declare(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Reserve an array that holds no bytes: a read-only zero-stride
        view with the shape a timing-only run reads, so a stray write
        raises instead of landing."""
        self._check(name, shape, dtype)
        return self._add(name, np.broadcast_to(np.zeros((), dtype=dtype), shape))

    def _check(self, name: str, shape: Tuple[int, ...], dtype) -> int:
        """The element count of a new array ``name``, once the name is
        checked free and its bytes to fit."""
        if name in self._arrays:
            raise HardwareError(f"array {name!r} already allocated")
        count = int(np.prod(shape))
        nbytes = count * np.dtype(dtype).itemsize
        if self._used + nbytes > self.capacity_bytes:
            raise HardwareError(
                f"main memory exhausted: {self._used + nbytes} > {self.capacity_bytes}"
            )
        return count

    def _add(self, name: str, array: np.ndarray) -> np.ndarray:
        self._arrays[name] = array
        self._used += array.size * array.itemsize
        return array

    def free(self, name: str) -> None:
        array = self._arrays.pop(name, None)
        if array is None:
            raise HardwareError(f"array {name!r} is not allocated")
        self._used -= array.size * array.itemsize

    # -- access -------------------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise HardwareError(f"array {name!r} is not allocated") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    @property
    def used_bytes(self) -> int:
        return self._used
