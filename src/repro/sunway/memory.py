"""Main memory of the simulated core group.

A cluster of SW26010Pro attaches 16 GB of DDR4 to its MPE and CPE mesh
through a memory controller (§2.1).  The simulator represents it as a heap
of named NumPy arrays.  The ``-faddress_align=128`` behaviour the paper
relies on (matrix start addresses aligned to 128 bytes, §8) is modelled by
allocating each array inside a slightly larger pool and slicing at an
aligned offset — NumPy's own allocations do not guarantee 128-byte
alignment, and keeping the property explicit lets tests assert it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

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
        if name in self._arrays:
            raise HardwareError(f"array {name!r} already allocated")
        itemsize = np.dtype(dtype).itemsize
        count = int(np.prod(shape))
        nbytes = count * itemsize
        if self._used + nbytes > self.capacity_bytes:
            raise HardwareError(
                f"main memory exhausted: {self._used + nbytes} > {self.capacity_bytes}"
            )
        raw = np.zeros(count + self.ALIGN // itemsize, dtype=dtype)
        offset = (-raw.ctypes.data) % self.ALIGN // itemsize
        view = raw[offset : offset + count].reshape(shape)
        self._arrays[name] = view
        self._used += nbytes
        return view

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

    def names(self) -> Iterator[str]:
        return iter(self._arrays)

    @property
    def used_bytes(self) -> int:
        return self._used
