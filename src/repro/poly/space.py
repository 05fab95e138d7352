"""Named spaces for polyhedral objects.

A *space* identifies the tuple an integer set or map ranges over.  For a
statement ``S1(i, j, k)`` the space is ``Space("S1", ("i", "j", "k"))``;
for an array ``A[r][c]`` it is ``Space("A", ("r", "c"))``.  Spaces are
immutable and hashable so they can key dictionaries (e.g. the statement
table of a domain node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import SpaceMismatchError


@dataclass(frozen=True)
class Space:
    """An immutable named tuple space.

    Parameters
    ----------
    name:
        Statement or array name (``"S1"``, ``"A"``...).  The anonymous
        space uses an empty name.
    dims:
        Ordered dimension names.  Dimension names must be unique within
        the space.
    """

    name: str
    dims: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.dims)) != len(self.dims):
            raise SpaceMismatchError(
                f"duplicate dimension names in space {self.name}: {self.dims}"
            )

    # -- basic queries ------------------------------------------------

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.dims)

    def index(self, dim: str) -> int:
        """Position of dimension ``dim`` (raises if absent)."""
        try:
            return self.dims.index(dim)
        except ValueError:
            raise SpaceMismatchError(
                f"dimension {dim!r} not in space {self}"
            ) from None

    def has_dim(self, dim: str) -> bool:
        return dim in self.dims

    def __iter__(self) -> Iterator[str]:
        return iter(self.dims)

    # -- derivation ----------------------------------------------------

    def drop(self, dim: str) -> "Space":
        """Remove one dimension."""
        self.index(dim)
        return Space(self.name, tuple(d for d in self.dims if d != dim))

    def insert(self, position: int, dim: str) -> "Space":
        """Insert a new dimension at ``position``."""
        if dim in self.dims:
            raise SpaceMismatchError(f"dimension {dim!r} already in {self}")
        dims = list(self.dims)
        dims.insert(position, dim)
        return Space(self.name, tuple(dims))

    # -- display -------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({', '.join(self.dims)})"


def anonymous(dims: Tuple[str, ...]) -> Space:
    """An unnamed space, used for schedule tuples."""
    return Space("", tuple(dims))
