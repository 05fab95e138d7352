"""Multi-dimensional quasi-affine maps (relations).

An :class:`AffineMap` sends points of a domain space to tuples of
quasi-affine expressions — the representation behind

* statement **schedules** (band members such as
  ``S1(i,j,k) -> (floor(i/64), floor(j/64), floor(k/32))``, Fig. 4a);
* **access relations** (``S1(i,j,k) -> A(i,k)``);
* the affine relations attached to **extension nodes** for DMA/RMA
  statements (``(d0,d1,d2) -> readA(d3,d4)``, Fig. 2e).

The map may carry an optional range space, giving the image tuple a name
(an array, or an auxiliary copy statement).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SpaceMismatchError
from repro.poly.affine import AffExpr, IntLike
from repro.poly.space import Space


class AffineMap:
    """A map ``domain_space -> (expr_0, ..., expr_{n-1})``."""

    __slots__ = ("domain_space", "exprs", "range_space")

    def __init__(
        self,
        domain_space: Space,
        exprs: Sequence[IntLike],
        range_space: Optional[Space] = None,
    ) -> None:
        self.domain_space = domain_space
        self.exprs: Tuple[AffExpr, ...] = tuple(AffExpr.coerce(e) for e in exprs)
        if range_space is not None and range_space.rank != len(self.exprs):
            raise SpaceMismatchError(
                f"range space {range_space} has rank {range_space.rank}, "
                f"but map has {len(self.exprs)} output expressions"
            )
        self.range_space = range_space

    # -- constructors -----------------------------------------------------

    @staticmethod
    def access(domain_space: Space, array: Space, exprs: Sequence[IntLike]) -> "AffineMap":
        """An access relation ``stmt -> array[exprs]``."""
        return AffineMap(domain_space, exprs, array)

    # -- queries ------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.exprs)

    def apply(self, point: Mapping[str, int], params: Mapping[str, int] = ()) -> Tuple[int, ...]:
        env: Dict[str, int] = dict(params or {})
        env.update(point)
        return tuple(e.evaluate(env) for e in self.exprs)

    def variables(self) -> frozenset:
        names = set()
        for e in self.exprs:
            names |= e.variables()
        return frozenset(names)

    # -- transformation --------------------------------------------------------

    def substitute(self, bindings: Mapping[str, IntLike]) -> "AffineMap":
        """Substitute variables (domain dims or parameters) in every output."""
        return AffineMap(
            self.domain_space,
            [e.substitute(bindings) for e in self.exprs],
            self.range_space,
        )

    # -- structural ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineMap)
            and self.domain_space == other.domain_space
            and self.exprs == other.exprs
            and self.range_space == other.range_space
        )

    def __hash__(self) -> int:
        return hash((self.domain_space, self.exprs, self.range_space))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        target = self.range_space.name if self.range_space else ""
        body = ", ".join(str(e) for e in self.exprs)
        return f"[{self.domain_space} -> {target}({body})]"

    __repr__ = __str__
