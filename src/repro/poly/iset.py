"""Integer sets over named spaces.

An :class:`IntegerSet` is the conjunction of quasi-affine constraints over
the dimensions of a :class:`~repro.poly.space.Space` — the representation
used by the domain node of a schedule tree, e.g.::

    { S1(i, j, k) : 0 <= i < M and 0 <= j < N and 0 <= k < K }

This reproduction needs two levels of power from integer sets:

1. *exact box reasoning* — after the frontend canonicalises the loop nest,
   every set the compiler manipulates is a (parametric) box; footprints of
   affine accesses over boxes are again boxes, computed exactly by interval
   analysis (:meth:`IntegerSet.bounding_box`);
2. *general membership and bounded enumeration* — used by dependence
   analysis and by the property-based test-suite to cross-check the box
   paths against brute force.

Parameters (``M``, ``N``, ``K``...) are ordinary variable names that are
simply not dimensions of the set's space; they stay symbolic until bound by
a parameter environment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import EmptySetError, NonAffineError, PolyhedralError, SpaceMismatchError
from repro.poly.affine import AffExpr, IntLike, aff_const
from repro.poly.space import Space

EQ = "=="
GE = ">="


@dataclass(frozen=True)
class Constraint:
    """A single constraint ``expr >= 0`` or ``expr == 0``."""

    expr: AffExpr
    kind: str = GE

    def __post_init__(self) -> None:
        if self.kind not in (EQ, GE):
            raise PolyhedralError(f"invalid constraint kind {self.kind!r}")

    def holds(self, env: Mapping[str, int]) -> bool:
        value = self.expr.evaluate(env)
        return value == 0 if self.kind == EQ else value >= 0

    def substitute(self, bindings: Mapping[str, IntLike]) -> "Constraint":
        return Constraint(self.expr.substitute(bindings), self.kind)

    def variables(self) -> frozenset:
        return self.expr.variables()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        op = "=" if self.kind == EQ else ">="
        return f"{self.expr} {op} 0"


def ge(expr: IntLike, bound: IntLike = 0) -> Constraint:
    """``expr >= bound``."""
    return Constraint(AffExpr.coerce(expr) - AffExpr.coerce(bound), GE)


def le(expr: IntLike, bound: IntLike) -> Constraint:
    """``expr <= bound``."""
    return Constraint(AffExpr.coerce(bound) - AffExpr.coerce(expr), GE)


def lt(expr: IntLike, bound: IntLike) -> Constraint:
    """``expr < bound``."""
    return Constraint(AffExpr.coerce(bound) - AffExpr.coerce(expr) - 1, GE)


def eq(expr: IntLike, value: IntLike = 0) -> Constraint:
    """``expr == value``."""
    return Constraint(AffExpr.coerce(expr) - AffExpr.coerce(value), EQ)


class IntegerSet:
    """A conjunction of quasi-affine constraints over a named space."""

    __slots__ = ("space", "constraints")

    def __init__(self, space: Space, constraints: Iterable[Constraint] = ()) -> None:
        self.space = space
        # Deduplicate structurally while preserving insertion order.
        seen = set()
        normalised: List[Constraint] = []
        for c in constraints:
            if c not in seen:
                seen.add(c)
                normalised.append(c)
        self.constraints = tuple(normalised)

    # -- construction ----------------------------------------------------

    def with_constraints(self, extra: Iterable[Constraint]) -> "IntegerSet":
        return IntegerSet(self.space, tuple(self.constraints) + tuple(extra))

    # -- queries -----------------------------------------------------------

    def parameters(self) -> frozenset:
        """Free names that are not dimensions of the space."""
        names = set()
        for c in self.constraints:
            names |= c.variables()
        return frozenset(n for n in names if not self.space.has_dim(n))

    def contains(self, point: Mapping[str, int], params: Mapping[str, int] = ()) -> bool:
        env: Dict[str, int] = dict(params or {})
        env.update(point)
        missing = [d for d in self.space.dims if d not in env]
        if missing:
            raise SpaceMismatchError(f"point misses dimensions {missing}")
        return all(c.holds(env) for c in self.constraints)

    # -- box reasoning -------------------------------------------------------

    def bounding_box(
        self, params: Mapping[str, int] = ()
    ) -> Dict[str, Tuple[int, int]]:
        """Exact per-dimension inclusive bounds for box-shaped sets.

        Runs interval constraint propagation to a fixed point: each
        constraint is solved for each dimension it mentions linearly, with
        the remaining terms over-approximated by their current interval.
        For sets whose constraints are conjunctions of per-dimension bounds
        (every set this compiler builds) the result is exact.

        Raises :class:`PolyhedralError` if a dimension is unbounded or the
        set is empty.
        """
        params = dict(params or {})
        box: Dict[str, Tuple[Optional[int], Optional[int]]] = {
            d: (None, None) for d in self.space.dims
        }
        grounded = [c.substitute(params) for c in self.constraints]
        for c in grounded:
            free = c.variables() - set(self.space.dims)
            if free:
                raise PolyhedralError(
                    f"unbound parameters {sorted(free)} in bounding_box of {self}"
                )

        def current(dim: str) -> Tuple[int, int]:
            lo, hi = box[dim]
            if lo is None or hi is None:
                raise _Unbounded(dim)
            return (lo, hi)

        changed = True
        iterations = 0
        while changed:
            changed = False
            iterations += 1
            if iterations > 64 + 4 * len(grounded):
                break  # propagation has converged as far as it will
            for c in grounded:
                for dim in self.space.dims:
                    coeff = c.expr.coefficient(dim)
                    if coeff == 0:
                        continue
                    rest = c.expr - AffExpr.var(dim) * coeff
                    try:
                        rest_box = {
                            d: current(d) for d in rest.variables()
                        }
                    except _Unbounded:
                        continue
                    rlo, rhi = rest.interval(rest_box)
                    lo, hi = box[dim]
                    # coeff*dim + rest >= 0  (or == 0)
                    if c.kind == GE:
                        if coeff > 0:
                            # dim >= (-rest)/coeff; the enclosure over all
                            # rest values uses rest's maximum.
                            new_lo = _ceil_div(-rhi, coeff)
                            if lo is None or new_lo > lo:
                                box[dim] = (new_lo, hi)
                                changed = True
                        else:
                            new_hi = _floor_div(rhi, -coeff)
                            lo, hi = box[dim]
                            if hi is None or new_hi < hi:
                                box[dim] = (lo, new_hi)
                                changed = True
                    else:  # EQ: both directions
                        if coeff > 0:
                            new_lo = _ceil_div(-rhi, coeff)
                            new_hi = _floor_div(-rlo, coeff)
                        else:
                            new_lo = _ceil_div(rlo, -coeff)
                            new_hi = _floor_div(rhi, -coeff)
                        lo, hi = box[dim]
                        updated = (
                            new_lo if lo is None or new_lo > lo else lo,
                            new_hi if hi is None or new_hi < hi else hi,
                        )
                        if updated != (lo, hi):
                            box[dim] = updated
                            changed = True
        result: Dict[str, Tuple[int, int]] = {}
        for dim, (lo, hi) in box.items():
            if lo is None or hi is None:
                raise PolyhedralError(
                    f"dimension {dim!r} is unbounded in {self}"
                )
            if lo > hi:
                raise EmptySetError(f"set {self} is empty along {dim!r}")
            result[dim] = (lo, hi)
        return result

    def points(self, params: Mapping[str, int] = ()) -> Iterator[Dict[str, int]]:
        """Enumerate all integer points (bounded sets only)."""
        try:
            box = self.bounding_box(params)
        except EmptySetError:
            return
        dims = list(self.space.dims)
        ranges = [range(box[d][0], box[d][1] + 1) for d in dims]
        env_params = dict(params or {})
        for combo in itertools.product(*ranges):
            point = dict(zip(dims, combo))
            if self.contains(point, env_params):
                yield point

    def count(self, params: Mapping[str, int] = ()) -> int:
        """Number of integer points (bounded sets only)."""
        return sum(1 for _ in self.points(params))

    # -- structural -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntegerSet)
            and self.space == other.space
            and set(self.constraints) == set(other.constraints)
        )

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.constraints)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = " and ".join(str(c) for c in self.constraints) or "true"
        return f"{{ {self.space} : {body} }}"

    __repr__ = __str__


class _Unbounded(Exception):
    def __init__(self, dim: str) -> None:
        super().__init__(dim)
        self.dim = dim


def _ceil_div(a: int, b: int) -> int:
    """Ceiling division for positive ``b``."""
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    """Floor division for positive ``b``."""
    return a // b


def box_set(
    space: Space,
    bounds: Mapping[str, Tuple[IntLike, IntLike]],
) -> IntegerSet:
    """Build ``{ space : lo_d <= d < hi_d for each dim }``.

    ``bounds`` maps each dimension to a half-open ``(lo, hi)`` pair whose
    entries may be integers or affine expressions in parameters — matching
    the paper's ``0 <= i < M`` style domains.
    """
    constraints: List[Constraint] = []
    for dim in space.dims:
        if dim not in bounds:
            raise SpaceMismatchError(f"missing bounds for dimension {dim!r}")
        lo, hi = bounds[dim]
        constraints.append(ge(AffExpr.var(dim), lo))
        constraints.append(lt(AffExpr.var(dim), hi))
    return IntegerSet(space, constraints)
