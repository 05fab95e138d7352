"""Distance-vector dependence analysis.

The paper relies on isl to "determine the parallelism and tilability of the
3D loop nest" (§1, §2.2): the initial band gets *coincident* flags on the
outer two loops and a *permutable* flag on the whole band.  This module
reproduces that analysis for the statement class the compiler accepts —
perfectly-nested statements with quasi-affine accesses.

Approach
--------
For every pair of accesses to the same array where at least one is a write,
we characterise the set of dependence *distance vectors*

    { d != 0 : ∃ I, I+d ∈ domain, subscripts(I) = subscripts'(I+d) }

For *uniform* pairs (identical linear parts, possibly different constant
offsets) this is the integer solution set of ``L·d = Δc`` — an affine
family ``p + span(B)`` computed by exact rational elimination.  Each loop
dimension is **coincident** iff every family is identically zero on it; the
band is **permutable** (tilable) iff every lexicographically positive
distance is component-wise non-negative, which we decide exactly for the
axis-aligned families produced by linear-algebra statements and
conservatively otherwise.

Non-uniform pairs fall back to a conservative "carries everything" answer
(with an exact enumeration helper available for the test-suite to
cross-check small instances).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.poly.affine import AffExpr
from repro.poly.imap import AffineMap
from repro.poly.iset import IntegerSet


@dataclass(frozen=True)
class Access:
    """One array access of a statement."""

    array: str
    map: AffineMap
    is_write: bool


@dataclass
class DistanceFamily:
    """Integer distance vectors ``particular + span(basis)`` (minus 0).

    ``exact`` is False when the family is a conservative over-approximation
    (non-uniform access pair)."""

    particular: Tuple[int, ...]
    basis: Tuple[Tuple[int, ...], ...]
    exact: bool = True
    source: str = ""

    def is_zero_only(self) -> bool:
        return all(v == 0 for v in self.particular) and not self.basis

    def touches_dim(self, j: int) -> bool:
        if self.particular[j] != 0:
            return True
        return any(b[j] != 0 for b in self.basis)


@dataclass
class DependenceSummary:
    """Result of analysing one statement's self-dependences."""

    loop_dims: Tuple[str, ...]
    families: List[DistanceFamily] = field(default_factory=list)
    coincident: Tuple[bool, ...] = ()
    permutable: bool = False
    reduction_dims: Tuple[str, ...] = ()

    def carried_dims(self) -> List[str]:
        return [d for d, c in zip(self.loop_dims, self.coincident) if not c]


# ---------------------------------------------------------------------------
# Exact rational linear algebra (small systems)
# ---------------------------------------------------------------------------


def _solve_linear_system(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[Tuple[List[Fraction], List[List[Fraction]]]]:
    """Solve ``matrix · d = rhs`` over the rationals.

    Returns ``(particular, nullspace_basis)`` or ``None`` if inconsistent.
    """
    rows = [
        [Fraction(v) for v in row] + [Fraction(b)]
        for row, b in zip(matrix, rhs)
    ]
    ncols = len(matrix[0]) if matrix else 0
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    # Inconsistency: a zero row with non-zero rhs.
    for row in rows[r:]:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            return None
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = rows[i][-1]
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis: List[List[Fraction]] = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -rows[i][fc]
        basis.append(vec)
    return particular, basis


def _integerize(vec: Sequence[Fraction]) -> Optional[Tuple[int, ...]]:
    """Scale a rational vector to the smallest integer multiple."""
    denom = 1
    for v in vec:
        denom = denom * v.denominator // _gcd(denom, v.denominator)
    scaled = [v * denom for v in vec]
    ints = []
    for v in scaled:
        if v.denominator != 1:
            return None
        ints.append(int(v))
    g = 0
    for v in ints:
        g = _gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# Family computation
# ---------------------------------------------------------------------------


def _linear_parts(
    access: AffineMap, loop_dims: Sequence[str]
) -> Optional[Tuple[List[List[int]], List[AffExpr]]]:
    """Split each subscript into (coefficients over loop dims, remainder).

    Returns ``None`` when a subscript contains floor-division terms over
    loop dimensions (non-linear for this analysis)."""
    matrix: List[List[int]] = []
    remainders: List[AffExpr] = []
    for expr in access.exprs:
        for t in expr.divs:
            if t.variables() & set(loop_dims):
                return None
        row = [expr.coefficient(d) for d in loop_dims]
        remainder = expr
        for d in loop_dims:
            remainder = remainder - AffExpr.var(d) * expr.coefficient(d)
        matrix.append(row)
        remainders.append(remainder)
    return matrix, remainders


def dependence_families(
    accesses: Sequence[Access],
    loop_dims: Sequence[str],
) -> List[DistanceFamily]:
    """Distance families for all write/read and write/write pairs."""
    families: List[DistanceFamily] = []
    n = len(loop_dims)
    by_array: Dict[str, List[Access]] = {}
    for a in accesses:
        by_array.setdefault(a.array, []).append(a)
    for array, group in sorted(by_array.items()):
        for a1 in group:
            for a2 in group:
                if not (a1.is_write or a2.is_write):
                    continue
                if a1 is a2 and not a1.is_write:
                    continue
                parts1 = _linear_parts(a1.map, loop_dims)
                parts2 = _linear_parts(a2.map, loop_dims)
                label = f"{array}:{'W' if a1.is_write else 'R'}->" \
                        f"{'W' if a2.is_write else 'R'}"
                if parts1 is None or parts2 is None:
                    families.append(_conservative_family(n, label))
                    continue
                m1, r1 = parts1
                m2, r2 = parts2
                if m1 != m2:
                    families.append(_conservative_family(n, label))
                    continue
                delta: List[int] = []
                uniform = True
                for e1, e2 in zip(r1, r2):
                    diff = e1 - e2
                    if not diff.is_constant():
                        uniform = False
                        break
                    delta.append(diff.constant_value())
                if not uniform:
                    families.append(_conservative_family(n, label))
                    continue
                solution = _solve_linear_system(m1, delta)
                if solution is None:
                    continue  # no dependence at all
                particular, basis = solution
                p_int = _integerize(particular)
                basis_int = []
                ok = p_int is not None
                for b in basis:
                    bi = _integerize(b)
                    if bi is None:
                        ok = False
                        break
                    basis_int.append(bi)
                if not ok:
                    families.append(_conservative_family(n, label))
                    continue
                family = DistanceFamily(p_int, tuple(basis_int), True, label)
                if family.is_zero_only():
                    continue  # only the trivial self-dependence
                families.append(family)
    return families


def _conservative_family(n: int, label: str) -> DistanceFamily:
    """All-dims-touched over-approximation."""
    basis = tuple(
        tuple(1 if i == j else 0 for i in range(n)) for j in range(n)
    )
    return DistanceFamily(tuple([0] * n), basis, False, label)


# ---------------------------------------------------------------------------
# Band attributes
# ---------------------------------------------------------------------------


def _family_permutable(family: DistanceFamily) -> bool:
    """Is every lexicographically positive distance component-wise >= 0?

    Exact for the shapes linear-algebra statements produce:

    * constant distances (empty basis): the lex-positive representative of
      ``{p, -p}`` must be non-negative;
    * pure span families (``p = 0``) with axis-aligned basis: permutable
      iff a single dimension is free (distances ``t·e_j``, whose
      lex-positive half is ``t > 0``).

    Anything else is conservatively non-permutable.
    """
    if not family.exact:
        return False
    p = family.particular
    if not family.basis:
        rep = p if _lex_positive(p) else tuple(-v for v in p)
        return all(v >= 0 for v in rep)
    if any(v != 0 for v in p):
        return False
    axis_dims: Set[int] = set()
    for b in family.basis:
        nonzero = [j for j, v in enumerate(b) if v != 0]
        if len(nonzero) != 1:
            return False
        axis_dims.add(nonzero[0])
    return len(axis_dims) <= 1


def _lex_positive(vec: Sequence[int]) -> bool:
    for v in vec:
        if v > 0:
            return True
        if v < 0:
            return False
    return False


def detect_reductions(
    accesses: Sequence[Access], loop_dims: Sequence[str]
) -> Tuple[str, ...]:
    """Dimensions reduced by an accumulation (read & write through the
    identical access map, with some loop dims absent from the subscripts)."""
    reduced: List[str] = []
    writes = [a for a in accesses if a.is_write]
    reads = [a for a in accesses if not a.is_write]
    for w in writes:
        for r in reads:
            if r.array == w.array and r.map.exprs == w.map.exprs:
                used = w.map.variables()
                for d in loop_dims:
                    if d not in used and d not in reduced:
                        reduced.append(d)
    return tuple(reduced)


def analyze_statement(
    domain: IntegerSet,
    accesses: Sequence[Access],
    loop_dims: Optional[Sequence[str]] = None,
) -> DependenceSummary:
    """Full analysis for one statement: coincidence per dimension,
    permutability of the band and reduction dimensions."""
    dims = tuple(loop_dims if loop_dims is not None else domain.space.dims)
    families = dependence_families(accesses, dims)
    coincident = tuple(
        not any(f.touches_dim(j) for f in families) for j in range(len(dims))
    )
    permutable = all(_family_permutable(f) for f in families)
    reductions = detect_reductions(accesses, dims)
    return DependenceSummary(
        loop_dims=dims,
        families=families,
        coincident=coincident,
        permutable=permutable,
        reduction_dims=reductions,
    )


def enumerate_distances(
    domain: IntegerSet,
    accesses: Sequence[Access],
    params: Mapping[str, int],
    loop_dims: Optional[Sequence[str]] = None,
) -> Set[Tuple[int, ...]]:
    """Brute-force lexicographically-positive distance vectors over a small
    bounded domain.  Test oracle for :func:`dependence_families`."""
    dims = tuple(loop_dims if loop_dims is not None else domain.space.dims)
    points = list(domain.points(params))
    distances: Set[Tuple[int, ...]] = set()
    by_array: Dict[str, List[Access]] = {}
    for a in accesses:
        by_array.setdefault(a.array, []).append(a)
    for group in by_array.values():
        for a1 in group:
            for a2 in group:
                if not (a1.is_write or a2.is_write):
                    continue
                cells1: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
                for pt in points:
                    cells1.setdefault(a1.map.apply(pt, params), []).append(
                        tuple(pt[d] for d in dims)
                    )
                for pt in points:
                    cell = a2.map.apply(pt, params)
                    for src in cells1.get(cell, ()):
                        dst = tuple(pt[d] for d in dims)
                        d = tuple(b - a for a, b in zip(src, dst))
                        if _lex_positive(d):
                            distances.add(d)
    return distances
