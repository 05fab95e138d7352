"""Schedule-tree transformations.

The primitives behind the paper's compute-decomposition and communication
passes:

* :func:`tile_band` — classical rectangular tiling (Fig. 2c / Fig. 4a):
  each band member ``e`` splits into a tile loop ``floor(e/T)`` and a
  point loop ``e - T*floor(e/T)``;
* :func:`isolate_member` — split one member into its own band, used to
  isolate the batch dimension (Fig. 3) and the reduced dimension before
  strip-mining (Fig. 6);
* :func:`strip_mine` — strip-mine a single member by a factor (Fig. 6;
  always valid since no permutation is involved, Kelly & Pugh);
* :func:`attach_copies` — wrap a subtree in an extension node + sequence
  with leading/trailing filtered copy statements (Fig. 2e / Fig. 9);
* :func:`insert_mark` — wrap a subtree in a mark node (§7.2);
* peeling helpers (:func:`peel_eq`, :func:`peel_range`) that build the
  filter constraints of the software-pipelined tree (Fig. 11).

All transformations mutate the tree in place (callers own the tree) and
return the newly created nodes for further surgery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ScheduleTreeError
from repro.poly.affine import AffExpr, IntLike, aff_const, aff_var
from repro.poly.iset import Constraint, eq, ge, lt
from repro.poly.schedule_tree import (
    BandMember,
    BandNode,
    ExtensionNode,
    ExtensionStmt,
    FilterNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
)


def _zero_based_extent(member: BandMember) -> AffExpr:
    """The exclusive upper bound of a zero-based member extent."""
    if member.extent is None:
        raise ScheduleTreeError(
            f"band member {member.var!r} has no extent; set it before tiling"
        )
    lo, hi = member.extent
    if not (lo.is_constant() and lo.constant_value() == 0):
        raise ScheduleTreeError(
            f"band member {member.var!r} extent must start at 0, got {lo}"
        )
    return hi


def tile_band(
    band: BandNode,
    sizes: Sequence[int],
    tile_vars: Sequence[str],
    point_vars: Sequence[str],
) -> Tuple[BandNode, BandNode]:
    """Tile every member of ``band`` rectangularly.

    The band is split in place into an outer *tile* band (iterating
    between tiles) and an inner *point* band (iterating within a tile),
    exactly as Fig. 2c.  Extents assume the divisibility the paper
    enforces by zero padding (§8.1): the tile-loop extent is
    ``extent / size`` and the point-loop extent is ``size``.

    Returns ``(outer_band, inner_band)`` where ``outer_band`` *is* the
    original node object (so parents stay valid).
    """
    if not (len(sizes) == len(tile_vars) == len(point_vars) == band.rank):
        raise ScheduleTreeError(
            f"tile_band: got {len(sizes)} sizes for a rank-{band.rank} band"
        )
    outer_members: List[BandMember] = []
    inner_members: List[BandMember] = []
    for member, size, tvar, pvar in zip(band.members, sizes, tile_vars, point_vars):
        if size <= 0:
            raise ScheduleTreeError(f"tile size must be positive, got {size}")
        hi = _zero_based_extent(member)
        outer_scheds = {
            stmt: sched.floordiv(size) for stmt, sched in member.schedules.items()
        }
        inner_scheds = {
            stmt: sched - sched.floordiv(size) * size
            for stmt, sched in member.schedules.items()
        }
        outer_members.append(
            BandMember(
                var=tvar,
                schedules=outer_scheds,
                coincident=member.coincident,
                extent=(aff_const(0), hi.floordiv(size)),
            )
        )
        inner_members.append(
            BandMember(
                var=pvar,
                schedules=inner_scheds,
                coincident=member.coincident,
                extent=(aff_const(0), aff_const(size)),
            )
        )
    inner_band = BandNode(inner_members, band.permutable, band.children)
    band.members = outer_members
    band.children = [inner_band]
    return band, inner_band


def isolate_member(band: BandNode, index: int) -> Tuple[BandNode, BandNode]:
    """Split member ``index`` of ``band`` into its own band above the rest.

    Used to isolate the batch dimension of batched GEMM (Fig. 3) and the
    reduced tile dimension before strip-mining (Fig. 6).  Returns
    ``(isolated_band, remainder_band)``; ``isolated_band`` is the original
    node object.
    """
    if band.rank < 2:
        raise ScheduleTreeError("cannot isolate a member of a rank-<2 band")
    if not 0 <= index < band.rank:
        raise ScheduleTreeError(f"isolate_member: index {index} out of range")
    isolated = band.members[index]
    rest = [m for i, m in enumerate(band.members) if i != index]
    remainder = BandNode(rest, band.permutable, band.children)
    band.members = [isolated]
    band.children = [remainder]
    return band, remainder


def split_band(band: BandNode, count: int) -> Tuple[BandNode, BandNode]:
    """Split a band after its first ``count`` members (in place)."""
    if not 0 < count < band.rank:
        raise ScheduleTreeError(
            f"split_band: cannot split rank-{band.rank} band after {count}"
        )
    lower = BandNode(band.members[count:], band.permutable, band.children)
    band.members = band.members[:count]
    band.children = [lower]
    return band, lower


def strip_mine(
    band: BandNode,
    index: int,
    factor: int,
    outer_var: str,
    inner_var: str,
) -> Tuple[BandNode, BandNode]:
    """Strip-mine member ``index`` (which must be alone or isolated first).

    The member with schedule ``e`` and extent ``E`` becomes an outer member
    ``floor(e/factor)`` with extent ``E/factor`` over an inner member
    ``e - factor*floor(e/factor)`` with extent ``factor`` — Fig. 6 uses
    ``e = floor(k/32)`` and ``factor = 8`` so the inner loop enumerates the
    eight k-slices held across a mesh row/column.

    Strip-mining involves no permutation and is therefore always valid.
    """
    if band.rank != 1:
        raise ScheduleTreeError(
            "strip_mine expects a rank-1 band; call isolate_member first"
        )
    if index != 0:
        raise ScheduleTreeError("strip_mine: rank-1 band only has member 0")
    if factor <= 0:
        raise ScheduleTreeError(f"strip-mine factor must be positive, got {factor}")
    member = band.members[0]
    hi = _zero_based_extent(member)
    outer = BandMember(
        var=outer_var,
        schedules={s: e.floordiv(factor) for s, e in member.schedules.items()},
        coincident=member.coincident,
        extent=(aff_const(0), hi.floordiv(factor)),
    )
    inner = BandMember(
        var=inner_var,
        schedules={
            s: e - e.floordiv(factor) * factor for s, e in member.schedules.items()
        },
        coincident=member.coincident,
        extent=(aff_const(0), aff_const(factor)),
    )
    inner_band = BandNode([inner], band.permutable, band.children)
    band.members = [outer]
    band.children = [inner_band]
    return band, inner_band


# ---------------------------------------------------------------------------
# Extension / copy insertion (Figs. 2e, 9)
# ---------------------------------------------------------------------------


def attach_copies(
    parent: ScheduleNode,
    subtree: ScheduleNode,
    compute_statements: Sequence[str],
    pre_groups: Sequence[Sequence[ExtensionStmt]] = (),
    post_groups: Sequence[Sequence[ExtensionStmt]] = (),
) -> ExtensionNode:
    """Wrap ``subtree`` (a child of ``parent``) with copy statements.

    Builds, in place of ``subtree``::

        EXTENSION: all copy statements
          SEQUENCE:
            FILTER{pre_groups[0]}    # scheduled together, the ⊗ of Fig. 9
            FILTER{pre_groups[1]}
            ...
            FILTER{compute_statements} -> subtree
            FILTER{post_groups[0]}
            ...

    Returns the new extension node.
    """
    all_stmts: List[ExtensionStmt] = []
    filters: List[FilterNode] = []
    for group in pre_groups:
        group = list(group)
        all_stmts.extend(group)
        filters.append(FilterNode([s.name for s in group]))
    filters.append(FilterNode(list(compute_statements), [subtree]))
    for group in post_groups:
        group = list(group)
        all_stmts.extend(group)
        filters.append(FilterNode([s.name for s in group]))
    sequence = SequenceNode(filters)
    extension = ExtensionNode(all_stmts, [sequence])
    parent.replace_child(subtree, extension)
    return extension


def insert_mark(
    parent: ScheduleNode,
    subtree: ScheduleNode,
    mark: str,
    payload: Optional[Dict[str, object]] = None,
) -> MarkNode:
    """Wrap ``subtree`` in a mark node (in place)."""
    node = MarkNode(mark, [subtree], payload)
    parent.replace_child(subtree, node)
    return node


# ---------------------------------------------------------------------------
# Peeling constraints (§6.2)
# ---------------------------------------------------------------------------


def peel_eq(var: str, value: IntLike) -> Constraint:
    """Filter constraint selecting the single iteration ``var == value``."""
    return eq(aff_var(var), value)


def peel_range(var: str, lo: IntLike, hi: IntLike) -> Tuple[Constraint, Constraint]:
    """Filter constraints selecting ``lo <= var < hi``."""
    return (ge(aff_var(var), lo), lt(aff_var(var), hi))


def filtered(
    statements: Sequence[str],
    child: Optional[ScheduleNode] = None,
    constraints: Sequence[Constraint] = (),
    label: str = "",
) -> FilterNode:
    """Convenience constructor for a filter node."""
    return FilterNode(
        statements,
        [child] if child is not None else [],
        constraints,
        label,
    )
