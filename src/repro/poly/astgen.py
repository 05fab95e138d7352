"""Schedule-tree → AST scanner (§7.1).

isl's AST generator walks the schedule tree and produces loops, guards and
statement calls; the paper extends it with a new node type carrying DMA and
RMA statements.  This module reproduces that scanner for the tree shapes
the swgemm pipeline constructs:

* band members become ``for`` loops using the *extents* recorded by the
  transformations (exact under the divisibility context the paper enforces
  with zero padding);
* band members bound to the CPE mesh (``Rid``/``Cid``) become free
  variables of the generated CPE program rather than loops (Fig. 4b);
* filter constraints on a band variable *below* the filter restrict that
  loop's range (loop peeling, Fig. 11); constraints on variables already
  open become ``if`` guards (the ``x < ⌈K/256⌉-1`` issue guards);
* extension statements and marks are lowered through a delegate supplied
  by the caller — the compiler passes a delegate that turns extension
  statements into :class:`~repro.poly.astnodes.CommStmt` and the micro
  kernel mark into a :class:`~repro.poly.astnodes.KernelCall`.

Keeping the scanner generic (and the lowering in the delegate) mirrors the
paper's observation that bridging schedule trees and athread code through
an AST makes the approach portable to other programming models: one only
has to redesign the pretty-print phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.errors import CodegenError
from repro.poly.affine import AffExpr
from repro.poly.astnodes import (
    AffRef,
    BinExpr,
    Block,
    Expr,
    ForLoop,
    IfStmt,
    IntLit,
    Stmt,
)
from repro.poly.iset import EQ, Constraint
from repro.poly.schedule_tree import (
    BandNode,
    ContextNode,
    DomainNode,
    ExtensionNode,
    ExtensionStmt,
    FilterNode,
    MarkNode,
    ScheduleNode,
    SequenceNode,
)


@dataclass
class ScanContext:
    """State threaded through the scan."""

    open_vars: List[str] = field(default_factory=list)
    active_statements: Tuple[str, ...] = ()
    pending: List[Constraint] = field(default_factory=list)
    extensions: Dict[str, ExtensionStmt] = field(default_factory=dict)
    params: frozenset = frozenset()
    depth: int = 0

    def child(self, **overrides) -> "ScanContext":
        ctx = ScanContext(
            open_vars=list(self.open_vars),
            active_statements=self.active_statements,
            pending=list(self.pending),
            extensions=dict(self.extensions),
            params=self.params,
            depth=self.depth + 1,
        )
        for key, value in overrides.items():
            setattr(ctx, key, value)
        return ctx


class LoweringDelegate(Protocol):
    """Caller-provided lowering of leaf constructs."""

    def lower_extension(self, stmt: ExtensionStmt, ctx: ScanContext) -> List[Stmt]:
        """AST statements for one extension (copy/synch) statement."""

    def lower_compute(self, name: str, ctx: ScanContext) -> List[Stmt]:
        """AST statements for a domain statement at an open leaf."""

    def lower_mark(
        self, mark: MarkNode, ctx: ScanContext
    ) -> Optional[List[Stmt]]:
        """AST statements replacing a marked subtree, or ``None`` to
        descend into the subtree normally."""


@dataclass
class _BoundInfo:
    lo: AffExpr
    hi: AffExpr  # exclusive


class AstGenerator:
    """Scan a schedule tree into a :class:`~repro.poly.astnodes.Block`."""

    def __init__(self, delegate: LoweringDelegate) -> None:
        self.delegate = delegate

    # -- public ----------------------------------------------------------

    def generate(self, root: ScheduleNode, params: Sequence[str] = ()) -> Block:
        """Scan ``root``; ``params`` names the symbolic problem parameters
        (M, N, K, …) so that guard constraints mentioning them are not
        mistaken for constraints on unopened loops."""
        ctx = ScanContext(params=frozenset(params))
        return Block(self._scan(root, ctx))

    # -- scanning -----------------------------------------------------------

    def _scan(self, node: ScheduleNode, ctx: ScanContext) -> List[Stmt]:
        if isinstance(node, (DomainNode, ContextNode)):
            if isinstance(node, DomainNode) and not ctx.active_statements:
                ctx = ctx.child(
                    active_statements=tuple(node.statement_names()), depth=ctx.depth
                )
            return self._scan_children(node, ctx)
        if isinstance(node, BandNode):
            return self._scan_band(node, ctx)
        if isinstance(node, SequenceNode):
            stmts: List[Stmt] = []
            for child in node.children:
                stmts.extend(self._scan(child, ctx))
            return stmts
        if isinstance(node, FilterNode):
            return self._scan_filter(node, ctx)
        if isinstance(node, ExtensionNode):
            new_ctx = ctx.child()
            for stmt in node.stmts:
                if stmt.name in new_ctx.extensions:
                    raise CodegenError(f"extension statement {stmt.name!r} shadowed")
                new_ctx.extensions[stmt.name] = stmt
            return self._scan_children(node, new_ctx)
        if isinstance(node, MarkNode):
            lowered = self.delegate.lower_mark(node, ctx)
            if lowered is not None:
                return lowered
            return self._scan_children(node, ctx)
        raise CodegenError(f"cannot scan node of kind {node.kind!r}")

    def _scan_children(self, node: ScheduleNode, ctx: ScanContext) -> List[Stmt]:
        stmts: List[Stmt] = []
        for child in node.children:
            stmts.extend(self._scan(child, ctx))
        return stmts

    # -- bands -----------------------------------------------------------------

    def _scan_band(self, band: BandNode, ctx: ScanContext) -> List[Stmt]:
        return self._scan_band_member(band, 0, ctx)

    def _scan_band_member(
        self, band: BandNode, index: int, ctx: ScanContext
    ) -> List[Stmt]:
        if index == band.rank:
            if band.children:
                return self._scan_children(band, ctx)
            # Leaf band: emit the active domain statements scalar-style.
            stmts: List[Stmt] = []
            for name in ctx.active_statements:
                if name in ctx.extensions:
                    stmts.extend(self.delegate.lower_extension(ctx.extensions[name], ctx))
                else:
                    stmts.extend(self.delegate.lower_compute(name, ctx))
            return stmts
        member = band.members[index]
        if member.binding in ("mesh_row", "mesh_col"):
            # Spatial dimension: Rid/Cid are per-CPE constants, no loop.
            new_ctx = ctx.child()
            new_ctx.open_vars.append(member.var)
            return self._scan_band_member(band, index + 1, new_ctx)
        if member.extent is None:
            raise CodegenError(f"band member {member.var!r} has no extent")
        bounds = _BoundInfo(member.extent[0], member.extent[1])
        new_ctx = ctx.child()
        consumed: List[Constraint] = []
        for constraint in new_ctx.pending:
            adjusted = _apply_constraint_to_bounds(constraint, member.var, bounds)
            if adjusted:
                consumed.append(constraint)
        for constraint in consumed:
            new_ctx.pending.remove(constraint)
        new_ctx.open_vars.append(member.var)
        body_stmts = self._scan_band_member(band, index + 1, new_ctx)
        loop = ForLoop(
            var=member.var,
            lo=AffRef(bounds.lo),
            hi=AffRef(bounds.hi),
            body=Block(body_stmts),
            annotation=member.binding or "",
        )
        return [loop]

    # -- filters -----------------------------------------------------------------

    def _scan_filter(self, node: FilterNode, ctx: ScanContext) -> List[Stmt]:
        new_ctx = ctx.child(active_statements=tuple(node.statements))
        guards: List[Constraint] = []
        for constraint in node.constraints:
            loop_vars = constraint.variables() - ctx.params
            if loop_vars and loop_vars <= set(ctx.open_vars):
                guards.append(constraint)
            else:
                new_ctx.pending.append(constraint)
        if node.children:
            inner = self._scan_children(node, new_ctx)
        else:
            inner = []
            for name in node.statements:
                if name in new_ctx.extensions:
                    inner.extend(
                        self.delegate.lower_extension(new_ctx.extensions[name], new_ctx)
                    )
                else:
                    inner.extend(self.delegate.lower_compute(name, new_ctx))
        if new_ctx.pending and not node.children:
            raise CodegenError(
                f"filter constraints {[str(c) for c in new_ctx.pending]} were "
                "never consumed by a band"
            )
        if not inner:
            return []
        if guards:
            cond = _constraints_to_expr(guards)
            return [IfStmt(cond, Block(inner))]
        return inner


# ---------------------------------------------------------------------------
# Constraint handling
# ---------------------------------------------------------------------------


def _apply_constraint_to_bounds(
    constraint: Constraint, var: str, bounds: _BoundInfo
) -> bool:
    """Tighten ``bounds`` of loop ``var`` with a peeling constraint.

    Supports the filter shapes the latency-hiding pass builds (bounds such
    as ``var <= extent - 2``) and single-iteration ``var == value`` peels:
    the constraint expression must mention ``var`` with coefficient ±1 and
    no other not-yet-open loop variables.  Returns True when consumed.
    """
    coeff = constraint.expr.coefficient(var)
    if coeff == 0:
        return False
    if abs(coeff) != 1:
        raise CodegenError(
            f"unsupported peeling constraint {constraint} (|coeff| != 1)"
        )
    rest = constraint.expr - AffExpr.var(var) * coeff
    if constraint.kind == EQ:
        # var*coeff + rest == 0  =>  var == -rest/coeff
        value = rest * (-coeff)
        bounds.lo = value
        bounds.hi = value + 1
        return True
    # GE
    if coeff > 0:
        # var >= -rest
        candidate = rest * -1
        bounds.lo = _aff_max(bounds.lo, candidate)
    else:
        # var <= rest  =>  var < rest + 1
        candidate = rest + 1
        bounds.hi = _aff_min(bounds.hi, candidate)
    return True


def _aff_max(a: AffExpr, b: AffExpr) -> AffExpr:
    if a.is_constant() and b.is_constant():
        return a if a.constant_value() >= b.constant_value() else b
    if a == b:
        return a
    if a.is_constant() and a.constant_value() == 0:
        return b  # loop ranges are non-negative by construction
    raise CodegenError(f"cannot compare symbolic bounds max({a}, {b})")


def _aff_min(a: AffExpr, b: AffExpr) -> AffExpr:
    if a.is_constant() and b.is_constant():
        return a if a.constant_value() <= b.constant_value() else b
    if a == b:
        return a
    # Peeling only ever shrinks ranges: ``hi`` was the full extent and the
    # candidate is ``extent - c`` for some c >= 0; prefer the candidate.
    diff = a - b
    if diff.is_constant():
        return b if diff.constant_value() >= 0 else a
    raise CodegenError(f"cannot compare symbolic bounds min({a}, {b})")


def _constraints_to_expr(constraints: Sequence[Constraint]) -> Expr:
    exprs: List[Expr] = []
    for c in constraints:
        op = "==" if c.kind == EQ else ">="
        exprs.append(BinExpr(op, AffRef(c.expr), IntLit(0)))
    result = exprs[0]
    for e in exprs[1:]:
        result = BinExpr("&&", result, e)
    return result
