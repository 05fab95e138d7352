"""SCoP extraction: semantic info → polyhedral statements.

Builds, for each assignment statement, its iteration domain (an
:class:`~repro.poly.iset.IntegerSet` over the enclosing loop variables)
and its read/write access relations — the representation §2.2 feeds to
the dependence analysis.  The compiler's GEMM pipeline recognises its
patterns at a higher level (:mod:`repro.frontend.patterns`), but the SCoP
form is what makes the frontend honest: parallelism and tilability are
*derived* from these objects, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import SemanticError
from repro.frontend.cast import CArrayRef, walk_exprs
from repro.frontend.semantic import FunctionInfo, StatementInfo
from repro.poly.affine import AffExpr
from repro.poly.dependences import Access, DependenceSummary, analyze_statement
from repro.poly.imap import AffineMap
from repro.poly.iset import Constraint, IntegerSet, ge, lt
from repro.poly.space import Space


@dataclass
class ScopStatement:
    """One polyhedral statement."""

    name: str
    info: StatementInfo
    domain: IntegerSet
    accesses: List[Access] = field(default_factory=list)

    def summary(self) -> DependenceSummary:
        return analyze_statement(self.domain, self.accesses, self.domain.space.dims)


@dataclass
class Scop:
    """A static control part: the function's statements in order."""

    statements: List[ScopStatement]


def _domain_for(stmt: StatementInfo, name: str) -> IntegerSet:
    space = Space(name, stmt.loop_vars)
    constraints: List[Constraint] = []
    for loop in stmt.loops:
        constraints.append(ge(AffExpr.var(loop.var), loop.lower))
        constraints.append(lt(AffExpr.var(loop.var), loop.upper))
    return IntegerSet(space, constraints)


def _accesses_for(
    stmt: StatementInfo, info: FunctionInfo, space: Space, analyzer
) -> List[Access]:
    accesses: List[Access] = []
    loop_vars = {l.var: l for l in stmt.loops}

    def array_space(name: str, rank: int) -> Space:
        return Space(name, tuple(f"d{i}" for i in range(rank)))

    # The write access.
    target = stmt.assign.target
    accesses.append(
        Access(
            target.array,
            AffineMap.access(
                space,
                array_space(target.array, len(stmt.target_subscripts)),
                list(stmt.target_subscripts),
            ),
            True,
        )
    )
    # Compound assignments read their target implicitly.
    if stmt.assign.op in ("+=", "-=", "*="):
        accesses.append(
            Access(
                target.array,
                AffineMap.access(
                    space,
                    array_space(target.array, len(stmt.target_subscripts)),
                    list(stmt.target_subscripts),
                ),
                False,
            )
        )
    # Reads on the right-hand side.
    for expr in walk_exprs(stmt.assign.value):
        if isinstance(expr, CArrayRef):
            subscripts = tuple(
                analyzer.to_affine(ix, loop_vars) for ix in expr.indices
            )
            accesses.append(
                Access(
                    expr.array,
                    AffineMap.access(
                        space, array_space(expr.array, len(subscripts)), list(subscripts)
                    ),
                    False,
                )
            )
    return accesses


def extract_scop(info: FunctionInfo) -> Scop:
    """Build the SCoP of an analysed function."""
    from repro.frontend.semantic import SemanticAnalyzer

    analyzer = SemanticAnalyzer(info.function)
    analyzer.info = info  # reuse the populated symbol table
    statements: List[ScopStatement] = []
    for index, stmt in enumerate(info.statements):
        name = f"S{index}"
        domain = _domain_for(stmt, name)
        accesses = _accesses_for(stmt, info, domain.space, analyzer)
        statements.append(ScopStatement(name, stmt, domain, accesses))
    if not statements:
        raise SemanticError("no statements to extract")
    return Scop(statements)
