"""Semantic analysis of the parsed C subset.

Checks the properties the polyhedral extraction relies on and builds the
symbol table:

* every array parameter's dimensions are scalar ``int`` parameters;
* loops are canonical (verified syntactically by the parser) and their
  bounds are affine in enclosing loop variables and scalar parameters;
* every subscript is affine;
* only calls to known element-wise functions appear in right-hand sides.

The result (:class:`FunctionInfo`) carries the affine forms of all bounds
and subscripts, expressed with :class:`~repro.poly.affine.AffExpr`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SemanticError
from repro.codegen.elementwise import available_functions
from repro.frontend.cast import (
    CArrayRef,
    CAssign,
    CBinary,
    CCall,
    CDecl,
    CExpr,
    CFloatLit,
    CFor,
    CFunction,
    CIdent,
    CIf,
    CIntLit,
    CStmt,
    CUnary,
)
from repro.poly.affine import AffExpr, aff_const, aff_var


@dataclass
class ArrayInfo:
    name: str
    ctype: str
    dims: Tuple[AffExpr, ...]  # symbolic extents

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class LoopInfo:
    var: str
    lower: AffExpr
    upper: AffExpr  # exclusive
    depth: int


@dataclass
class StatementInfo:
    """One assignment statement in its loop context."""

    assign: CAssign
    loops: List[LoopInfo]
    #: affine subscripts of the target array reference
    target_subscripts: Tuple[AffExpr, ...]

    @property
    def loop_vars(self) -> Tuple[str, ...]:
        return tuple(l.var for l in self.loops)


@dataclass
class FunctionInfo:
    function: CFunction
    scalars: Dict[str, str] = field(default_factory=dict)  # name -> ctype
    arrays: Dict[str, ArrayInfo] = field(default_factory=dict)
    statements: List[StatementInfo] = field(default_factory=list)


class SemanticAnalyzer:
    def __init__(self, function: CFunction) -> None:
        self.function = function
        self.info = FunctionInfo(function)
        self._known_calls = set(available_functions())

    # -- affine conversion --------------------------------------------------

    def to_affine(self, expr: CExpr, loop_vars: Dict[str, LoopInfo]) -> AffExpr:
        """Convert an index/bound expression to quasi-affine form."""
        if isinstance(expr, CIntLit):
            return aff_const(expr.value)
        if isinstance(expr, CIdent):
            name = expr.name
            if name in loop_vars or name in self.info.scalars:
                return aff_var(name)
            raise SemanticError(
                f"line {expr.line}: {name!r} is not a loop variable or "
                "integer parameter"
            )
        if isinstance(expr, CUnary) and expr.op == "-":
            return -self.to_affine(expr.operand, loop_vars)
        if isinstance(expr, CBinary):
            if expr.op == "+":
                return self.to_affine(expr.lhs, loop_vars) + self.to_affine(
                    expr.rhs, loop_vars
                )
            if expr.op == "-":
                return self.to_affine(expr.lhs, loop_vars) - self.to_affine(
                    expr.rhs, loop_vars
                )
            if expr.op == "*":
                lhs = self.to_affine(expr.lhs, loop_vars)
                rhs = self.to_affine(expr.rhs, loop_vars)
                if lhs.is_constant():
                    return rhs * lhs.constant_value()
                if rhs.is_constant():
                    return lhs * rhs.constant_value()
                raise SemanticError(
                    f"line {expr.line}: non-affine product in index expression"
                )
            if expr.op == "/":
                rhs = self.to_affine(expr.rhs, loop_vars)
                if not rhs.is_constant() or rhs.constant_value() <= 0:
                    raise SemanticError(
                        f"line {expr.line}: division by a non-constant"
                    )
                return self.to_affine(expr.lhs, loop_vars).floordiv(
                    rhs.constant_value()
                )
            if expr.op == "%":
                rhs = self.to_affine(expr.rhs, loop_vars)
                if not rhs.is_constant() or rhs.constant_value() <= 0:
                    raise SemanticError(f"line {expr.line}: modulo by non-constant")
                return self.to_affine(expr.lhs, loop_vars).mod(rhs.constant_value())
        raise SemanticError(
            f"expression at line {getattr(expr, 'line', 0)} is not affine"
        )

    # -- analysis ------------------------------------------------------------

    def analyze(self) -> FunctionInfo:
        self._collect_params()
        self._walk(self.function.body, [])
        if not self.info.statements:
            raise SemanticError(
                f"function {self.function.name!r} contains no assignment statements"
            )
        return self.info

    def _collect_params(self) -> None:
        for param in self.function.params:
            if param.is_array:
                continue
            self.info.scalars[param.name] = param.ctype
        for param in self.function.params:
            if not param.is_array:
                continue
            dims: List[AffExpr] = []
            for dim in param.dims:
                aff = self.to_affine(dim, {})
                dims.append(aff)
            self.info.arrays[param.name] = ArrayInfo(param.name, param.ctype, tuple(dims))

    def _walk(self, stmts: List[CStmt], loops: List[LoopInfo]) -> None:
        loop_vars = {l.var: l for l in loops}
        for stmt in stmts:
            if isinstance(stmt, CFor):
                if stmt.var in loop_vars or stmt.var in self.info.scalars:
                    raise SemanticError(
                        f"line {stmt.line}: loop variable {stmt.var!r} shadows "
                        "an existing name"
                    )
                lower = self.to_affine(stmt.lower, loop_vars)
                upper = self.to_affine(stmt.upper, loop_vars)
                info = LoopInfo(stmt.var, lower, upper, len(loops))
                self._walk(stmt.body, loops + [info])
            elif isinstance(stmt, CAssign):
                self._check_assign(stmt, loops)
            elif isinstance(stmt, CIf):
                # Only the always-true wrapper produced for bare blocks.
                if not (isinstance(stmt.cond, CIntLit) and stmt.cond.value == 1):
                    raise SemanticError(
                        f"line {stmt.line}: data-dependent control flow is "
                        "outside the supported subset"
                    )
                self._walk(stmt.then, loops)
            elif isinstance(stmt, CDecl):
                raise SemanticError(
                    f"line {stmt.line}: local variables are not needed by the "
                    "supported GEMM patterns"
                )
            else:
                raise SemanticError(f"unsupported statement {type(stmt).__name__}")

    def _check_assign(self, assign: CAssign, loops: List[LoopInfo]) -> None:
        loop_vars = {l.var: l for l in loops}
        if not isinstance(assign.target, CArrayRef):
            raise SemanticError(
                f"line {assign.line}: assignments must target array elements"
            )
        array = self.info.arrays.get(assign.target.array)
        if array is None:
            raise SemanticError(
                f"line {assign.line}: unknown array {assign.target.array!r}"
            )
        if len(assign.target.indices) != array.rank:
            raise SemanticError(
                f"line {assign.line}: {array.name} has rank {array.rank}, "
                f"indexed with {len(assign.target.indices)} subscripts"
            )
        subscripts = tuple(
            self.to_affine(ix, loop_vars) for ix in assign.target.indices
        )
        self._check_rhs(assign.value, loop_vars)
        self.info.statements.append(StatementInfo(assign, list(loops), subscripts))

    def _check_rhs(self, expr: CExpr, loop_vars: Dict[str, LoopInfo]) -> None:
        if isinstance(expr, (CIntLit, CFloatLit)):
            return
        if isinstance(expr, CIdent):
            if expr.name in self.info.scalars:
                return
            if expr.name in loop_vars:
                return
            raise SemanticError(f"line {expr.line}: unknown identifier {expr.name!r}")
        if isinstance(expr, CUnary):
            self._check_rhs(expr.operand, loop_vars)
            return
        if isinstance(expr, CBinary):
            self._check_rhs(expr.lhs, loop_vars)
            self._check_rhs(expr.rhs, loop_vars)
            return
        if isinstance(expr, CArrayRef):
            array = self.info.arrays.get(expr.array)
            if array is None:
                raise SemanticError(f"line {expr.line}: unknown array {expr.array!r}")
            if len(expr.indices) != array.rank:
                raise SemanticError(
                    f"line {expr.line}: rank mismatch on {expr.array!r}"
                )
            for index in expr.indices:
                self.to_affine(index, loop_vars)
            return
        if isinstance(expr, CCall):
            if expr.func not in self._known_calls:
                raise SemanticError(
                    f"line {expr.line}: unknown function {expr.func!r}; "
                    f"supported element-wise functions: {sorted(self._known_calls)}"
                )
            for arg in expr.args:
                self._check_rhs(arg, loop_vars)
            return
        raise SemanticError(f"unsupported expression {type(expr).__name__}")


def analyze_function(function: CFunction) -> FunctionInfo:
    return SemanticAnalyzer(function).analyze()
