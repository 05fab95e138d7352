"""AST for the supported C subset.

The subset covers what the paper's inputs need (Fig. 2a, Fig. 12a's
fused variants and the batched nest of Fig. 3):

* one or more function definitions with scalar (``int``/``double``) and
  variable-length-array parameters (``double A[M][K]``);
* canonical ``for`` loops: ``for (int i = lo; i < hi; i++)``;
* expression statements that are assignments (including ``+=``) whose
  subscripts are affine and whose right-hand sides are arithmetic over
  array elements, scalars, literals and calls to known element-wise
  functions.

Every node carries its source line for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CExpr:
    pass


@dataclass(frozen=True)
class CIntLit(CExpr):
    value: int
    line: int = 0


@dataclass(frozen=True)
class CFloatLit(CExpr):
    value: float
    line: int = 0


@dataclass(frozen=True)
class CIdent(CExpr):
    name: str
    line: int = 0


@dataclass(frozen=True)
class CUnary(CExpr):
    op: str  # "-" or "!"
    operand: CExpr
    line: int = 0


@dataclass(frozen=True)
class CBinary(CExpr):
    op: str  # + - * / % < <= > >= == != && ||
    lhs: CExpr
    rhs: CExpr
    line: int = 0


@dataclass(frozen=True)
class CArrayRef(CExpr):
    array: str
    indices: Tuple[CExpr, ...]
    line: int = 0


@dataclass(frozen=True)
class CCall(CExpr):
    func: str
    args: Tuple[CExpr, ...]
    line: int = 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class CStmt:
    pass


@dataclass
class CAssign(CStmt):
    """``target op value`` with op in ``=``, ``+=``, ``-=``, ``*=``."""

    target: Union[CArrayRef, CIdent]
    op: str
    value: CExpr
    line: int = 0


@dataclass
class CFor(CStmt):
    """Canonical loop ``for (int var = lo; var < hi; var++) body``."""

    var: str
    lower: CExpr
    upper: CExpr  # exclusive (condition is always ``var < upper``)
    body: List[CStmt] = field(default_factory=list)
    line: int = 0


@dataclass
class CIf(CStmt):
    cond: CExpr
    then: List[CStmt] = field(default_factory=list)
    els: Optional[List[CStmt]] = None
    line: int = 0


@dataclass
class CDecl(CStmt):
    """A local scalar declaration (``double t = e;``)."""

    ctype: str
    name: str
    init: Optional[CExpr] = None
    line: int = 0


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CParam:
    """A function parameter: scalar or VLA array."""

    ctype: str  # "int" | "double"
    name: str
    #: dimension expressions for array parameters, () for scalars;
    #: e.g. ``double A[M][K]`` -> ("M", "K") as identifier expressions
    dims: Tuple[CExpr, ...] = ()

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class CFunction:
    name: str
    return_type: str
    params: List[CParam]
    body: List[CStmt]
    line: int = 0


@dataclass
class CTranslationUnit:
    functions: List[CFunction]

    def function(self, name: str) -> CFunction:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


def walk_stmts(stmts: List[CStmt]):
    """Pre-order traversal of a statement list."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, CFor):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, CIf):
            yield from walk_stmts(stmt.then)
            if stmt.els:
                yield from walk_stmts(stmt.els)


def walk_exprs(expr: CExpr):
    """Pre-order traversal of an expression tree."""
    yield expr
    if isinstance(expr, CUnary):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, CBinary):
        yield from walk_exprs(expr.lhs)
        yield from walk_exprs(expr.rhs)
    elif isinstance(expr, CArrayRef):
        for index in expr.indices:
            yield from walk_exprs(index)
    elif isinstance(expr, CCall):
        for arg in expr.args:
            yield from walk_exprs(arg)
