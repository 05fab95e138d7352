"""Loop AST produced by scanning a schedule tree.

§7.1 of the paper reuses isl's AST generator but must introduce *a new AST
node type* for the DMA/RMA extension statements.  This module defines the
complete AST vocabulary used by both back ends of this reproduction:

* :mod:`repro.codegen.printer` pretty-prints the AST to athread C source
  (the paper's actual output), and
* :mod:`repro.poly.pygen` prints the same AST as one Python generator
  function that :mod:`repro.runtime.executor` runs against the simulated
  SW26010Pro core group — which is how the reproduction validates that the
  generated program is *correct*, not merely well-formatted — and the
  verifier's schedule machine replays.

Expressions are either plain tree nodes (:class:`BinExpr` etc.) or a thin
wrapper over a quasi-affine expression (:class:`AffRef`), which keeps the
schedule arithmetic exact end to end.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ExecutionError
from repro.poly.affine import AffExpr

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for AST expressions."""

    def evaluate(self, env: Mapping[str, object]) -> object:
        raise NotImplementedError


@dataclass(frozen=True)
class IntLit(Expr):
    value: int

    def evaluate(self, env: Mapping[str, object]) -> int:
        return self.value


@dataclass(frozen=True)
class DoubleLit(Expr):
    value: float

    def evaluate(self, env: Mapping[str, object]) -> float:
        return self.value


@dataclass(frozen=True)
class VarRef(Expr):
    name: str

    def evaluate(self, env: Mapping[str, object]) -> object:
        try:
            return env[self.name]
        except KeyError:
            raise ExecutionError(f"unbound variable {self.name!r}") from None


@dataclass(frozen=True)
class AffRef(Expr):
    """A quasi-affine expression used directly as an AST expression."""

    aff: AffExpr

    def evaluate(self, env: Mapping[str, object]) -> int:
        return self.aff.evaluate({k: v for k, v in env.items() if isinstance(v, int)})


#: The operators of :class:`BinExpr`, each over two evaluated operands.
BINARY_OPS: Dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.floordiv,
    "%": operator.mod,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
    "min": min,
    "max": max,
}


@dataclass(frozen=True)
class BinExpr(Expr):
    """Binary operation; ``/`` is flooring integer division (all schedule
    arithmetic in this compiler is over non-negative operands).  Both
    operands are evaluated before the operator — ``&&``/``||`` do not
    short-circuit."""

    op: str
    lhs: Expr
    rhs: Expr

    def evaluate(self, env: Mapping[str, object]) -> object:
        a = self.lhs.evaluate(env)
        b = self.rhs.evaluate(env)
        try:
            fn = BINARY_OPS[self.op]
        except KeyError:
            raise ExecutionError(f"unknown binary operator {self.op!r}") from None
        return fn(a, b)


@dataclass(frozen=True)
class ArrayRef(Expr):
    """A reference to ``array[indices...]``.

    ``memory`` distinguishes ``"main"`` arrays (the matrices in the core
    group's DDR4 memory) from ``"spm"`` buffers (the per-CPE scratch-pad
    tiles such as ``local_A``).  SPM references may carry a leading buffer
    selector index for double buffering.
    """

    array: str
    indices: Tuple[Expr, ...]
    memory: str = "main"

    def evaluate(self, env: Mapping[str, object]) -> object:
        raise ExecutionError(
            "array references are evaluated by the executor, not inline"
        )


@dataclass(frozen=True)
class AddrOf(Expr):
    """``&ref`` — the address argument of a DMA/RMA call."""

    ref: ArrayRef

    def evaluate(self, env: Mapping[str, object]) -> object:
        raise ExecutionError("addresses are resolved by the executor")


@dataclass(frozen=True)
class CallExpr(Expr):
    """A scalar function call (quantization / activation intrinsics)."""

    name: str
    args: Tuple[Expr, ...]

    def evaluate(self, env: Mapping[str, object]) -> object:
        raise ExecutionError("scalar calls are evaluated by the executor")


def aff(expr: AffExpr) -> AffRef:
    return AffRef(expr)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for AST statements."""


@dataclass
class Block(Stmt):
    body: List[Stmt] = field(default_factory=list)

    def append(self, stmt: "Stmt") -> None:
        self.body.append(stmt)


@dataclass
class ForLoop(Stmt):
    """``for (var = lo; var < hi; var += step)``; ``hi`` is exclusive."""

    var: str
    lo: Expr
    hi: Expr
    body: Block
    step: int = 1
    annotation: str = ""  # e.g. "outer k dimension", printed as a comment


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then: Block
    els: Optional[Block] = None


@dataclass
class AssignStmt(Stmt):
    """``target op value`` with op in ``=``, ``+=``, ``*=``."""

    target: Union[ArrayRef, VarRef]
    value: Expr
    op: str = "="


@dataclass
class CommStmt(Stmt):
    """The new AST node type of §7.1: a DMA/RMA/synchronisation statement.

    ``kind`` is one of ``dma_iget``, ``dma_iput``, ``rma_row_ibcast``,
    ``rma_col_ibcast``, ``dma_wait_value``, ``rma_wait_value``, ``synch``,
    ``reply_reset``.  ``args`` carries the structured operands (addresses as
    :class:`AddrOf`, sizes as expressions, reply-counter names as strings);
    the printer renders the exact athread syntax of §§4-5 and the executor
    performs the corresponding simulator operation.
    """

    kind: str
    args: Dict[str, object] = field(default_factory=dict)


@dataclass
class KernelCall(Stmt):
    """Invocation of the inline assembly micro kernel (§7.2).

    ``trans_a``/``trans_b`` select the transposed-operand entry points of
    the kernel family (the SPM tiles are stored in the operands' own
    layouts, kt×mt / nt×kt)."""

    name: str
    c_ref: ArrayRef
    a_ref: ArrayRef
    b_ref: ArrayRef
    mt: int
    nt: int
    kt: int
    alpha: Expr
    trans_a: bool = False
    trans_b: bool = False


@dataclass
class BlockOpStmt(Stmt):
    """A small element-wise operation over an SPM tile.

    Printed as a (SIMD-annotated) loop nest in the CPE C code; executed
    vectorised by the interpreter.  ``op`` is one of:

    * ``"scale"``   — ``dst *= factor``          (the β·C scaling)
    * ``"apply"``   — ``dst = func(dst)``        (prologue/epilogue funcs)
    """

    op: str
    dst: ArrayRef
    shape: Tuple[int, int]
    factor: Optional[Expr] = None
    func: str = ""


@dataclass
class CommentStmt(Stmt):
    text: str


@dataclass
class NaiveComputeStmt(Stmt):
    """The scalar statement body executed when ``--no-use-asm`` bypasses the
    micro kernel: a single assignment inside the point loops, e.g.
    ``local_C[ip][jp] += alpha * local_A[ip][kp] * local_B[kp][jp]``.

    ``loop_vars``/``extents`` describe the enclosing point loops so the
    interpreter may execute the whole box vectorised (the printer still
    emits the scalar loops — on real hardware swgcc would compile them).
    """

    target: ArrayRef
    value: Expr
    loop_vars: Tuple[str, ...] = ()
    extents: Tuple[int, ...] = ()
    trans_a: bool = False
    trans_b: bool = False


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------


@dataclass
class BufferDecl:
    """One SPM buffer declaration of the CPE code (§6.3)."""

    name: str
    shape: Tuple[int, ...]  # includes the double-buffer count when > 1
    dtype: str = "double"

    @property
    def elements(self) -> int:
        total = 1
        for s in self.shape:
            total *= s
        return total

    @property
    def nbytes(self) -> int:
        width = {"double": 8, "float": 4, "int": 4}[self.dtype]
        return self.elements * width


@dataclass
class ReplyDecl:
    """A DMA/RMA reply counter (§4): one per in-flight message slot."""

    name: str
    count: int = 1  # doubled buffers need two independent counters


@dataclass
class CpeProgram:
    """The complete CPE-side program: SPM buffer plan + body AST."""

    buffers: List[BufferDecl]
    replies: List[ReplyDecl]
    body: Block
    kernel_name: str = "asm_dgemm"

    def spm_bytes(self) -> int:
        return sum(b.nbytes for b in self.buffers)


def walk_stmts(stmt: Stmt):
    """Pre-order traversal over statements (test/debug helper)."""
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.body:
            yield from walk_stmts(s)
    elif isinstance(stmt, ForLoop):
        yield from walk_stmts(stmt.body)
    elif isinstance(stmt, IfStmt):
        yield from walk_stmts(stmt.then)
        if stmt.els is not None:
            yield from walk_stmts(stmt.els)
